"""Exception types shared across the solver."""


class PolylsError(Exception):
    """Base class for all library errors."""


class InvalidInstance(PolylsError):
    """An instance's declared sizes disagree (n, function, direction, x0)."""


class NonSubmodular(PolylsError):
    """A function table or spec fails the quadruple submodularity test."""


class EmptyNotZero(PolylsError):
    """f(empty set) != 0."""


class NegativeValue(PolylsError):
    """A family that requires nonnegative data received a negative value."""


class GroundSetTooLarge(PolylsError):
    """A ground set is larger than a declared size limit."""


class BadStart(PolylsError):
    """Newton iteration was started below the true intersection."""


class IterationCapExceeded(PolylsError):
    """Cutting-plane engine hit its iteration budget.

    Carries the engine state so callers can still use the best point found.
    """

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class InfeasibleBaseLineSearch(PolylsError):
    """No scalar multiple of the direction lies on the base polytope."""


class InvariantViolation(PolylsError):
    """An internal contract was broken (usually a misuse of the oracle API)."""
