"""Exact parametric line search: discrete Newton, bisection, ladder utilities.

The intersection lambda* = min{f(S)/d(S) : d(S) > 0} is found exactly in
rational arithmetic.  Every envelope evaluation and every bisection decision
at lambda = p/q is one call of `sfm.minimize_minus_modular`, the exact
minimum of the integral function q*f - p*d, so the decision stays in integers
no matter how ugly the rational iterate is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import BadStart, InvariantViolation
from .oracles import Direction, SubmodularOracle
from .sfm import minimize_minus_modular
from .subsets import SubsetMask

if TYPE_CHECKING:
    from .dualcut import CutEngineState

# perfbench/tracer.py wraps these names in this module, so they stay bound
# here although the solvers no longer call them
from .oracles import newton_scale  # noqa: F401
from .sfm import membership, minimize  # noqa: F401


@dataclass
class LineSearchResult:
    lambda_star: Fraction
    tight_set: SubsetMask
    dual_optimum: tuple[Fraction, ...]
    method: str
    newton_iterations: int = 0
    engine_iterations: int = 0
    oracle_calls: int = 0
    sfm_calls: int = 0
    # the dual route's engine state; None on every other route
    trace: CutEngineState | None = None


@dataclass
class BinarySearchResult:
    value: Fraction
    membership_calls: int


def dual_point(tight_set: SubsetMask, d: Direction) -> tuple[Fraction, ...]:
    """Scaled indicator 1_S / d(S): a hyperplane-feasible point whose
    extension value equals f(S)/d(S)."""
    den = d.of(tight_set)
    if den == 0:
        raise InvariantViolation("tight set with d(S) = 0 has no dual witness")
    # two shared immutable entries, not n: a held result stays small
    inside, outside = Fraction(1, den), Fraction(0)
    return tuple(inside if i in tight_set else outside for i in range(d.n))


def _result(f, d, lam, tight, method, **kw) -> LineSearchResult:
    if f.eval(tight) != lam * d.of(tight):
        raise InvariantViolation("tight set does not satisfy f(S) = lambda d(S)")
    return LineSearchResult(lam, tight, dual_point(tight, d), method, **kw)


def upper_bound(f: SubmodularOracle, d: Direction) -> Fraction:
    """min over singletons e with d_e > 0 of f({e})/d_e; always >= lambda*."""
    best = None
    for e, de in enumerate(d.d):
        if de > 0:
            r = Fraction(f.eval(1 << e), de)
            if best is None or r < best:
                best = r
    return best


def ladder_spacing(d: Direction) -> Fraction:
    """Minimum gap between distinct finite ratios f(S)/d(S): 1/||d||_1^2."""
    return Fraction(1, d.norm1 ** 2)


def envelope(f: SubmodularOracle, d: Direction,
             lam: Fraction) -> tuple[Fraction, SubsetMask]:
    """g(lambda) = min_S f(S) - lambda d(S), with its minimal minimizer."""
    lam = Fraction(lam)
    q = lam.denominator
    value, minimal, _ = minimize_minus_modular(f, q, lam.numerator, d)
    return Fraction(value, q), SubsetMask(minimal, f.n)


def bruteforce_linesearch(f: SubmodularOracle, d: Direction) -> LineSearchResult:
    """Reference solver: enumerate all ratios f(S)/d(S) with d(S) > 0."""
    before = f.calls
    table = f.dense_table().tolist()
    dsums = d.sums.tolist()
    best_num = best_den = None
    best_mask = 0
    for m in range(1, 1 << f.n):
        den = dsums[m]
        if den <= 0:
            continue
        num = table[m]
        if best_num is None or num * best_den < best_num * den:
            best_num, best_den, best_mask = num, den, m
    lam = Fraction(best_num, best_den)
    return _result(f, d, lam, SubsetMask(best_mask, f.n), "bruteforce",
                   oracle_calls=f.calls - before)


def discrete_newton(f: SubmodularOracle, d: Direction,
                    lambda0: Fraction | None = None) -> LineSearchResult:
    """Exact intersection by Newton steps lambda <- f(S)/d(S) on the envelope.

    Requires lambda0 >= lambda* (defaults to the singleton upper bound).  A
    start below the intersection raises BadStart.
    """
    before = f.calls
    if lambda0 is None:
        lambda0 = upper_bound(f, d)
    lam = Fraction(lambda0)
    spacing = ladder_spacing(d)

    g, s = envelope(f, d, lam)
    if g > 0:
        raise BadStart(f"envelope positive at start: lambda0={lam} < lambda*")
    if g == 0:
        # already feasible; confirm lambda0 is the intersection by stepping
        # just past it, where any envelope minimizer must be a tight set
        g_up, s_up = envelope(f, d, lam + spacing)
        if g_up == 0:
            raise BadStart(f"still feasible above lambda0={lam}: started below lambda*")
        if d.of(s_up) <= 0:
            raise InvariantViolation("negative envelope with d(S) <= 0: f >= 0 broken")
        lam_cand = Fraction(f.eval(s_up), d.of(s_up))
        if lam_cand != lam:
            raise BadStart(
                f"lambda0={lam} is feasible but lambda*={lam_cand}: started below lambda*")
        return _result(f, d, lam, s_up, "newton",
                       newton_iterations=0, oracle_calls=f.calls - before,
                       sfm_calls=2)

    cap = (1 << f.n) + 50
    steps = 0
    tight = None
    while g != 0:
        if d.of(s) <= 0:
            raise InvariantViolation("negative envelope with d(S) <= 0: f >= 0 broken")
        nxt = Fraction(f.eval(s), d.of(s))
        if not nxt < lam:
            raise InvariantViolation("Newton iterate failed to decrease")
        tight = s
        lam = nxt
        g, s = envelope(f, d, lam)
        steps += 1
        if steps > cap:
            raise InvariantViolation("Newton exceeded the ladder size: oracle broken")

    return _result(f, d, lam, tight, "newton",
                   newton_iterations=steps,
                   oracle_calls=f.calls - before,
                   sfm_calls=steps + 1)


def binary_search(f: SubmodularOracle, d: Direction,
                  lo: Fraction | None = None, hi: Fraction | None = None,
                  eps: Fraction = Fraction(1, 100)) -> BinarySearchResult:
    """Feasibility bisection: returns lam with lam <= lambda* <= lam + eps.

    Runs exactly ceil(log2((hi - lo)/eps)) membership tests: mid d lies in
    P(f) iff min_S q f(S) - p d(S) >= 0 for mid = p/q.  The right end is
    closed: when lambda* sits exactly on the initial upper bound and the
    range is a power-of-two multiple of eps, lambda* = lam + eps is attained.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    lo = Fraction(0) if lo is None else Fraction(lo)
    hi = upper_bound(f, d) if hi is None else Fraction(hi)
    if hi < lo:
        raise ValueError("empty bracket")

    ratio = (hi - lo) / eps
    steps = 0
    while (1 << steps) * ratio.denominator < ratio.numerator:
        steps += 1

    calls = 0
    for _ in range(steps):
        mid = (lo + hi) / 2
        calls += 1
        if minimize_minus_modular(f, mid.denominator, mid.numerator, d)[0] >= 0:
            lo = mid
        else:
            hi = mid
    return BinarySearchResult(lo, calls)
