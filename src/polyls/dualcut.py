"""Dual route to the exact intersection: cutting planes + ladder rounding.

The line search over the polymatroid is dual to minimizing the Lovász
extension over the slice {x >= 0, d.x = 1}.  Eliminating one positive pivot
coordinate gives an (n-1)-dimensional convex program that an ellipsoid-style
cutting-plane engine solves approximately in floats; the approximate point is
snapped to an exactly feasible rational point, whose extension value upper
bounds the intersection, and a couple of exact Newton steps land on the
answer.  Correctness never depends on the float phase - it only buys a warm
start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (GroundSetTooLarge, InfeasibleBaseLineSearch,
                     InvariantViolation, IterationCapExceeded)
from .lovasz import DenseLovasz, evaluate
from .newton import (LineSearchResult, _result, bruteforce_linesearch,
                     discrete_newton, ladder_spacing, upper_bound)
from .oracles import Direction, SubmodularOracle, perturb
from .sfm import membership
from .subsets import SubsetMask


@dataclass(frozen=True)
class ReducedProblem:
    """The (n-1)-dimensional dual domain after eliminating the pivot coordinate.

    eps is the ladder spacing 1/||d||_1^2; r_box = 2M/eps bounds the sup-norm
    of the perturbed minimizer; alpha = eps/(2M^2) is the relative accuracy
    that makes the absolute gap O(eps).  M is clamped to >= 1 so the budget
    formulas stay finite for the zero function.
    """

    pivot: int
    omega_dim: int
    d_rest: tuple[int, ...]
    eps: Fraction
    r_box: Fraction
    alpha: Fraction
    direction: Direction

    @classmethod
    def for_instance(cls, f: SubmodularOracle, d: Direction) -> "ReducedProblem":
        pivot = min(range(d.n), key=lambda i: (-d.d[i], i))
        if d.d[pivot] <= 0:
            raise InvariantViolation("direction lost its positive entry")
        eps = ladder_spacing(d)
        m_eff = max(int(f.m_bound), 1)
        return cls(pivot=pivot,
                   omega_dim=d.n - 1,
                   d_rest=tuple(v for i, v in enumerate(d.d) if i != pivot),
                   eps=eps,
                   r_box=Fraction(2 * m_eff) / eps,
                   alpha=eps / (2 * m_eff * m_eff),
                   direction=d)

    @property
    def d_pivot(self) -> int:
        return self.direction.d[self.pivot]


def lift_point(z, prob: ReducedProblem) -> list[Fraction]:
    """Insert the pivot coordinate so that d.x = 1, in exact rationals."""
    z = [Fraction(v) for v in z]
    if len(z) != prob.omega_dim:
        raise ValueError("reduced point has wrong dimension")
    s = sum(di * zi for di, zi in zip(prob.d_rest, z))
    zeta = (1 - s) / Fraction(prob.d_pivot)
    return z[:prob.pivot] + [zeta] + z[prob.pivot:]


def _phi_oracle(f_like: SubmodularOracle, prob: ReducedProblem):
    """Float (value, subgradient) closure over the reduced domain."""
    n = f_like.n
    pivot = prob.pivot
    rest_idx = np.array([i for i in range(n) if i != pivot], dtype=np.intp)
    d_rest = np.array(prob.d_rest, dtype=np.float64)
    dp = float(prob.d_pivot)

    # a perturbed oracle is read through its base, with eps added in floats
    base = getattr(f_like, "base", None)
    if base is None:
        lov = DenseLovasz(f_like)
    else:
        lov = DenseLovasz(base, eps=float(f_like.eps))

    def fn(z: np.ndarray) -> tuple[float, np.ndarray]:
        x = np.empty(n)
        x[rest_idx] = z
        x[pivot] = (1.0 - d_rest @ z) / dp
        val, v = lov.value_subgrad(x)
        return val, v[rest_idx] - (d_rest / dp) * v[pivot]

    return fn


# ---------------------------------------------------------------------------
# Ellipsoid engine


@dataclass
class CutEngineState:
    best_point: np.ndarray
    best_value: float
    lower_bound: float
    certified_gap: float
    iterations: int
    converged: bool
    stalled: bool = False
    feasibility_cuts: int = 0
    objective_cuts: int = 0
    oracle_evals: int = 0
    history: list = field(default_factory=list)


def _ln_fraction(x) -> float:
    x = Fraction(x)
    return math.log(x.numerator) - math.log(x.denominator)


def _most_violated(A: np.ndarray, b: np.ndarray, center: np.ndarray,
                   feas_tol: float) -> int | None:
    """Row of A z <= b that the center violates most, or None.

    A row counts as violated when A[k].center - b[k] > feas_tol; ties go to
    the lowest row index.  One matrix-vector product per call.
    """
    viol = A @ center - b
    k = int(viol.argmax())
    return k if viol[k] > feas_tol else None


def _ellipsoid_minimize(phi_fn, A, b, c0, radius, z_init, target_gap,
                        cap, feas_tol, lb_init=-math.inf,
                        record_history=False) -> CutEngineState:
    """Deep-cut ellipsoid method over {z : A z <= b}.

    phi_fn must be convex on the feasible set and the feasible set must
    contain a minimizer inside the initial ball.  The certified lower bound
    is the running max over objective cuts of the cut's affine minorant
    minimized over the localizer at cut time (valid because the localizer
    always contains a constrained minimizer and only shrinks).  Feasibility
    cuts take the most violated row and have priority over objective cuts.
    """
    m = len(c0)
    v0, _ = phi_fn(np.asarray(z_init, dtype=np.float64))
    best = float(v0)
    best_point = np.asarray(z_init, dtype=np.float64).copy()
    lb = float(lb_init)
    evals = 1

    if m == 0:
        return CutEngineState(best_point, best, best, 0.0, 0, True,
                              oracle_evals=evals)

    interval = m == 1
    if interval:
        lo, hi = float(c0[0] - radius), float(c0[0] + radius)
    else:
        c = np.asarray(c0, dtype=np.float64).copy()
        P = np.eye(m) * float(radius) ** 2

    it = 0
    fcuts = ocuts = 0
    converged = stalled = False
    window = 4 * m * (m + 1) + 300
    mark_lb, mark_best, mark_it = lb, best, 0
    history = []

    def state() -> CutEngineState:
        return CutEngineState(best_point.copy(), best, lb, max(0.0, best - lb),
                              it, converged, stalled, fcuts, ocuts, evals,
                              history)

    while True:
        center = np.array([(lo + hi) / 2.0]) if interval else c

        cut = _most_violated(A, b, center, feas_tol)
        if cut is None:
            val, graw = phi_fn(center)
            evals += 1
            val = float(val)
            if math.isfinite(val) and val < best:
                best = val
                best_point = center.copy()
            if interval:
                gpg = (float(graw[0]) * (hi - lo) / 2.0) ** 2
            else:
                Pg = P @ graw
                gpg = float(graw @ Pg)
            if gpg > 0 and math.isfinite(gpg):
                lb = max(lb, val - math.sqrt(gpg))
            if best - lb <= target_gap:
                converged = True
                break
            g = graw
            beta = best - val  # minimizer satisfies g.(z - c) <= best - val
            ocuts += 1
        else:
            g = A[cut]
            # feasible points satisfy g.(z - c) <= b - g.c; the row's own dot
            # product keeps beta bit-identical to a per-row evaluation
            beta = float(b[cut]) - float(g @ center)
            fcuts += 1

        ng = math.sqrt(float(g @ g))
        if not math.isfinite(ng) or ng <= 0.0:
            stalled = True
            break
        g = g / ng
        beta = min(beta / ng, 0.0)

        if interval:
            r = (hi - lo) / 2.0
            cmid = (lo + hi) / 2.0
            if r <= 0.0:
                stalled = True
                break
            if g[0] > 0:
                hi = min(hi, cmid + beta)
            else:
                lo = max(lo, cmid - beta)
            if hi < lo:
                stalled = True
                break
        else:
            Pg = P @ g
            gpg = float(g @ Pg)
            if gpg <= 0.0 or not math.isfinite(gpg):
                stalled = True
                break
            sq = math.sqrt(gpg)
            gamma = -beta / sq
            if gamma >= 1.0:
                # the half-space misses the whole localizer: numerically done
                stalled = True
                break
            tau = (1.0 + m * gamma) / (m + 1.0)
            delta = (m * m / (m * m - 1.0)) * (1.0 - gamma * gamma)
            sigma = 2.0 * (1.0 + m * gamma) / ((m + 1.0) * (1.0 + gamma))
            c = c - tau * Pg / sq
            P = delta * (P - sigma * (Pg[:, None] * Pg) / gpg)
            P = (P + P.T) / 2.0
            if not np.isfinite(P).all():
                stalled = True
                break

        it += 1
        if record_history:
            if interval:
                logvol = math.log(max(hi - lo, 1e-300))
            else:
                sign, logdet = np.linalg.slogdet(P)
                logvol = 0.5 * logdet if sign > 0 else -math.inf
            history.append((it, logvol, best, lb))

        prog = max(1e-13 * max(1.0, abs(best)), 1e-300)
        if lb > mark_lb + prog or best < mark_best - prog:
            mark_lb, mark_best, mark_it = lb, best, it
        elif it - mark_it > window:
            stalled = True
            break
        if it >= cap:
            raise IterationCapExceeded(f"cutting-plane cap {cap} hit", state())

    return state()


def cutting_plane_minimize(phi_fn, prob: ReducedProblem, target_gap,
                           *, box_hint: Fraction | None = None,
                           record_history: bool = False) -> CutEngineState:
    """Minimize the reduced objective over the dual domain to a certified gap.

    phi_fn: callable z -> (float value, float subgradient).  The initial ball
    circumscribes a per-coordinate box that provably contains a minimizer of
    the perturbed objective; on numerical stall the state is returned with
    certified_gap above target (callers restore exactness by rounding).
    """
    m = prob.omega_dim
    norm1 = prob.direction.norm1

    def to_float(fr):
        try:
            return float(fr)
        except OverflowError:
            return math.inf

    r_box = to_float(prob.r_box)
    hint = to_float(box_hint) if box_hint is not None else math.inf
    all_nonneg = all(v >= 0 for v in prob.d_rest)
    u = np.empty(m)
    for i, di in enumerate(prob.d_rest):
        cand = r_box
        if all_nonneg and di > 0:
            cand = min(cand, 1.0 / di)
        u[i] = min(cand, hint)
    if m and (not np.isfinite(u).all() or u.min() <= 0):
        raise InvariantViolation("degenerate search box")

    # rows 2i, 2i+1: -z_i <= 0 and z_i <= u_i; last row: d_rest.z <= 1
    A = np.zeros((2 * m + 1, m))
    A[0:2 * m:2] = -np.eye(m)
    A[1:2 * m:2] = np.eye(m)
    A[2 * m] = prob.d_rest
    b = np.zeros(2 * m + 1)
    b[1:2 * m:2] = u
    b[2 * m] = 1.0

    z_init = np.full(m, min(1.0 / (2.0 * norm1), float(u.min()) / 2.0 if m else 1.0))
    c0 = u / 2.0
    radius = float(np.linalg.norm(u / 2.0)) * (1.0 + 1e-9) + 1e-12

    ln_kappa = (math.log(prob.direction.n) + _ln_fraction(prob.r_box)
                - _ln_fraction(prob.alpha) + math.log(norm1))
    cap = int(8 * m * m * max(ln_kappa, 1.0)) + 1000

    feas_tol = 1e-9 * max(1.0, float(norm1))
    lb_init = to_float(prob.eps / norm1)  # phi_eps >= eps * ||x||_inf >= eps/||d||_1
    return _ellipsoid_minimize(phi_fn, A, b, c0, radius, z_init,
                               float(target_gap), cap, feas_tol,
                               lb_init=lb_init, record_history=record_history)


# ---------------------------------------------------------------------------
# Pipelines


def _snap(f: SubmodularOracle, prob: ReducedProblem, z_float) -> Fraction:
    """Round the engine's point to an exactly feasible rational and evaluate.

    Negative coordinates are clamped; if the remaining mass overshoots the
    hyperplane the point is rescaled so the pivot coordinate is zero.  The
    result is dual-feasible, so its extension value upper bounds lambda*.
    """
    z = []
    for v in z_float:
        v = float(v)
        z.append(Fraction(v) if math.isfinite(v) and v > 0 else Fraction(0))
    s = sum(di * zi for di, zi in zip(prob.d_rest, z))
    if s > 1:
        z = [zi / s for zi in z]
    return evaluate(f, lift_point(z, prob))


def solve_dual(f: SubmodularOracle, d: Direction) -> LineSearchResult:
    """Full pipeline: perturb, cut to ~ladder accuracy, snap, Newton-round.

    Every n takes this one path; at n = 1 the reduced domain is a point, so
    the engine returns at once and the snap lands on the upper bound.
    Returns the exact intersection; the engine phase only warms up Newton, so
    a stalled or capped engine degrades iteration counts, not correctness.
    """
    before = f.calls
    u = upper_bound(f, d)
    prob = ReducedProblem.for_instance(f, d)
    f_eps = perturb(f, prob.eps)
    phi_fn = _phi_oracle(f_eps, prob)
    box_hint = (u + prob.eps) / prob.eps + 1
    try:
        state = cutting_plane_minimize(phi_fn, prob, float(prob.eps / 4),
                                       box_hint=box_hint)
    except IterationCapExceeded as exc:
        state = exc.state  # rounding below restores exactness regardless

    lam0 = min(_snap(f, prob, state.best_point), u)
    res = discrete_newton(f, d, lam0)
    return LineSearchResult(res.lambda_star, res.tight_set, res.dual_optimum,
                            "dualcut",
                            newton_iterations=res.newton_iterations,
                            engine_iterations=state.iterations,
                            oracle_calls=f.calls - before,
                            sfm_calls=res.sfm_calls,
                            trace={"engine": state, "newton": res.trace})


def solve_dual_base(f: SubmodularOracle, d: Direction) -> LineSearchResult:
    """Line search restricted to the base polytope: lambda d must also meet
    the full-set equality, which pins lambda = f(E)/d(E).

    The value is verified by an exact membership test and, for n >= 2, by
    running the cutting-plane engine on the hyperplane-only relaxation and
    checking agreement within the ladder spacing.
    """
    before = f.calls
    full = SubsetMask.full(f.n)
    f_full = f.eval(full)
    d_full = d.of(full)
    if d_full == 0:
        raise InfeasibleBaseLineSearch(
            f"d(E) = 0 with f(E) = {f_full}: no multiple of d meets the base equality"
            if f_full != 0 else
            "d(E) = 0 and f(E) = 0: every feasible multiple works; "
            "use the polymatroid solver for the maximum")
    lam = Fraction(f_full, d_full)
    mem = membership(f, [lam * di for di in d.d])
    if not mem.inside:
        raise InfeasibleBaseLineSearch(
            f"lambda d violates x(S) <= f(S) at S={mem.violating_set}")

    engine_iterations = 0
    if f.n >= 2:
        prob = ReducedProblem.for_instance(f, d)
        m = prob.omega_dim
        bound = 1.0 + abs(1.0 / d_full)
        # rows 2i, 2i+1: z_i <= bound and -z_i <= bound
        A = np.zeros((2 * m, m))
        A[0::2] = np.eye(m)
        A[1::2] = -np.eye(m)
        z_init = np.full(m, 1.0 / d_full)
        phi_fn = _phi_oracle(f, prob)
        eps = float(ladder_spacing(d))
        state = _ellipsoid_minimize(
            phi_fn, A, np.full(2 * m, bound), np.zeros(m),
            bound * math.sqrt(m) * 1.01 + 1e-9,
            z_init, eps / 4,
            cap=int(8 * m * m * 60) + 1000,
            feas_tol=1e-9 * max(1.0, float(d.norm1)))
        engine_iterations = state.iterations
        if abs(state.best_value - float(lam)) > eps + 1e-6 * max(1.0, abs(float(lam))):
            raise InvariantViolation(
                f"hyperplane relaxation disagrees: engine {state.best_value} "
                f"vs exact {lam}")

    out = _result(f, d, lam, full, "base",
                  oracle_calls=f.calls - before,
                  engine_iterations=engine_iterations)
    return out


def verify_lifting(f: SubmodularOracle, d: Direction, c: int) -> bool:
    """Check by enumeration that lifting with constant c preserves the optimum.

    Left side: max lambda_1 with lambda_1 (d, 0) + lambda_2 e_{n+1} in the
    lifted base polytope, where the base equality forces
    lambda_2 = f(E) - lambda_1 d(E).  Right side: the polymatroid intersection.
    Equality is guaranteed for c > max|f| * ||d||_1 and may fail below.
    """
    if f.n > 10:
        raise GroundSetTooLarge("lifting verification is capped at n = 10")
    right = bruteforce_linesearch(f, d).lambda_star

    table = f.dense_table().tolist()
    dsums = d.sums.tolist()
    full = (1 << f.n) - 1
    f_full = table[full]
    d_full = dsums[full]
    hi = None
    lo = None
    for mask in range(1 << f.n):
        for with_new in (False, True):
            if with_new and mask == full:
                continue  # the full lifted set holds with equality by construction
            if with_new:
                a = dsums[mask] - d_full
                b = table[mask] + c - f_full
            else:
                a = dsums[mask]
                b = table[mask]
            if a > 0:
                r = Fraction(b, a)
                if hi is None or r < hi:
                    hi = r
            elif a < 0:
                r = Fraction(b, a)
                if lo is None or r > lo:
                    lo = r
            elif b < 0:
                return False  # 0 * lambda <= b infeasible: no lifted solution
    if hi is None:
        return False
    if lo is not None and lo > hi:
        return False
    return hi == right
