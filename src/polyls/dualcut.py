"""Dual route to the exact intersection: cutting planes + ladder rounding.

The line search over the polymatroid is dual to minimizing the Lovász
extension over the slice {x >= 0, d.x = 1}.  Eliminating one positive pivot
coordinate gives an (n-1)-dimensional convex program over
{0 <= z <= u, d_rest.z <= 1}, which an analytic-center cutting-plane method
(ACCPM) solves approximately in floats.  The box and the hyperplane are
log-barrier rows, so every query is an objective cut, and each query is the
analytic center of the localizer in epigraph form, found by a few Newton
steps from the previous center.  A convex combination of the cuts,
weighted by the centering duals and minimized exactly over the domain,
certifies a lower bound.  The approximate point is snapped to an exactly
feasible rational point, whose extension value upper bounds the
intersection, and a couple of exact Newton steps land on the answer.
Correctness never depends on the float phase - it only buys a warm start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (GroundSetTooLarge, InfeasibleBaseLineSearch,
                     InvariantViolation, IterationCapExceeded)
from .lovasz import DenseLovasz, evaluate
from .newton import (LineSearchResult, _result, bruteforce_linesearch,
                     discrete_newton, ladder_spacing, upper_bound)
from .oracles import Direction, SubmodularOracle
from .sfm import membership
from .subsets import SubsetMask


@dataclass(frozen=True)
class ReducedProblem:
    """The (n-1)-dimensional dual domain after eliminating the pivot coordinate.

    eps is the ladder spacing 1/||d||_1^2 and m_bound the oracle's bound M on
    every |f(S)|.
    """

    pivot: int
    omega_dim: int
    d_rest: tuple[int, ...]
    eps: Fraction
    m_bound: int
    direction: Direction

    @classmethod
    def for_instance(cls, f: SubmodularOracle, d: Direction) -> "ReducedProblem":
        pivot = min(range(d.n), key=lambda i: (-d.d[i], i))
        if d.d[pivot] <= 0:
            raise InvariantViolation("direction lost its positive entry")
        return cls(pivot=pivot,
                   omega_dim=d.n - 1,
                   d_rest=tuple(v for i, v in enumerate(d.d) if i != pivot),
                   eps=ladder_spacing(d),
                   m_bound=f.m_bound,
                   direction=d)

    @property
    def d_pivot(self) -> int:
        return self.direction.d[self.pivot]

    @property
    def cut_cap(self) -> int:
        """Cut budget of order m ln(kappa), with kappa = 4 n M^3 ||d||_1^5.

        kappa is the ratio n r ||d||_1 / alpha of the box radius
        r = 2M/eps to the relative accuracy alpha = eps/(2M^2), with
        eps = 1/||d||_1^2 and M clamped to >= 1 so the zero function keeps
        a finite budget.
        """
        m = max(self.m_bound, 1)
        d = self.direction
        ln_kappa = math.log(4 * d.n * m ** 3 * d.norm1 ** 5)
        return int(4 * (self.omega_dim + 1) * max(ln_kappa, 1.0)) + 100


def lift_point(z, prob: ReducedProblem) -> list[Fraction]:
    """Insert the pivot coordinate so that d.x = 1, in exact rationals."""
    z = [Fraction(v) for v in z]
    if len(z) != prob.omega_dim:
        raise ValueError("reduced point has wrong dimension")
    s = sum(di * zi for di, zi in zip(prob.d_rest, z))
    zeta = (1 - s) / Fraction(prob.d_pivot)
    return z[:prob.pivot] + [zeta] + z[prob.pivot:]


def perturb(f: SubmodularOracle, eps) -> DenseLovasz:
    """Float Lovász extension of f + eps, eps added to every nonempty value
    so that f(empty) = 0 stays normalized."""
    if eps <= 0:
        raise ValueError("perturbation must be positive")
    return DenseLovasz(f, eps=float(eps))


def _phi_oracle(lov: DenseLovasz, prob: ReducedProblem):
    """Float (value, subgradient) closure of an extension over the reduced
    domain."""
    n = lov.n
    pivot = prob.pivot
    rest_idx = np.array([i for i in range(n) if i != pivot], dtype=np.intp)
    d_rest = np.array(prob.d_rest, dtype=np.float64)
    dp = float(prob.d_pivot)

    def fn(z: np.ndarray) -> tuple[float, np.ndarray]:
        x = np.empty(n)
        x[rest_idx] = z
        x[pivot] = (1.0 - d_rest @ z) / dp
        val, v = lov.value_subgrad(x)
        return val, v[rest_idx] - (d_rest / dp) * v[pivot]

    return fn


# ---------------------------------------------------------------------------
# Analytic-center cutting-plane engine


@dataclass
class CutEngineState:
    """Where the engine stopped, with its bracket best_value - lower_bound.

    The box and the hyperplane are barrier rows, never cuts, so every query
    is an objective cut: `iterations == objective_cuts` and
    `feasibility_cuts` is always 0.  `newton_steps` counts the centering
    steps of all queries together.
    """

    best_point: np.ndarray
    best_value: float
    lower_bound: float
    certified_gap: float
    iterations: int
    converged: bool
    stalled: bool = False
    feasibility_cuts: int = 0
    objective_cuts: int = 0
    newton_steps: int = 0


def float_resolution(n: int, m_bound) -> float:
    """Absolute error up to which the floats know a value of the objective.

    phi(z) is the dot product of the lifted point x with the greedy
    marginals: n products, each marginal a difference of two table values
    of size at most M, so |marginal| <= 2M.  The dot-product error bound
    n * 2^-53 * sum_i |x_i| |marginal_i|, with |x_i| <= 1 in the unit search
    box, is n * 2^-53 * n * 2M = 2^-52 * n^2 * M (the roundoff of the table
    entries themselves adds a lower-order 2^-52 * n * M).  An engine asked
    for a gap at or below this cannot certify it, so it does not try.
    """
    try:
        return math.ldexp(float(n * n * max(m_bound, 1)), -52)
    except OverflowError:
        return math.inf


def _box_min(c: np.ndarray, lo: np.ndarray, hi: np.ndarray, a) -> float:
    """min c.z over {lo <= z <= hi, a.z <= 1}; a is None for the box alone.

    The Lagrangian dual in the hyperplane's multiplier mu >= 0 is
    q(mu) = -mu + sum_i min((c_i + mu a_i) lo_i, (c_i + mu a_i) hi_i): concave,
    piecewise linear, with kinks at mu = -c_i/a_i.  Its maximum over
    mu >= 0 lies at 0 or at a positive kink and equals the LP minimum.  Each
    q(mu) is a lower bound by weak duality, so a rounded kink only loosens
    the bound.  O(m^2): every kink is evaluated in one array expression.
    """
    mu = np.zeros(1)
    if a is not None:
        nz = a != 0
        kinks = -c[nz] / a[nz]
        mu = np.concatenate((mu, kinks[kinks > 0]))
        coef = c + mu[:, None] * a
    else:
        coef = c[None, :]
    return float((np.minimum(coef * lo, coef * hi).sum(axis=1) - mu).max())


_NEWTON_CAP = 100
_CENTER_TOL = 0.25  # Newton decrement lambda^2 at which a center is accepted
_SHIFT = 0.5        # a shifted row clears the center by this many Dikin widths


def _center(A: np.ndarray, b: np.ndarray, omega: np.ndarray, y: np.ndarray):
    """Weighted analytic center of {y : A y <= b}: argmax sum_k omega_k log(b - A y)_k.

    Newton's method from a strictly feasible y.  While the Newton decrement
    lambda^2 is above _CENTER_TOL, a backtracking line search on the barrier
    starts at the largest step that keeps every slack positive; below it,
    lambda <= 1/2 and the full step stays inside the Dikin ellipsoid of this
    self-concordant barrier, so it is taken and the point returned.
    Returns (y, s, H, steps), with s > 0 the slacks and H the last Newton
    matrix, or None when a step fails or H is singular.
    """
    s = b - A @ y
    if not s.min() > 0.0:
        return None
    val = None
    for step in range(1, _NEWTON_CAP + 1):
        w = omega / s
        grad = A.T @ w
        H = (A.T * (w / s)) @ A
        try:
            dy = np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError:
            return None
        dec = -float(grad @ dy)
        if not math.isfinite(dec):
            return None
        As = A @ dy
        if dec <= _CENTER_TOL:
            y = y + dy
            s = s - As
            return (y, s, H, step) if s.min() > 0.0 else None
        if val is None:
            val = -float(omega @ np.log(s))
        # the largest step keeping s - t As > 0, backed off by 1%, capped at 1
        t = 0.99 / max(float((As / s).max()), 0.99)
        while True:
            s1 = s - t * As
            if s1.min() > 0.0:
                val1 = -float(omega @ np.log(s1))
                if val1 <= val - 0.01 * t * dec:
                    break
            t *= 0.5
            if t < 1e-10:
                return None
        y = y + t * dy
        s, val = s1, val1
    return None


def _accpm(phi, lo, hi, a, z_init, target_gap, cap,
           resolution) -> CutEngineState:
    """Minimize a convex phi over Z = {lo <= z <= hi, a.z <= 1} by ACCPM.

    Epigraph form over y = (z, t): the box and the hyperplane are barrier
    rows, one row t <= best holds the best value found, and every query z_j
    adds the cut g_j.z - t <= g_j.z_j - phi_j.  The next query is the z part
    of the localizer's analytic center.  The lower bound weights the cuts by
    their centering duals, a convex combination of minorants of phi, and
    minimizes it over Z exactly (`_box_min`); any nonnegative weights give a
    valid bound, so inexact centering can only weaken it.

    Each centering starts from the previous center.  A row that center
    violates or nearly touches (the new cut, the t row after best improved)
    enters shifted outward to clear it by half a Dikin width: a shifted row
    is a weaker but still valid row, so every Newton start is strictly
    feasible and close to the new center, and the row returns toward its
    true place at later centers.

    phi is divided by max(1, |phi(z_init)|) inside.  Stops converged when
    best - lb <= target_gap; stalled at once, with 0 cuts, when the target
    is below the float resolution of phi, and later when neither best nor
    lb moves for a window of cuts or a centering fails; past `cap` cuts it
    raises IterationCapExceeded carrying the state.
    """
    m = len(lo)
    z0 = np.asarray(z_init, dtype=np.float64).copy()
    v0, g0 = phi(z0)
    scale = max(1.0, abs(float(v0)))
    best = float(v0) / scale
    best_point = z0
    lb = -math.inf
    it = newton = 0
    converged = stalled = False

    def state() -> CutEngineState:
        return CutEngineState(best_point.copy(), best * scale, lb * scale,
                              max(0.0, best - lb) * scale, it, converged,
                              stalled, 0, it, newton)

    if m == 0:
        lb = best
        converged = True
        return state()
    if resolution >= target_gap:
        stalled = True
        return state()
    tgt = target_gap / scale

    # rows of A y <= b over y = (z, t), each scaled to unit norm: -z_i <= -lo_i,
    # z_i <= hi_i, then a.z <= 1, then t <= best, then one row per cut
    n_fixed = 2 * m + (a is not None) + 1
    A = np.zeros((n_fixed + cap + 1, m + 1))
    b = np.zeros(n_fixed + cap + 1)
    A[0:m, :m] = -np.eye(m)
    b[0:m] = -lo
    A[m:2 * m, :m] = np.eye(m)
    b[m:2 * m] = hi
    if a is not None:
        na = float(np.linalg.norm(a))
        A[2 * m, :m] = a / na
        b[2 * m] = 1.0 / na
    t_row = n_fixed - 1
    A[t_row, m] = 1.0
    b[t_row] = best
    k = n_fixed

    b_true = b.copy()  # b >= b_true: a shifted row is weaker, still valid

    def add_cut(z, v, g):
        nonlocal k
        g = g / scale
        nrm = math.sqrt(float(g @ g) + 1.0)
        A[k, :m] = g / nrm
        A[k, m] = -1.0 / nrm
        b_true[k] = (float(g @ z) - v / scale) / nrm
        b[k] = math.inf
        k += 1

    def bound(w):
        # w >= 0 on the cut rows: their sum is t >= (w.A_z z - w.b) / W with
        # W = -w.A_t, a convex combination of the cuts' minorants of phi
        rows = A[n_fixed:k]
        W = -float(w @ rows[:, m])
        c = (w @ rows[:, :m]) / W
        return _box_min(c, lo, hi, a) - float(w @ b_true[n_fixed:k]) / W

    def shift(y, H):
        # a row the center y does not clear by _SHIFT Dikin widths
        # sqrt(a H^-1 a) (widths 1 before the first center) moves out to do
        # so, never inside its true place and never further out than before,
        # so y stays strictly feasible and Newton starts near the new center
        rows = np.flatnonzero(b[:k] > b_true[:k])
        Ar = A[rows]
        width = 1.0 if H is None else np.sqrt(
            np.einsum("ij,ji->i", Ar, np.linalg.solve(H, Ar.T)))
        b[rows] = np.minimum(b[rows],
                             np.maximum(b_true[rows], Ar @ y + _SHIFT * width))

    add_cut(z0, float(v0), g0)
    lb = bound(np.ones(1))
    # z_init is strictly inside Z; the t row and the first cut both pass
    # through (z_init, best), so they start shifted
    y = np.append(z0, best)
    b[t_row] = math.inf
    omega = np.ones(len(b))
    shift(y, None)
    window = 4 * (m + 1) + 20
    mark_best, mark_lb, mark_it = best, lb, 0
    while best - lb > tgt:
        if it >= cap:
            raise IterationCapExceeded(f"cutting-plane cap {cap} hit", state())
        # weighting the t row by sqrt(k (m + 1)) over k rows pulls the center
        # toward the minimum of the cut model, so the centering duals bound
        # phi well; weights 1 and m + 1 stalled or hit the cap, and k and
        # 2 (m + 1) took 10-30% more cuts on the benchmark workloads
        omega[t_row] = math.sqrt(k * (m + 1))
        out = _center(A[:k], b[:k], omega[:k], y)
        if out is None:
            stalled = True
            break
        y, s, H, steps = out
        newton += steps
        lb = max(lb, bound(1.0 / s[n_fixed:]))
        if best - lb <= tgt:
            break
        z = np.clip(y[:m], lo, hi)
        v, g = phi(z)
        v = float(v)
        it += 1
        if (a is None or float(a @ z) <= 1.0) and v / scale < best:
            best = v / scale
            best_point = z
            b_true[t_row] = best
        add_cut(z, v, g)
        shift(y, H)
        prog = 1e-13 * max(1.0, abs(best))
        if best < mark_best - prog or lb > mark_lb + prog:
            mark_best, mark_lb, mark_it = best, lb, it
        elif it - mark_it > window:
            stalled = True
            break
    converged = best - lb <= tgt
    return state()


def unit_box(prob: ReducedProblem) -> np.ndarray:
    """Upper corner u of the search box 0 <= z <= u.

    u_i = 1, or u_i = 1/d_i when no entry of d is negative (u_i = 1 where
    d_i = 0).  The box holds the minimizer of the perturbed objective: f >= 0,
    so f + eps is positive on every nonempty set and the extension is
    positive along every ray of the slice {x >= 0, d.x = 1}; it is linear
    between the slice's vertices 1_S/d(S), so its minimum sits at one, and
    d(S) is a positive integer.  Every coordinate of such a vertex is
    1/d(S) <= 1, and 1/d(S) <= 1/d_i when no entry of d is negative, since
    then d(S) >= d_i for every i in S.
    """
    all_nonneg = all(v >= 0 for v in prob.d_rest)
    return np.array([1.0 / di if all_nonneg and di > 0 else 1.0
                     for di in prob.d_rest])


def cutting_plane_minimize(phi, prob: ReducedProblem,
                           target_gap) -> CutEngineState:
    """Minimize the reduced objective over the dual domain to a certified gap.

    phi: callable z -> (float value, float subgradient).  The domain is
    {0 <= z <= unit_box(prob), d_rest.z <= 1}, which holds the minimizer of
    the perturbed objective.  The cap is of order m ln(kappa) cuts.  On a
    stall the state is returned with certified_gap above target (callers
    restore exactness by rounding).
    """
    m = prob.omega_dim
    norm1 = prob.direction.norm1
    # the hyperplane row d_rest.z <= 1 binds only where d_rest is nonzero
    a = np.array(prob.d_rest, dtype=np.float64) if any(prob.d_rest) else None
    return _accpm(phi, np.zeros(m), unit_box(prob), a,
                  np.full(m, 1.0 / (2.0 * norm1)), float(target_gap),
                  prob.cut_cap,
                  float_resolution(prob.direction.n, prob.m_bound))


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
    phi = _phi_oracle(perturb(f, prob.eps), prob)
    try:
        state = cutting_plane_minimize(phi, prob, float(prob.eps / 4))
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
        eps = float(prob.eps)
        try:
            state = _accpm(_phi_oracle(DenseLovasz(f), prob),
                           np.full(m, -bound), np.full(m, bound), None,
                           np.full(m, 1.0 / d_full), eps / 4, prob.cut_cap,
                           float_resolution(f.n, f.m_bound))
        except IterationCapExceeded as exc:
            state = exc.state
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
