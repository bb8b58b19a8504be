"""Dual route to the exact intersection: cutting planes + chain rounding.

The line search over the polymatroid is dual to minimizing the Lovász
extension over the slice {x >= 0, d.x = 1}.  Eliminating one positive pivot
coordinate gives an (n-1)-dimensional convex program over
{0 <= z <= u, d_rest.z <= 1}, which an analytic-center cutting-plane method
(ACCPM) solves approximately in floats.  The box and the hyperplane are
log-barrier rows, so every query is an objective cut, and each query is the
analytic center of the localizer in epigraph form, found by a few Newton
steps from the previous center.  A convex combination of the cuts,
weighted by the centering duals and minimized exactly over the domain,
certifies a lower bound on lambda*.

Every query sorts its point into a greedy chain S_1 < ... < S_n, and each
S_k with d(S_k) > 0 gives an exact ratio f(S_k)/d(S_k) >= lambda*: the
level-set rounding of the extension.  The best chain vertex 1_S/d(S) is the
engine's upper bound, so the bracket closes on lambda* itself, and once it
is below half the ladder spacing the best chain ratio is lambda*.  Newton
starts from that ratio, computed in integers, and exact envelope steps
confirm it.  Correctness never depends on the float phase - it only buys a
warm start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (GroundSetTooLarge, InfeasibleBaseLineSearch,
                     InvariantViolation, IterationCapExceeded)
from .lovasz import DenseLovasz
from .newton import (LineSearchResult, _result, bruteforce_linesearch,
                     discrete_newton, envelope, ladder_spacing, upper_bound)
from .oracles import Direction, SubmodularOracle
from .subsets import SubsetMask

# perfbench/tracer.py wraps `evaluate` and `perturb` in this module, so they
# stay bound here although no solver calls them
from .lovasz import evaluate  # noqa: F401


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


class _PhiOracle:
    """Float objective of an extension over the reduced domain, rounded on
    its greedy chains.

    phi(z) -> (value, subgradient, candidate).  The query's chain
    S_1 < ... < S_n is the one `value_subgrad` reads; every S_k with
    d(S_k) > 0 gives a ratio f(S_k)/d(S_k) >= lambda*, read in floats from
    the float table and `Direction.float_sums`.  candidate is
    (ratio, vertex) when the chain's best ratio is below that of every
    earlier query, with vertex the reduced coordinates of 1_S/d(S)
    (z_i = 1/d(S) for i in S minus the pivot), and None otherwise; the vertex
    is built only then.  best and best_mask are the last candidate's ratio
    and set mask (inf and None before the first).
    """

    def __init__(self, lov: DenseLovasz, prob: ReducedProblem):
        n = lov.n
        self.lov = lov
        self.pivot = prob.pivot
        self.rest_idx = np.array([i for i in range(n) if i != prob.pivot],
                                 dtype=np.intp)
        self.d_rest = np.array(prob.d_rest, dtype=np.float64)
        self.dp = float(prob.d_pivot)
        self.d_ratio = self.d_rest / self.dp
        self.dsums = prob.direction.float_sums
        self.best = math.inf
        self.best_mask = None

    def __call__(self, z: np.ndarray):
        lov, rest_idx, pivot = self.lov, self.rest_idx, self.pivot
        x = np.empty(lov.n)
        x[rest_idx] = z
        x[pivot] = (1.0 - self.d_rest @ z) / self.dp
        val, v, chain = lov.value_subgrad(x)
        grad = v[rest_idx] - self.d_ratio * v[pivot]
        den = self.dsums[chain]
        ratios = np.divide(lov.table[chain], den, out=np.full(lov.n, math.inf),
                           where=den > 0)
        k = int(ratios.argmin())
        if not ratios[k] < self.best:
            return val, grad, None
        self.best = best = float(ratios[k])
        self.best_mask = mask = int(chain[k])
        vertex = np.where(mask >> rest_idx & 1, 1.0 / den[k], 0.0)
        return val, grad, (best, vertex)


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


def _box_min(c: np.ndarray, hi: np.ndarray, a) -> float:
    """min c.z over {0 <= z <= hi, a.z <= 1}; a is None for the box alone.

    The Lagrangian dual in the hyperplane's multiplier mu >= 0 is
    q(mu) = -mu + sum_i min(0, c_i + mu a_i) hi_i: concave, piecewise
    linear, with kinks at mu = -c_i/a_i.  Its maximum over mu >= 0 lies at
    0 or at a positive kink and equals the LP minimum.  Each q(mu) is a
    lower bound by weak duality, so a rounded kink only loosens the bound.
    O(m^2): every kink is evaluated in one array expression.
    """
    if a is None:
        return float((np.minimum(c, 0.0) * hi).sum())
    # mu = 0 and one entry per a_i: its kink, or 0 again where a_i = 0 or
    # the kink is negative
    mu = np.zeros(len(c) + 1)
    np.divide(-c, a, out=mu[1:], where=a != 0)
    np.maximum(mu, 0.0, out=mu)
    coef = c + mu[:, None] * a
    return float(((np.minimum(coef, 0.0) * hi).sum(axis=1) - mu).max())


_NEWTON_CAP = 100
_CENTER_TOL = 0.25  # Newton decrement lambda^2 at which a center is accepted
_SHIFT = 0.5        # a shifted row clears the center by this many Dikin widths


def _center(A: np.ndarray, b: np.ndarray, omega: np.ndarray, y: np.ndarray):
    """Weighted analytic center of {y : A y <= b}: argmax sum_k omega_k log(b - A y)_k.

    Newton's method from a strictly feasible y.  While the Newton decrement
    lambda^2 is above _CENTER_TOL, a backtracking line search on the barrier
    starts at 99% of the largest step that keeps every slack positive (so
    every trial step keeps them positive); below it,
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
            val1 = -float(omega @ np.log(s1))
            if val1 <= val - 0.01 * t * dec:
                break
            t *= 0.5
            if t < 1e-10:
                return None
        y = y + t * dy
        s, val = s1, val1
    return None


def unit_box(prob: ReducedProblem) -> np.ndarray:
    """Upper corner u of the search box 0 <= z <= u.

    u_i = 1, or u_i = 1/d_i when no entry of d is negative (u_i = 1 where
    d_i = 0).  The box holds every vertex 1_S/d(S) of the slice
    {x >= 0, d.x = 1}: d(S) is a positive integer, so each coordinate
    1/d(S) is <= 1, and 1/d(S) <= 1/d_i when no entry of d is negative,
    since then d(S) >= d_i for every i in S.  The extension reads
    f(S)/d(S) at such a vertex, and it reads at least the best ratio of its
    greedy chain anywhere on the slice (f >= 0), so its minimum over the
    domain is exactly lambda*.
    """
    all_nonneg = all(v >= 0 for v in prob.d_rest)
    return np.array([1.0 / di if all_nonneg and di > 0 else 1.0
                     for di in prob.d_rest])


def cutting_plane_minimize(phi: _PhiOracle, prob: ReducedProblem,
                           target_gap) -> CutEngineState:
    """Minimize the reduced objective over the dual domain by ACCPM, to a
    certified gap.

    The domain is Z = {0 <= z <= u, d_rest.z <= 1} with u = unit_box(prob);
    its minimum is lambda*, so the engine brackets lambda* between its lower
    bound lb, which starts at 0 (f >= 0), and best, the best chain ratio
    phi has offered.  The first query is z_init = 1/(2 ||d||_1) in every
    coordinate, strictly inside Z.

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
    best - lb <= target_gap, with 0 cuts when z_init's chain already closes
    the bracket on 0; stalled at once, with 0 cuts, when the target is
    below the float resolution of phi, and later when neither best nor lb
    moves for a window of cuts or a centering fails (callers restore
    exactness by rounding); past `prob.cut_cap` cuts, of order m ln(kappa),
    it raises IterationCapExceeded carrying the state.
    """
    m = prob.omega_dim
    hi = unit_box(prob)
    # the hyperplane row d_rest.z <= 1 binds only where d_rest is nonzero
    a = np.array(prob.d_rest, dtype=np.float64) if any(prob.d_rest) else None
    target_gap = float(target_gap)
    cap = prob.cut_cap
    z0 = np.full(m, 1.0 / (2.0 * prob.direction.norm1))
    v0, g0, c0 = phi(z0)
    scale = max(1.0, abs(float(v0)))
    best, best_point = c0[0] / scale, c0[1]
    lb = 0.0
    it = newton = 0
    converged = stalled = False

    def state() -> CutEngineState:
        return CutEngineState(best_point.copy(), best * scale, lb * scale,
                              max(0.0, best - lb) * scale, it, converged,
                              stalled, 0, it, newton)

    if m == 0:
        lb = best  # Z is the point z_init
    tgt = target_gap / scale
    if best - lb <= tgt:
        converged = True
        return state()
    if float_resolution(prob.direction.n, prob.m_bound) >= target_gap:
        stalled = True
        return state()

    # rows of A y <= b over y = (z, t), each scaled to unit norm: -z_i <= 0,
    # z_i <= u_i, then a.z <= 1, then t <= best, then one row per cut
    n_fixed = 2 * m + (a is not None) + 1
    A = np.zeros((n_fixed + cap + 1, m + 1))
    b = np.zeros(n_fixed + cap + 1)
    A[0:m, :m] = -np.eye(m)
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
        wA = w @ A[n_fixed:k]
        W = -float(wA[m])
        return _box_min(wA[:m] / W, hi, a) - float(w @ b_true[n_fixed:k]) / W

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
    lb = max(lb, bound(np.ones(1)))
    # z_init is strictly inside Z; the first cut and the t row start
    # shifted to clear (z_init, best)
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
        z = np.clip(y[:m], 0.0, hi)
        v, g, c = phi(z)
        v = float(v)
        it += 1
        if c is not None and c[0] / scale < best:
            best, best_point = c[0] / scale, c[1]
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


# ---------------------------------------------------------------------------
# Pipelines


def solve_dual(f: SubmodularOracle, d: Direction) -> LineSearchResult:
    """Full pipeline: cut to half a ladder step, round on the best chain,
    Newton-confirm.

    The engine stops once the best chain ratio is within eps/2 of its lower
    bound on lambda*, eps = 1/||d||_1^2 the ladder spacing; distinct ratios
    differ by at least eps, so the best chain ratio is then lambda* and
    Newton confirms it in zero steps.  Newton starts from the exact ratio of
    the best chain set, or from the singleton upper bound where that is
    lower.  Every n takes this one path; at n = 1 the reduced domain is a
    point and the engine returns at once.  Without float images of f and d
    the engine cannot run, and Newton starts from the upper bound.  Returns
    the exact intersection; the engine phase only warms up Newton, so a
    stalled or capped engine degrades iteration counts, not correctness.
    The result's trace is the engine's `CutEngineState`, or None when the
    engine did not run.
    """
    before = f.calls
    u = upper_bound(f, d)
    prob = ReducedProblem.for_instance(f, d)
    state, cuts, lam0 = None, 0, u
    if f.float_table is not None and d.float_sums is not None:
        phi = _PhiOracle(DenseLovasz(f), prob)
        try:
            state = cutting_plane_minimize(phi, prob, float(prob.eps / 2))
        except IterationCapExceeded as exc:
            state = exc.state  # rounding below restores exactness regardless
        cuts = state.iterations
        mask = phi.best_mask
        lam0 = min(Fraction(f.eval(mask), d.of(mask)), u)
    res = discrete_newton(f, d, lam0)
    return LineSearchResult(res.lambda_star, res.tight_set, res.dual_optimum,
                            "dualcut",
                            newton_iterations=res.newton_iterations,
                            engine_iterations=cuts,
                            oracle_calls=f.calls - before,
                            sfm_calls=res.sfm_calls,
                            trace=state)


def solve_dual_base(f: SubmodularOracle, d: Direction) -> LineSearchResult:
    """Line search restricted to the base polytope: lambda d must also meet
    the full-set equality, which pins lambda = f(E)/d(E).

    One exact envelope kernel call decides it: lambda d lies in P(f) iff the
    envelope at lambda is nonnegative.  No float phase runs, so
    `engine_iterations` is 0.
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
    g, violating = envelope(f, d, lam)
    if g < 0:
        raise InfeasibleBaseLineSearch(
            f"lambda d violates x(S) <= f(S) at S={violating}")
    return _result(f, d, lam, full, "base", oracle_calls=f.calls - before)


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
