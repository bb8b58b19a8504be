"""Dual route to the exact intersection: cutting planes + chain rounding.

The line search over the polymatroid is dual to minimizing the Lovász
extension over the slice {x >= 0, d.x = 1}.  Eliminating one positive pivot
coordinate gives an (n-1)-dimensional convex program over
{0 <= z <= hi, d_rest.z <= 1}, which an analytic-center cutting-plane method
(ACCPM) solves approximately in floats.  One `ReducedProblem` holds that
program for a solve: the exact slice, its float geometry, the float
extension and the best vertex seen so far.  The box and the hyperplane are
log-barrier rows, so every query is an objective cut, and each query is the
analytic center of the localizer in epigraph form, found by a few Newton
steps.  Each centering restarts from the previous center moved along
-H^-1 a of the new cut a (H the previous center's Newton matrix), as in
Goffin and Vial's ACCPM: far enough that the cut clears it by half a Dikin
width, but at most 4/5 of the way to any other row (`_RESTART`).  A convex
combination of the cuts, weighted by the centering duals and minimized
exactly over the domain, certifies a lower bound on lambda*.

Every query sorts its point into a greedy chain S_1 < ... < S_n, and each
S_k with d(S_k) > 0 gives an exact ratio f(S_k)/d(S_k) >= lambda*: the
level-set rounding of the extension.  The singleton vertices 1_{e}/d_e are
such points too, so the engine's bracket starts at [0, u] with u the
singleton bound.  `solve_dual` is the one gate in front of the engine.
It takes four exits in a fixed order, each decided before the next is
paid for: the seed (the singletons and E), the exact chain of the
engine's first query, the float resolution, and n = 1.  Only a solve that
passes all four builds a `ReducedProblem`, and only one whose first cut's
bound leaves the bracket open allocates the cut matrix.  The best vertex
1_S/d(S) seen so far is the engine's upper bound, so the bracket closes on
lambda* itself.  The engine stops once the bracket is below half the best
set's gap 1/(D+ d(S)), D+ = max_S d(S): integrality keeps every smaller
ratio at least that far below f(S)/d(S), so the best ratio is then lambda*.
That gap is never below the ladder spacing 1/||d||_1^2, so the engine stops
at the cut a half-ladder target would stop at, or sooner.  Newton starts
from the best ratio, computed in integers, and exact envelope steps confirm
it.  Correctness never depends on the float phase - it only buys a warm
start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (GroundSetTooLarge, InfeasibleBaseLineSearch,
                     IterationCapExceeded)
from .lovasz import DenseLovasz
from .newton import (LineSearchResult, _result, bruteforce_linesearch,
                     _singleton_bound, discrete_newton, envelope,
                     ladder_spacing)
from .oracles import Direction, SubmodularOracle, lift, translate
from .subsets import SubsetMask

# perfbench/tracer.py wraps `evaluate` and `perturb` in this module, so they
# stay bound here although no solver calls them
from .lovasz import evaluate  # noqa: F401


def _pivot(d: Direction) -> int:
    """The first largest entry of d, so d_pivot > 0 (some d_e > 0)."""
    return min(range(d.n), key=lambda i: (-d.d[i], i))


class ReducedProblem:
    """The dual problem of one solve: the Lovász extension of f over the
    (n-1)-dimensional domain left after eliminating the pivot coordinate.

    Exact data: the pivot (the first largest d_e, so d_pivot > 0), d_rest
    and m_bound the oracle's bound M on every |f(S)|.  Float data, each
    array built once: rest_idx (the kept coordinates), d_row (d_rest as
    floats, the hyperplane row d_rest.z <= 1), d_ratio = d_row/d_pivot, and
    hi, the upper corner of the search box 0 <= z <= hi.

    hi_i = 1, or hi_i = 1/d_i when no entry of d is negative (hi_i = 1 where
    d_i = 0).  The box holds every vertex 1_S/d(S) of the slice
    {x >= 0, d.x = 1}: d(S) is a positive integer, so each coordinate
    1/d(S) is <= 1, and 1/d(S) <= 1/d_i when no entry of d is negative,
    since then d(S) >= d_i for every i in S.  The extension reads
    f(S)/d(S) at such a vertex, and it reads at least the best ratio of its
    greedy chain anywhere on the slice (f >= 0), so its minimum over the
    domain is exactly lambda*.

    prob(z) -> (value, subgradient) of the float extension `DenseLovasz(f)`
    at the lifted point, rounded on its greedy chain S_1 < ... < S_n: every
    S_k with d(S_k) > 0 gives a ratio f(S_k)/d(S_k) >= lambda*, read in
    floats from the float table and `Direction.float_sums`.  best and
    best_mask are the smallest such ratio seen so far and the mask of its
    set.  They start at the seed (best, best_mask), in `solve_dual` the
    singleton bound u = min f({e})/d_e and its singleton's mask
    (`newton._singleton_bound`), a vertex ratio like any chain's.  So
    best_mask is never None and best never exceeds float(u); the extension
    reads best at the vertex 1_S/d(S) of best_mask.

    The gap: integrality separates the best ratio f(B)/d(B), B = best_mask,
    from every smaller ratio by 1/(D+ d(B)), D+ = `d.positive_sum` =
    max_S d(S).  For lambda* = f(S*)/d(S*) < f(B)/d(B) the difference is
    (f(B) d(S*) - f(S*) d(B)) / (d(B) d(S*)), a positive integer over a
    denominator at most d(B) D+.  So a lower bound lb <= lambda* with
    best - lb < 1/(D+ d(B)) proves best = lambda*.  d(B) > 0 always: B is
    the seed singleton or a chain set with d(S) > 0.  Since
    d(B) <= D+ <= ||d||_1 the gap is never below the ladder spacing
    1/||d||_1^2.
    """

    def __init__(self, f: SubmodularOracle, d: Direction, best: Fraction,
                 best_mask: int):
        self.pivot = pivot = _pivot(d)
        self.omega_dim = d.n - 1
        self.d_rest = tuple(v for i, v in enumerate(d.d) if i != pivot)
        self.d_pivot = d.d[pivot]
        self.m_bound = f.m_bound
        self.direction = d
        self.lov = DenseLovasz(f)
        self.rest_idx = np.array([i for i in range(d.n) if i != pivot],
                                 dtype=np.intp)
        self.d_row = np.array(self.d_rest, dtype=np.float64)
        self.dp = float(self.d_pivot)
        self.d_ratio = self.d_row / self.dp
        all_nonneg = all(v >= 0 for v in self.d_rest)
        self.hi = np.array([1.0 / di if all_nonneg and di > 0 else 1.0
                            for di in self.d_rest])
        self.dsums = d.float_sums
        self.best = float(best)
        self.best_mask = best_mask

    def tight_gap(self) -> float:
        """Half the gap 1/(D+ d(B)) of the best set B, as one float.

        D+ d(B) is formed in integers and divided once, so the only rounding
        is that of the quotient.  The other half is slack for the floats,
        as a target of eps/2 keeps half the ladder spacing.
        """
        d = self.direction
        return 1 / (2 * d.positive_sum * d.of(self.best_mask))

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

    def __call__(self, z: np.ndarray):
        lov, rest_idx, pivot = self.lov, self.rest_idx, self.pivot
        x = np.empty(lov.n)
        x[rest_idx] = z
        x[pivot] = (1.0 - self.d_row @ z) / self.dp
        val, v, chain = lov.value_subgrad(x)
        grad = v[rest_idx] - self.d_ratio * v[pivot]
        den = self.dsums[chain]
        ratios = np.divide(lov.table[chain], den, out=np.full(lov.n, math.inf),
                           where=den > 0)
        k = int(ratios.argmin())
        if ratios[k] < self.best:
            self.best = float(ratios[k])
            self.best_mask = int(chain[k])
        return val, grad


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


# ---------------------------------------------------------------------------
# Analytic-center cutting-plane engine


@dataclass
class CutEngineState:
    """Where the engine stopped, with its bracket best_value - lower_bound.

    converged means the bracket closed on the engine's target, half the gap
    1/(D+ d(B)) of the best set B (`ReducedProblem.tight_gap`), so f(B)/d(B)
    is lambda*, the other half being slack for the floats, and Newton's
    exact pass confirms it.

    best_value is the best vertex ratio the engine took from its
    `ReducedProblem`, whose `best_mask` names the set; the point where the
    extension reads it is that set's vertex 1_S/d(S).  The problem's seed is
    the singleton bound u, so best_value never exceeds float(u).

    lower_bound is the engine's float bound on lambda*, capped at
    best_value.  The float bound can overshoot lambda* by its rounding: the
    first cut of IntervalGeometric(5) with d = (8, -9, -5, 0, 0) bounds
    0.5000000000034 against lambda* = best_value = 0.5.  So the cap keeps
    the bracket [lower_bound, best_value] nonempty, and where best_value
    reads lambda* the bracket holds it; elsewhere lower_bound may still sit
    above lambda* by that rounding.  certified_gap is best_value minus the
    uncapped bound, clamped at 0.

    Every `solve_dual` trace is one of these, also where the engine never
    runs.  A ratio 0 among the singletons, E or z_init's chain is a
    converged 0-cut state with best_value = lower_bound = 0; at n = 1 it is
    one with best_value = lower_bound = u.  A half-ladder target at or below
    the float resolution is a stalled 0-cut state whose best_value is
    Newton's exact start in floats (inf past float64 range) and whose
    lower_bound is the floor 0.  The box and
    the hyperplane are barrier rows, never cuts, so every query is an
    objective cut: `objective_cuts` is `iterations` and `feasibility_cuts`
    is 0, both read-only.
    `newton_steps` counts the centering steps of all queries together.
    """

    best_value: float
    lower_bound: float
    certified_gap: float
    iterations: int
    converged: bool
    stalled: bool = False
    newton_steps: int = 0

    @property
    def feasibility_cuts(self) -> int:
        return 0

    @property
    def objective_cuts(self) -> int:
        return self.iterations


def float_resolution(n: int, m_bound) -> float:
    """Absolute error up to which the floats know a value of the objective.

    phi(z) is the dot product of the lifted point x with the greedy
    marginals: n products, each marginal a difference of two table values
    of size at most M, so |marginal| <= 2M.  The dot-product error bound
    n * 2^-53 * sum_i |x_i| |marginal_i|, with |x_i| <= 1 in the unit search
    box, is n * 2^-53 * n * 2M = 2^-52 * n^2 * M (the roundoff of the table
    entries themselves adds a lower-order 2^-52 * n * M).  An engine asked
    for a gap at or below this could not certify it, so `solve_dual` runs
    no engine where it reaches eps/2, the smallest gap the engine asks for.
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
_RESTART = 0.8      # a restart goes at most this share of the way to a row


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


def _cut_row(z: np.ndarray, v: float, g: np.ndarray, scale: float):
    """The cut g.z' - t <= g.z - v of a query at z, with phi divided by
    scale, as a unit row over y = (z', t): (row, right-hand side)."""
    g = g / scale
    nrm = math.sqrt(float(g @ g) + 1.0)
    row = np.empty(len(g) + 1)
    row[:-1] = g / nrm
    row[-1] = -1.0 / nrm
    return row, (float(g @ z) - v / scale) / nrm


def _cut_bound(wA: np.ndarray, wb: float, hi: np.ndarray, a) -> float:
    """Lower bound on phi from cut rows weighted by w >= 0, given as their
    sums wA = w.A and wb = w.b: with W = -wA_t > 0 they say
    t >= (wA_z.z - wb) / W, a convex combination of the cuts' minorants of
    phi, minimized over Z exactly by `_box_min`."""
    W = -float(wA[-1])
    return _box_min(wA[:-1] / W, hi, a) - wb / W


def cutting_plane_minimize(prob: ReducedProblem) -> CutEngineState:
    """Minimize the reduced objective phi = prob over the dual domain by
    ACCPM, to a certified gap.

    The target is the problem's rule, `prob.tight_gap()`: half the gap
    1/(D+ d(B)) of the best set B, read again after every query, since B
    may change.  That is at least eps/2, eps = 1/||d||_1^2 the ladder
    spacing, and the iterates do not depend on the target, so the rule
    stops at the cut a fixed eps/2 target stops at, or sooner.

    The precondition is the one `solve_dual` establishes before it builds
    the problem: n >= 2, a seed u > 0, and a float resolution of phi
    (`float_resolution`) below eps/2, so every target the rule sets can be
    certified.  The engine makes no decision before its first query.

    The domain is Z = {0 <= z <= prob.hi, d_rest.z <= 1}; its minimum is
    lambda*, so the engine brackets lambda* between its lower bound lb,
    which starts at 0 (f >= 0), and best, the best vertex ratio
    `prob.best` (`prob.best_mask` names its set): the problem's seed, the
    singleton bound u, until a query's chain beats it.  So the bracket
    starts at [0, u].  The first query is z_init = 1/(2 ||d||_1) in every
    coordinate, strictly inside Z.

    Epigraph form over y = (z, t): the box and the hyperplane are barrier
    rows, one row t <= best holds the best value found, and every query z_j
    adds the cut g_j.z - t <= g_j.z_j - phi_j.  The next query is the z part
    of the localizer's analytic center, inside Z, since `_center` returns a
    center only with every slack positive, the box and hyperplane rows
    included (those are never shifted).  The lower bound weights the cuts by
    their centering duals, a convex combination of minorants of phi, and
    minimizes it over Z exactly (`_cut_bound`); any nonnegative weights
    give a valid bound, so inexact centering can only weaken it.

    Each centering restarts from the previous center y, with H its Newton
    matrix.  A new cut a cuts y off by a median of about ten Dikin widths
    sqrt(a H^-1 a), so y first moves along u = -H^-1 a / sqrt(a H^-1 a),
    the direction that lowers a.y fastest within the Dikin ellipsoid of y,
    by alpha = min(violation / width + _SHIFT, _RESTART t_max): until the
    cut clears it by half a width, or 4/5 of t_max, the largest step that
    keeps every other row's slack positive, if that comes first.  So every
    other row keeps at least a fifth of its slack, and its barrier term
    rises by at most ln 5 per unit weight: the start stays well inside the
    old rows, since a start against one makes the first Newton steps short.
    Then a row the start violates or nearly touches (the new cut, the t row
    after best improved) enters shifted outward to clear it by half a Dikin
    width: a shifted row is a weaker but still valid row, so every Newton
    start is strictly feasible, up to rounding, and close to the new center,
    and the row returns toward its true place at later centers.  One solve
    with H gives both u and the shifted rows' widths.

    phi is divided by max(1, |phi(z_init)|) inside.  The exits, in order:
    - converged with 0 cuts when the bound of z_init's own cut closes the
      bracket.  The cut budget is read, and the cut matrix (cap + 2m + 3
      rows at most, of m + 1 entries) and the barrier rows are allocated,
      only past this exit;
    - converged once best - lb is at most the target; stalled when neither
      best nor lb moves for a window of cuts or a centering fails (callers
      restore exactness by rounding); past `prob.cut_cap` cuts, of order
      m ln(kappa), it raises IterationCapExceeded carrying the state.
    """
    m = prob.omega_dim
    it = newton = 0
    converged = stalled = False
    hi = prob.hi
    # the hyperplane row d_rest.z <= 1 binds only where d_rest is nonzero
    a = prob.d_row if any(prob.d_rest) else None
    z0 = np.full(m, 1.0 / (2.0 * prob.direction.norm1))
    v0, g0 = prob(z0)
    scale = max(1.0, abs(float(v0)))
    best = prob.best / scale
    tgt = prob.tight_gap() / scale  # the best set's half gap, in units of phi
    row0, rhs0 = _cut_row(z0, float(v0), g0, scale)
    lb = max(0.0, _cut_bound(row0, rhs0, hi, a))

    def state() -> CutEngineState:
        return CutEngineState(best * scale, min(lb, best) * scale,
                              max(0.0, best - lb) * scale, it, converged,
                              stalled, newton)

    if best - lb <= tgt:
        converged = True
        return state()

    # rows of A y <= b over y = (z, t), each scaled to unit norm: -z_i <= 0,
    # z_i <= u_i, then a.z <= 1, then t <= best, then one row per cut
    cap = prob.cut_cap
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

    def add_cut(row, rhs):
        nonlocal k
        A[k], b_true[k], b[k] = row, rhs, math.inf
        k += 1

    def shift(rows, y, width):
        # a row y does not clear by _SHIFT Dikin widths moves out to do so,
        # never inside its true place and never further out than before, so
        # y stays strictly feasible and Newton starts near the new center
        b[rows] = np.minimum(b[rows], np.maximum(b_true[rows],
                                                 A[rows] @ y + _SHIFT * width))

    def restart(y, s, H):
        # the rows off their true place, the new cut a last (its b is inf),
        # and their Dikin widths at the center y with slacks s, from one
        # solve; y then moves along u = -H^-1 a / width (see the docstring)
        rows = np.flatnonzero(b[:k] > b_true[:k])
        Ar = A[rows]
        hinv = np.linalg.solve(H, Ar.T)
        width = np.sqrt(np.einsum("ij,ji->i", Ar, hinv))
        u = hinv[:, -1] / -width[-1]
        Au = A[:k - 1] @ u
        ahead = Au > 0.0
        reach = float((s[ahead] / Au[ahead]).min()) if ahead.any() else math.inf
        violation = float(Ar[-1] @ y) - b_true[k - 1]
        step = min(violation / width[-1] + _SHIFT, _RESTART * reach)
        if step > 0.0:
            y = y + step * u
        shift(rows, y, width)
        return y

    add_cut(row0, rhs0)
    # z_init is strictly inside Z; the t row and the first cut start
    # shifted to clear (z_init, best), by _SHIFT of a width 1 before any
    # center has a Newton matrix
    y = np.append(z0, best)
    b[t_row] = math.inf
    omega = np.ones(len(b))
    shift(np.array([t_row, k - 1]), y, 1.0)
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
        w = 1.0 / s[n_fixed:]
        lb = max(lb, _cut_bound(w @ A[n_fixed:k], float(w @ b_true[n_fixed:k]),
                                hi, a))
        if best - lb <= tgt:
            break
        z = y[:m]
        v, g = prob(z)
        v = float(v)
        it += 1
        if prob.best / scale < best:
            best = prob.best / scale
            b_true[t_row] = best
        tgt = prob.tight_gap() / scale
        add_cut(*_cut_row(z, v, g, scale))
        y = restart(y, s, H)
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


def _start_sets(d: Direction):
    """E, then the sets strictly between the pivot's singleton and E on the
    greedy chain of the engine's first query z_init.

    z_init puts 1/(2 ||d||_1) on every coordinate but the pivot's, and the
    lifted pivot coordinate exceeds that by (2 ||d||_1 - d(E)) /
    (2 ||d||_1 d_pivot) >= 1/(2 d_pivot) > 0.  So the chain is the pivot,
    then the other elements in ascending index (ties by index, as
    `greedy_order`).  The pivot is found only once E is consumed.
    """
    full = (1 << d.n) - 1
    yield full
    pivot = _pivot(d)
    mask = 1 << pivot
    for i in range(d.n):
        if i != pivot:
            mask |= 1 << i
            if mask == full:
                return
            yield mask


def _chain_bound(f: SubmodularOracle, d: Direction, u: Fraction) -> Fraction:
    """The smallest of u and the exact ratios f(S)/d(S), d(S) > 0, over
    `_start_sets`: E, then the n - 2 sets strictly inside z_init's chain,
    whose first set is the pivot's singleton, which u already bounds.
    Reads stop at the first ratio 0, which is lambda* (f >= 0): u = 0
    reads nothing.
    """
    num, den = u.numerator, u.denominator
    if num == 0:
        return u
    for s in _start_sets(d):
        ds = d.of(s)
        if ds > 0:
            v = f.eval(s)
            if v * den < num * ds:
                num, den = v, ds
                if num == 0:
                    break
    return Fraction(num, den)


def solve_dual(f: SubmodularOracle, d: Direction) -> LineSearchResult:
    """Full pipeline: cut until the best set is proven tight, round on the
    best chain, Newton-confirm.

    The engine stops once the best vertex ratio f(B)/d(B) is within half of
    1/(D+ d(B)) of its lower bound on lambda*, D+ = max_S d(S): every ratio
    below f(B)/d(B) is at least 1/(D+ d(B)) below it, so the best ratio is
    then lambda* and Newton confirms it in zero steps
    (`ReducedProblem.tight_gap`).  Float state is built only for a solve
    that will cut: this is the one gate in front of the engine, whose
    precondition it establishes.  The exits, in order, the first four
    without float state:

    1. The seed: the singleton scan gives the upper bound u and its
       singleton, and E is read when d(E) > 0.  A ratio 0 (u = 0, or
       f(E) = 0 < d(E), the lambda* = 0 of a cut function that no
       singleton shows) is lambda* = 0.
    2. z_init's greedy chain, read exactly (`_chain_bound`): the pivot,
       then the other elements ascending, at most n - 2 new reads
       (`_start_sets`).  A ratio 0 again closes with lambda* = 0.  After
       exits 1 and 2 Newton confirms 0 in one kernel pass, and the trace
       is a converged `CutEngineState` with 0 cuts.
    3. The float resolution of the extension is at or above eps/2,
       eps = 1/||d||_1^2 the ladder spacing, the smallest target the
       engine can set: it could not certify it.  Newton starts from the
       best exact ratio of 1 and 2, and the trace is a stalled 0-cut
       state.  Every f or d without a float image has M or ||d||_1 past
       float64 range and ends here.
    4. n = 1: the one singleton's u is lambda*, and the trace is a
       converged 0-cut state with best_value = lower_bound = u.
    5. Otherwise one `ReducedProblem`, seeded with (u, its singleton),
       holds the whole dual problem, and `cutting_plane_minimize` runs on
       it: it returns converged with 0 cuts when its first cut's bound
       closes the bracket, before it allocates its cut matrix, and cuts
       otherwise.  Newton starts from the exact ratio of the problem's
       best set: the seed singleton's u, unless a chain set beat it in
       floats.

    No `ReducedProblem` (so no `DenseLovasz`) is built before exit 5.
    Returns the exact intersection; the engine phase only warms up
    Newton, so a stalled or capped engine degrades iteration counts, not
    correctness.
    """
    before = f.calls
    u, u_mask = _singleton_bound(f, d)
    lam0, cuts = _chain_bound(f, d, u), 0
    if lam0 == 0:
        # f >= 0, so lambda* >= 0: a ratio 0 is lambda*
        state = CutEngineState(0.0, 0.0, 0.0, 0, True)
    elif float_resolution(d.n, f.m_bound) >= float(ladder_spacing(d) / 2):
        try:
            top = float(lam0)
        except OverflowError:  # a start past float64 range
            top = math.inf
        state = CutEngineState(top, 0.0, top, 0, False, stalled=True)
    elif d.n == 1:
        # the reduced domain is the one singleton's vertex: lam0 = u is
        # lambda*, in float range past exit 3
        state = CutEngineState(float(lam0), float(lam0), 0.0, 0, True)
    else:
        prob = ReducedProblem(f, d, u, u_mask)
        try:
            state = cutting_plane_minimize(prob)
        except IterationCapExceeded as exc:
            state = exc.state  # rounding below restores exactness regardless
        cuts = state.iterations
        mask = prob.best_mask
        lam0 = Fraction(f.eval(mask), d.of(mask))
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
    `engine_iterations` is 0 and `sfm_calls` is 1.
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
    return _result(f, d, lam, full, "base", oracle_calls=f.calls - before,
                   sfm_calls=1)


def verify_lifting(f: SubmodularOracle, d: Direction, c: int) -> bool:
    """Check by enumeration that lifting with constant c preserves the optimum.

    Left side: max lambda_1 with lambda_1 (d, 0) + lambda_2 e_{n+1} in the
    base polytope of `lift(f, c)`, where the base equality forces
    lambda_2 = f(E) - lambda_1 d(E).  Translating the lifted function by
    f(E) e_{n+1} turns that into the line search of g along
    dg = (d, -d(E)): lambda_1 is feasible iff lambda_1 dg lies in P(g).  The
    smallest ratio g(S)/dg(S) over dg(S) > 0 is the largest candidate, and
    it is the answer iff the envelope of g is nonnegative there (no
    constraint with dg(S) <= 0 cuts it off).  Right side: the polymatroid
    intersection.  Equality is guaranteed for c > max|f| * ||d||_1 and may
    fail below; c <= 0 is a ValueError, as in `lift`.
    """
    if f.n > 10:
        raise GroundSetTooLarge("lifting verification is capped at n = 10")
    full = SubsetMask.full(f.n)
    g = translate(lift(f, c), (0,) * f.n + (f.eval(full),))
    dg = Direction(d.d + (-d.of(full),))
    left = bruteforce_linesearch(g, dg).lambda_star
    return (envelope(g, dg, left)[0] >= 0
            and left == bruteforce_linesearch(f, d).lambda_star)
