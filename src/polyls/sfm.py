"""Submodular function minimization: exact enumeration and Fujishige-Wolfe.

Every oracle has n <= TABLE_N_CAP, so minimization enumerates the dense
table.  The solvers only ever minimize q*f - p*d for a rational lambda = p/q
and a direction d; `minimizers_minus_modular`, the one kernel entry, does
that straight from f's table and d's cached subset sums, exactly.  One
compare first cuts the table to its level set {S : f(S) <= P // q},
P = max_S p*d(S), which holds every minimizer.  The pass over it is int64
wherever a bound on the values it reads fits, on a big-int table too; only
where it does not does a float filter stand in front of a big-integer
pass.  The level set shrinks as lambda falls to 0, so only a solve's first
pass compares the whole table: it hands its level set on, and each later
pass at lambda >= 0 reads the level set of a larger lambda that a pass
before it handed back.  The kernel keeps no state: a pass computes on
arrays it allocates itself, writes into none it reads (the oracle's table
and the direction's sums are read-only), and holds no memory once it
returns, so concurrent passes need no lock.  `minimize` is the one
enumeration of a built oracle's table; `membership` and `minimize_mnp`
read their answers from it.  The minimum-norm-point solver `minimize_mnp`
is a library call kept as an independent cross-check of the minimum value.
Wolfe's loop runs in floats but never decides alone: the two level sets of
its point are re-evaluated through the integer oracle and a rational convex
combination of exact greedy vertices provides a lower bound, so a duality
gap below 1 certifies the value by integrality.  A float point does not pin
the minimal and maximal minimizers down, so those always come from
`minimize`, and so does the value when certification fails.

References: Wolfe, Math. Prog. 1976; Fujishige, Math. Oper. Res. 1980;
Fujishige-Hayashi-Isotani, RIMS 1571; Chakrabarty-Jain-Kothari,
arXiv:1411.0095.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .errors import InvariantViolation
from .lovasz import DenseLovasz, greedy_vertex
from .oracles import Direction, SubmodularOracle, scale_minus_modular
from .subsets import SubsetMask, table_dtype

_W_TINY = 1e-12          # barycentric weights below this are dropped
_MNP_FLOAT_CAP = 1 << 50  # float marginals are unreliable past this magnitude


@dataclass
class SfmResult:
    min_value: object
    minimal_minimizer: SubsetMask
    maximal_minimizer: SubsetMask
    certified: bool
    method: str
    oracle_calls: int = 0
    major_cycles: int = 0
    norm_history: list = field(default_factory=list)

    def __post_init__(self):
        if not self.minimal_minimizer.issubset(self.maximal_minimizer):
            raise InvariantViolation("minimal minimizer not inside maximal")


@dataclass
class MembershipResult:
    inside: bool
    violating_set: SubsetMask | None
    margin: Fraction  # min_S (f(S) - y(S)); negative outside


def _table_min(table, masks=None):
    """(min value, AND of minimizers, OR of minimizers, minimizers) over a
    dense table, or over the sets `masks` when `table` holds only their
    values; minimizers is the ascending array of every minimizer's mask.

    By submodularity the minimizers form a lattice, so the AND/OR reductions
    are themselves minimizers: the unique minimal and maximal ones.
    """
    best = table.item(int(table.argmin()))
    where = (table == best).nonzero()[0]
    if masks is not None:
        where = masks[where]
    if where.size == 1:  # the common case, without two ufunc reductions
        m = int(where[0])
        return best, m, m, where
    return (best, int(np.bitwise_and.reduce(where)),
            int(np.bitwise_or.reduce(where)), where)


_FILTER_SCALE = 2.0 ** -50  # 8u with u = 2^-53, the float64 unit roundoff


def _level(f: SubmodularOracle, q: int, p: int, d: Direction,
           within: np.ndarray | None) -> tuple[np.ndarray | None, int]:
    """(masks, top) of the level set: the sets S among `within` (every set
    when None) with f(S) <= P // q, P = max_T p*d(T), as ascending masks (on
    a big-int table, a superset of them read off the float image), or
    `within` itself where the compare cannot cut; top is a proven upper
    bound on f over those masks, M = f.m_bound where the compare cannot cut
    (see `minimizers_minus_modular`).  No value is read through the oracle,
    so f.calls is not charged."""
    t = (p * d.positive_sum if p >= 0 else -p * d.negative_sum) // q
    if t >= f.m_bound:
        return within, f.m_bound
    table, top = f.dense_table(), t
    if table.dtype == object:
        table = f.float_table
        if table is None:
            return within, f.m_bound
        try:
            t = float(t)
        except OverflowError:
            return within, f.m_bound
        top = 2 * top + 1
    if within is None:
        return (table <= t).nonzero()[0], top
    return within[table[within] <= t], top


def _float_candidates(f: SubmodularOracle, q: int, p: int, d: Direction,
                      masks: np.ndarray | None) -> np.ndarray | None:
    """The sets among `masks` (every set when None) that may minimize
    q*f - p*d, by one float64 pass, or `masks` itself when the floats cannot
    bound the error (see `minimizers_minus_modular`).  The kernel calls it
    only where its int64 bound fails, so it runs in front of a big-integer
    pass and never in front of an int64 one.  It gathers the sets it reads
    from the read-only float images and computes in three fresh arrays of
    their size."""
    table, sums = f.float_table, d.float_sums
    if table is None or sums is None:
        return masks
    try:
        qf, pf = float(q), float(p)
    except OverflowError:
        return masks
    if masks is not None:
        table, sums = table[masks], sums[masks]
    hf, err, b = np.empty((3, table.size))
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(table, qf, out=hf)
        np.abs(hf, out=err)
        np.multiply(sums, pf, out=b)
        hf -= b
        err += np.abs(b, out=b)
        err *= _FILTER_SCALE
    if not err.max() < math.inf:
        return masks
    top = np.add(hf, err, out=b).min()
    hf -= err
    keep = (hf <= top).nonzero()[0]
    return keep if masks is None else masks[keep]


def minimizers_minus_modular(f: SubmodularOracle, q: int, p: int, d: Direction,
                             within: np.ndarray | None = None
                             ) -> tuple[int, int, int, np.ndarray,
                                        np.ndarray | None]:
    """One exact pass of h(S) = q*f(S) - p*d(S), for integers q >= 1 and p:
    (min value, minimal minimizer, maximal minimizer, minimizers, level set),
    the sets as bit masks, minimizers the ascending array of every set
    attaining the minimum, and the level set the ascending masks of C (below)
    that the pass read, or None when it read every set.  Discrete Newton
    reads its tie-break off the minimizers: when the minimum is 0, the
    minimal set among the zero sets of largest d(S) is the minimal minimizer
    just right of lambda = p/q (`discrete_newton`).

    h is never built as an oracle: the values come from f's table and d's
    cached subset sums `d.sums`, and only on the sets of the level set C
    (below).  The pass takes its exact dtype from the values it reads, not
    from the table's dtype.  Every f(S) it reads lies between min f
    (`f.min_value`, at most 0) and the ceiling `top` of C (below), so
    |f(S)| <= B = max(top, -min f), and each of q*f(S), p*d(S) and h(S) is
    at most q*B + |p|*||d||_1 in magnitude.  When q*B + |p|*||d||_1 + q lies
    below the int64 bound of `table_dtype` (the q term keeps q itself there
    when B = 0) and `d.sums` is int64, the values on C are taken as int64,
    from a big-int table too, and h on C is one exact int64 pass.
    Otherwise (C not cut on a big-int table, or a large t, q, -min f or
    |p|*||d||_1) one float64 pass over C in the float images
    `f.float_table` and `d.float_sums` keeps as candidates the sets S with
    hf(S) - e(S) <= min_T (hf(T) + e(T)), and exact Python ints decide
    among them.  So the dtype follows from (q, p, t, min f, ||d||_1) alone:
    there is no size threshold, and at worst every set is a candidate,
    which costs one exact pass.  The pass gathers the sets it decides on
    once (C on the int64 pass, the filter's candidates on the exact one)
    and writes only into arrays it allocates: f's table and `d.sums` are
    read-only, and a pass over every set reads them whole and computes h
    in fresh 2^n arrays.

    The level-set bound.  h(empty) = 0, since f(empty) = 0 for every oracle,
    so every minimizer S has q*f(S) <= p*d(S) <= P = max_T p*d(T), which is
    p*D+ for p >= 0 and |p|*D- for p < 0 (D+ = `d.positive_sum`, the sum of
    d's positive entries; D- = `d.negative_sum`, the magnitudes of its
    negative ones).  f is integral and q >= 1, so f(S) <= t = P // q, and
    every minimizer lies in C = {S : f(S) <= t}; no sign of f or p is
    assumed, and t >= 0.  An int64 table is compared with t exactly, so
    top = t.  A big-int table is compared through its float image,
    fl(f(S)) <= fl(t): by monotone rounding that keeps a superset of C, and
    every set it keeps has f(S) <= 2t + 1, since f(S) >= 2t + 2 gives
    fl(f(S)) >= fl(2t + 2) = 2 fl(t + 1) > fl(t + 1) >= fl(t), as
    fl(t + 1) >= 1.  So there top = 2t + 1.  C is not cut, every set is
    read and top = M = f.m_bound, when t >= M (C is the whole table), when
    f has no float image (an entry past float64 range), or when t is past
    it.  So the minimum over C is min h, and its minimizers there are all
    of h's.

    The carried level set.  `within`, when given, must be ascending masks
    that hold C; the compare then reads only those sets (`_level`), and
    where it cannot cut it keeps `within` as it is.  A solve has such a
    superset at hand: for 0 <= p'/q' <= p/q, P' // q' = floor(p' D+ / q')
    <= P // q, so C(p'/q') lies inside C(p/q), and so does its float-image
    version, since rounding is monotone.  So the level set a pass hands back
    at lambda >= 0 may be passed as `within` to every later pass at a
    smaller lambda >= 0; `discrete_newton` and `binary_search` do that.  It
    does not hold below 0: there P is |p|*D-, which grows as lambda falls.

    The filter bound.  Let u = 2^-53.  Rounding to float64 gives
    F = f(S)(1 + d1), D = d(S)(1 + d2), qf = q(1 + d3) and pf = p(1 + d4),
    and each float operation adds one more factor (1 + d), all |d_k| <= u.
    So the products are a = q f(S)(1 + t) and b = p d(S)(1 + t') with
    |t|, |t'| <= g3 = 3u/(1 - 3u), and hf = (a - b)(1 + d5).  Hence

        |hf - h(S)| <= g3 (q|f(S)| + |p||d(S)|) + u(|a| + |b|)
                     <= (g3/(1 - g3) + u)(|a| + |b|) < 4.1u (|a| + |b|),

    and the computed e(S) = fl(2^-50 fl(|a| + |b|)) >= 8u(1 - u)(|a| + |b|)
    exceeds it.  In terms of the exact values,
    e(S) <= 8.1u (q|f(S)| + |p| sum_{i in S} |d_i|): the
    c n 2^-53 (q|f(S)| + |p| sum_{i in S} |d_i|) form with c n = 8.1, no
    factor n because `d.float_sums` rounds each exact sum d(S) once instead
    of adding n rounded entries.

    Every minimizer S* then has hf(S*) - e(S*) <= h(S*) <= h(T) <=
    hf(T) + e(T) for every T, and rounding is monotone, so the float test
    keeps every minimizer of C: the exact minimum over the candidates is
    min h, and its minimizers there are all of h's.  An entry past float64
    range (an image is None), a q or p past it, or a non-finite e(S) (an
    overflow to inf) leaves the floats nothing to bound, and the exact pass
    runs over all of C.  f.calls is not charged: no value is read through
    the oracle.
    """
    table, sums = f.dense_table(), d.sums
    level, top = _level(f, q, p, d, within)
    masks = level
    bound = q * max(top, -f.min_value) + abs(p) * d.norm1 + q
    fits = table_dtype(bound) is np.int64 and sums.dtype == np.int64
    if not fits:
        masks = _float_candidates(f, q, p, d, masks)
    if masks is not None:
        table, sums = table[masks], sums[masks]
    if fits:
        h = table.astype(np.int64, copy=False) * q
        h -= sums * p
    else:
        h = q * table.astype(object) - p * sums.astype(object)
    best, and_mask, or_mask, where = _table_min(h, masks)
    for m in {and_mask, or_mask}:
        if q * f.dense_table().item(m) - p * d.sums.item(m) != best:
            raise InvariantViolation(
                "minimizers not closed under union/intersection")
    return best, and_mask, or_mask, where, level


def minimize(f: SubmodularOracle) -> SfmResult:
    """Exact submodular minimization of any oracle by enumerating its table.

    The minimizers of a submodular function form a lattice, so the AND and
    OR of every minimizer are the minimal and maximal minimizers; both are
    checked against the table, and a table where they are not minimizers
    (f is not submodular) raises InvariantViolation.  No solver calls it:
    every solver minimizes through `minimizers_minus_modular`.  `membership`
    and `minimize_mnp` read their answers from it.
    """
    before = f.calls
    table = f.dense_table()
    best, and_mask, or_mask, _ = _table_min(table)
    if table[and_mask] != best or table[or_mask] != best:
        raise InvariantViolation("minimizers not closed under union/intersection")
    return SfmResult(best, SubsetMask(and_mask, f.n), SubsetMask(or_mask, f.n),
                     certified=True, method="bruteforce",
                     oracle_calls=f.calls - before)


def _affine_minimizer(V: np.ndarray):
    """Affine minimizer of the hull of the rows of V, as (coeffs, point)."""
    k = V.shape[0]
    M = np.empty((k + 1, k + 1))
    M[0, 0] = 0.0
    M[0, 1:] = 1.0
    M[1:, 0] = 1.0
    M[1:, 1:] = V @ V.T
    rhs = np.zeros(k + 1)
    rhs[0] = 1.0
    sol = np.linalg.solve(M, rhs)
    b = sol[1:]
    return b, b @ V


def _mnp_value(f: SubmodularOracle) -> tuple[int | None, int, list]:
    """(certified minimum or None, major cycles, norm history) of Wolfe's
    algorithm on f; see `minimize_mnp`."""
    n = f.n
    if f.m_bound > _MNP_FLOAT_CAP:
        # float marginals cannot certify an integrality gap < 1 here
        return None, 0, []

    lov = DenseLovasz(f)
    tol = 1e-10 * max(1.0, n * float(f.m_bound))

    def min_vertex(x):
        # the greedy vertex minimizing <x, v>, and its order
        _, v, _ = lov.value_subgrad(-x)
        return v, tuple(int(i) for i in lov._order(-x))

    v0, order0 = min_vertex(np.zeros(n))
    V = v0.reshape(1, n)
    orders = [order0]
    w = np.array([1.0])
    x = v0.copy()

    cap = 10 * n ** 3 + 1000
    majors = 0
    norms = [float(x @ x)]
    converged = False
    while majors < cap:
        majors += 1
        q, q_order = min_vertex(x)
        gap = float(x @ x - x @ q)
        if gap <= tol:
            converged = True
            break
        if q_order in orders:
            break  # no new vertex to add: float stall
        V = np.vstack([V, q])
        orders.append(q_order)
        w = np.append(w, 0.0)
        while True:
            try:
                b, y = _affine_minimizer(V)
            except np.linalg.LinAlgError:
                keep = int(np.argmin(np.einsum("ij,ij->i", V, V)))
                V = V[keep:keep + 1]
                orders = [orders[keep]]
                w = np.array([1.0])
                x = V[0].copy()
                break
            if b.min() >= -_W_TINY:
                w = np.clip(b, 0.0, None)
                x = y
                break
            shrink = w - b
            idx = shrink > _W_TINY
            theta = float(np.min(w[idx] / shrink[idx]))
            theta = min(max(theta, 0.0), 1.0)
            w = theta * b + (1.0 - theta) * w
            keep = w > _W_TINY
            if not keep.any():
                keep[int(np.argmax(w))] = True
            V = V[keep]
            orders = [o for o, k in zip(orders, keep) if k]
            w = w[keep]
            w /= w.sum()
            x = w @ V
        norms.append(float(x @ x))

    if not converged:
        return None, majors, norms

    # exact certification: rationalize the barycentric weights over exact
    # integer vertices, so x_rat is exactly in the base polytope
    w_rat = [Fraction(max(float(wj), 0.0)) for wj in w]
    total = sum(w_rat)
    if total == 0:
        w_rat = [Fraction(1)] + [Fraction(0)] * (len(w_rat) - 1)
        total = Fraction(1)
    w_rat = [wj / total for wj in w_rat]
    exact_vs = [greedy_vertex(f, o) for o in orders]
    x_rat = [sum(wj * vj[i] for wj, vj in zip(w_rat, exact_vs)) for i in range(n)]
    lower = sum(min(xi, 0) for xi in x_rat)

    smin = sum(1 << i for i, xi in enumerate(x_rat) if xi < 0)
    smax = sum(1 << i for i, xi in enumerate(x_rat) if xi <= 0)
    best = min(f.eval(smin), f.eval(smax))
    # within 1 of a valid lower bound, best is exact by integrality
    return (best if Fraction(best) - lower < 1 else None), majors, norms


def minimize_mnp(f: SubmodularOracle) -> SfmResult:
    """Fujishige-Wolfe minimum-norm-point minimization with an exact
    certificate of the minimum value.

    A library cross-check of `minimize`; no solver calls it.  Wolfe's loop
    runs in floats.  When it converges, the level sets {x < 0} and
    {x <= 0} of its point are read through the integer oracle, and the
    smaller value is certified when it lies within 1 of sum_e min(x_e, 0)
    for the exact point x that the loop's weights make of the exact greedy
    vertices: that sum bounds min f from below, so by integrality the value
    is the minimum (method "mnp").  A certified value that differs from
    enumeration's minimum raises InvariantViolation.  Past
    `_MNP_FLOAT_CAP`, at the cycle cap, on a float stall or with a gap of
    1 or more, the value is enumeration's (method "mnp+bruteforce").

    Either way the minimal and maximal minimizers are those of `minimize`:
    a float min-norm point does not pin them down, only the exact point's
    level sets do (Fujishige, Math. Oper. Res. 1980).
    """
    before = f.calls
    best, majors, norms = _mnp_value(f)
    ref = minimize(f)
    if best is not None and best != ref.min_value:
        raise InvariantViolation(
            f"certified minimum {best} is not the minimum {ref.min_value}")
    return replace(ref, method="mnp+bruteforce" if best is None else "mnp",
                   oracle_calls=f.calls - before, major_cycles=majors,
                   norm_history=norms)


def membership(f: SubmodularOracle, y) -> MembershipResult:
    """Is the rational point y inside {x : x(S) <= f(S) for all S}?

    Decided exactly by scaling y to integers and minimizing the integral
    oracle q*f - q*y; a violating set is returned when outside.
    """
    y = [Fraction(v) for v in y]
    if len(y) != f.n:
        raise ValueError("point length does not match ground set")
    q = math.lcm(*[v.denominator for v in y]) if y else 1
    w = [int(v * q) for v in y]
    scaled = scale_minus_modular(f, q, w)
    res = minimize(scaled)
    margin = Fraction(res.min_value, q)
    if margin >= 0:
        return MembershipResult(True, None, margin)
    return MembershipResult(False, res.minimal_minimizer, margin)
