"""Submodular function minimization: exact enumeration and Fujishige-Wolfe.

Every oracle has n <= TABLE_N_CAP, so minimization enumerates the dense
table.  The solvers only ever minimize q*f - p*d for a rational lambda = p/q
and a direction d; `minimize_minus_modular` does that straight from f's table
and d's cached subset sums, exactly, with a float filter in front of the
big-integer pass.  `minimize` enumerates any oracle.  The minimum-norm-point
solver `minimize_mnp` is a library call kept as an independent cross-check.  It
runs in floats but never decides alone: the candidate sets it extracts are
re-evaluated through the integer oracle and a rational convex combination of
exact greedy vertices provides a lower bound, so a duality gap below 1
certifies exactness by integrality.  When certification fails it falls back
to enumeration.

References: Wolfe, Math. Prog. 1976; Fujishige-Hayashi-Isotani, RIMS 1571;
Chakrabarty-Jain-Kothari, arXiv:1411.0095.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvariantViolation
from .lovasz import DenseLovasz
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
    """(min value, AND of minimizers, OR of minimizers) over a dense table,
    or over the sets `masks` when `table` holds only their values.

    By submodularity the minimizers form a lattice, so the AND/OR reductions
    are themselves minimizers: the unique minimal and maximal ones.
    """
    best = table.item(int(table.argmin()))
    where = np.flatnonzero(table == best)
    if masks is not None:
        where = masks[where]
    return (best, int(np.bitwise_and.reduce(where)),
            int(np.bitwise_or.reduce(where)))


_FILTER_SCALE = 2.0 ** -50  # 8u with u = 2^-53, the float64 unit roundoff


class _Scratch(threading.local):
    """One thread's three work buffers, grown to the largest n asked for,
    and the typed views of them handed out so far."""

    def __init__(self):
        self.size = 0
        self.views = {}


_scratch = _Scratch()


def _work(n: int, dtype) -> list[np.ndarray]:
    """Three arrays of 2^n entries of the 8-byte `dtype`, views of this
    thread's scratch buffers.

    The kernel's 2^n passes write into these instead of fresh arrays.  At
    n = 14 a fresh array is 128 KiB, which malloc maps, or grows the heap
    for, anew on each call; its pages then fault on first write (about 15
    faults per kernel call in a Newton solve), so the call's time would
    follow the host's page-fault cost.
    """
    views = _scratch.views.get((n, dtype))
    if views is None:
        size = 8 << n
        if _scratch.size < size:
            _scratch.bufs = [np.empty(size, np.uint8) for _ in range(3)]
            _scratch.size = size
            _scratch.views.clear()
        views = [b[:size].view(dtype) for b in _scratch.bufs]
        _scratch.views[n, dtype] = views
    return views


def _float_candidates(f: SubmodularOracle, q: int, p: int,
                      d: Direction) -> np.ndarray | None:
    """The sets that may minimize q*f - p*d, by one float64 pass, or None
    when the floats cannot bound the error (see `minimize_minus_modular`)."""
    table, sums = f.float_table, d.float_sums
    if table is None or sums is None:
        return None
    try:
        qf, pf = float(q), float(p)
    except OverflowError:
        return None
    hf, err, b = _work(f.n, np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(table, qf, out=hf)
        np.abs(hf, out=err)
        np.multiply(sums, pf, out=b)
        hf -= b
        err += np.abs(b, out=b)
        err *= _FILTER_SCALE
    if not err.max() < math.inf:
        return None
    top = np.add(hf, err, out=b).min()
    hf -= err
    return np.flatnonzero(hf <= top)


def minimize_minus_modular(f: SubmodularOracle, q: int, p: int,
                           d: Direction) -> tuple[int, int, int]:
    """min over S of h(S) = q*f(S) - p*d(S), for integers q >= 1 and p, as
    (min value, minimal minimizer, maximal minimizer), the two as bit masks.

    h is never built as an oracle: the values come from f's table and d's
    cached subset sums `d.sums`.  When q*M + |p|*||d||_1 + q lies below the
    int64 bound of `table_dtype` (M = f.m_bound; the q term because q*f is
    formed even where f = 0) and `d.sums` is int64, this is one exact int64
    pass.  Otherwise one float64 pass over the float images `f.float_table`
    and `d.float_sums` keeps as candidates the sets S with
    hf(S) - e(S) <= min_T (hf(T) + e(T)), and exact Python ints decide among
    them.  There is no size threshold: at worst every set is a candidate,
    which costs one exact pass.  The int64 and float64 passes write into
    this thread's scratch buffers (`_work`), not into fresh 2^n arrays.

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
    keeps every minimizer: the exact minimum over the candidates is min h,
    and its minimizers there are all of h's.  An entry past float64 range
    (an image is None), a q or p past it, or a non-finite e(S) (an overflow
    to inf) leaves the floats nothing to bound, and the exact pass runs over
    all 2^n sets.  f.calls is not charged: no value is read through the
    oracle.
    """
    table, sums = f.dense_table(), d.sums
    masks = None
    if (table_dtype(q * f.m_bound + abs(p) * d.norm1 + q) is np.int64
            and sums.dtype == np.int64):
        # the table is int64 too, since M < 2^60
        h, tmp, _ = _work(f.n, np.int64)
        np.multiply(table, q, out=h)
        h -= np.multiply(sums, p, out=tmp)
    else:
        masks = _float_candidates(f, q, p, d)
        if masks is not None:
            table, sums = table[masks], sums[masks]
        h = q * table.astype(object) - p * sums.astype(object)
    best, and_mask, or_mask = _table_min(h, masks)
    for m in (and_mask, or_mask):
        if q * f.dense_table().item(m) - p * d.sums.item(m) != best:
            raise InvariantViolation(
                "minimizers not closed under union/intersection")
    return best, and_mask, or_mask


def minimize_bruteforce(f: SubmodularOracle) -> SfmResult:
    """Exact minimization by enumerating all 2^n sets."""
    before = f.calls
    table = f.dense_table()
    best, and_mask, or_mask = _table_min(table)
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


def minimize_mnp(f: SubmodularOracle) -> SfmResult:
    """Fujishige-Wolfe minimum-norm-point minimization with exact certification.

    A library cross-check of `minimize`; no solver calls it.  When the cycle
    cap is hit or the float point cannot certify the integrality gap, the
    answer comes from enumeration instead (method "mnp+bruteforce").
    """
    n = f.n
    before = f.calls

    def _fallback(majors, norms):
        res = minimize_bruteforce(f)
        return SfmResult(res.min_value, res.minimal_minimizer,
                         res.maximal_minimizer, certified=True,
                         method="mnp+bruteforce",
                         oracle_calls=f.calls - before,
                         major_cycles=majors, norm_history=norms)

    if f.m_bound > _MNP_FLOAT_CAP:
        # float marginals cannot certify an integrality gap < 1 here
        return _fallback(0, [])

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
    seen = {order0}

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
        if q_order in seen:
            break  # no new vertex to add: float stall
        V = np.vstack([V, q])
        orders.append(q_order)
        seen.add(q_order)
        w = np.append(w, 0.0)
        while True:
            try:
                b, y = _affine_minimizer(V)
            except np.linalg.LinAlgError:
                keep = int(np.argmin(np.einsum("ij,ij->i", V, V)))
                V = V[keep:keep + 1]
                orders = [orders[keep]]
                seen = set(orders)
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
            seen = set(orders)
            w = w[keep]
            w /= w.sum()
            x = w @ V
        norms.append(float(x @ x))

    if not converged:
        return _fallback(majors, norms)

    # exact certification: rationalize the barycentric weights over exact
    # integer vertices, so x_rat is exactly in the base polytope
    w_rat = [Fraction(max(float(wj), 0.0)) for wj in w]
    total = sum(w_rat)
    if total == 0:
        w_rat = [Fraction(1)] + [Fraction(0)] * (len(w_rat) - 1)
        total = Fraction(1)
    w_rat = [wj / total for wj in w_rat]
    exact_vs = [lov.exact_vertex(o) for o in orders]
    x_rat = [sum(wj * vj[i] for wj, vj in zip(w_rat, exact_vs)) for i in range(n)]
    lower = sum(min(xi, 0) for xi in x_rat)

    smin = sum(1 << i for i, xi in enumerate(x_rat) if xi < 0)
    smax = sum(1 << i for i, xi in enumerate(x_rat) if xi <= 0)
    v_min = f.eval(smin)
    v_max = f.eval(smax)
    best = min(v_min, v_max)
    if Fraction(best) - lower >= 1:
        return _fallback(majors, norms)
    # best is within 1 of a valid lower bound, hence exact by integrality
    if v_min != best or v_max != best:
        _, smin, smax = _table_min(f.dense_table())
    return SfmResult(best, SubsetMask(smin, n), SubsetMask(smax, n),
                     certified=True, method="mnp",
                     oracle_calls=f.calls - before,
                     major_cycles=majors, norm_history=norms)


def minimize(f: SubmodularOracle) -> SfmResult:
    """Exact submodular minimization of any oracle by enumeration.

    No solver calls it: every solver minimizes through
    `minimize_minus_modular`.  It stays for `membership`, which the tests
    use as an independent membership check, and for the tracer in
    `perfbench/`, which wraps it.
    """
    return minimize_bruteforce(f)


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
