"""Submodular function minimization: exact enumeration and Fujishige-Wolfe.

Every oracle has n <= TABLE_N_CAP, so `minimize` (the one path every solver
takes) enumerates the dense table.  The minimum-norm-point solver
`minimize_mnp` is a library call kept as an independent cross-check.  It
runs in floats but never decides alone: the candidate sets it extracts are
re-evaluated through the integer oracle and a rational convex combination of
exact greedy vertices provides a lower bound, so a duality gap below 1
certifies exactness by integrality.  When certification fails it falls back
to enumeration.

References: Wolfe, Math. Prog. 1976; Fujishige-Hayashi-Isotani, RIMS 1571;
Chakrabarty-Jain-Kothari, arXiv:1411.0095.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import InvariantViolation
from .lovasz import DenseLovasz
from .oracles import SubmodularOracle, scale_minus_modular
from .subsets import SubsetMask

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
    minor_cycles: int = 0
    norm_history: list = field(default_factory=list)

    def __post_init__(self):
        if not self.minimal_minimizer.issubset(self.maximal_minimizer):
            raise InvariantViolation("minimal minimizer not inside maximal")


@dataclass
class MembershipResult:
    inside: bool
    violating_set: SubsetMask | None
    margin: Fraction  # min_S (f(S) - y(S)); negative outside


def _table_min(table):
    """(min value, AND of minimizers, OR of minimizers) over a dense table.

    By submodularity the minimizers form a lattice, so the AND/OR reductions
    are themselves minimizers: the unique minimal and maximal ones.
    """
    if all(abs(v) < (1 << 60) for v in table):
        arr = np.asarray(table, dtype=np.int64)
        best = int(arr.min())
        where = np.nonzero(arr == best)[0]
        and_mask = int(np.bitwise_and.reduce(where))
        or_mask = int(np.bitwise_or.reduce(where))
        return best, and_mask, or_mask
    best = min(table)
    and_mask = None
    or_mask = 0
    for m, v in enumerate(table):
        if v == best:
            and_mask = m if and_mask is None else and_mask & m
            or_mask |= m
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

    def _fallback(majors, minors, norms):
        res = minimize_bruteforce(f)
        return SfmResult(res.min_value, res.minimal_minimizer,
                         res.maximal_minimizer, certified=True,
                         method="mnp+bruteforce",
                         oracle_calls=f.calls - before,
                         major_cycles=majors, minor_cycles=minors,
                         norm_history=norms)

    if f.m_bound > _MNP_FLOAT_CAP:
        # float marginals cannot certify an integrality gap < 1 here
        return _fallback(0, 0, [])

    lov = DenseLovasz(f)
    tol = 1e-10 * max(1.0, n * float(f.m_bound))

    v0, order0 = lov.min_vertex(np.zeros(n))
    V = v0.reshape(1, n)
    orders = [order0]
    w = np.array([1.0])
    x = v0.copy()
    seen = {order0}

    cap = 10 * n ** 3 + 1000
    majors = 0
    minors = 0
    norms = [float(x @ x)]
    converged = False
    while majors < cap:
        majors += 1
        q, q_order = lov.min_vertex(x)
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
            minors += 1
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
        return _fallback(majors, minors, norms)

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
        return _fallback(majors, minors, norms)
    # best is within 1 of a valid lower bound, hence exact by integrality
    if v_min != best or v_max != best:
        _, smin, smax = _table_min(f.dense_table())
    return SfmResult(best, SubsetMask(smin, n), SubsetMask(smax, n),
                     certified=True, method="mnp",
                     oracle_calls=f.calls - before,
                     major_cycles=majors, minor_cycles=minors,
                     norm_history=norms)


def minimize(f: SubmodularOracle) -> SfmResult:
    """Exact submodular minimization: the solvers' one path, by enumeration."""
    return minimize_bruteforce(f)


def membership(f: SubmodularOracle, y) -> MembershipResult:
    """Is the rational point y inside {x : x(S) <= f(S) for all S}?

    Decided exactly by scaling y to integers and minimizing the integral
    oracle q*f - q*y; a violating set is returned when outside.
    """
    y = [Fraction(v) for v in y]
    if len(y) != f.n:
        raise ValueError("point length does not match ground set")
    q = lcm(*[v.denominator for v in y]) if y else 1
    w = [int(v * q) for v in y]
    scaled = scale_minus_modular(f, q, w)
    res = minimize(scaled)
    margin = Fraction(res.min_value, q)
    if margin >= 0:
        return MembershipResult(True, None, margin)
    return MembershipResult(False, res.minimal_minimizer, margin)
