"""Lovász extension via the greedy algorithm: values and subgradients.

The extension at x is read off the greedy chain of x: sort x descending into
a permutation, and the marginal gains f(S_k) - f(S_{k-1}) along its prefix
sets S_k form the greedy vertex of the base polytope that maximizes v.x, so
the value is x.v (Bach, *Learning with Submodular Functions*, FnT ML 2013,
section 3).  `greedy_vertex` is the one exact loop that reads those
marginals.  x may hold exact numbers (int / Fraction) or floats; the sort
breaks ties by ascending element index so results are deterministic.
`DenseLovasz` is the vectorized float path used inside the cutting-plane and
minimum-norm-point loops.
"""

from __future__ import annotations

import numpy as np

from .oracles import SubmodularOracle


def greedy_order(x) -> tuple[int, ...]:
    """Indices of x in descending value order; equal values keep ascending index."""
    xs = list(x)
    # sorted() is stable, and reverse=True preserves the original (ascending
    # index) order among equal keys
    return tuple(sorted(range(len(xs)), key=xs.__getitem__, reverse=True))


def greedy_vertex(f: SubmodularOracle, perm) -> list:
    """Exact marginal gains v_e = f(S_k) - f(S_{k-1}) along the prefix sets
    S_k of the permutation perm; n oracle calls.  A perm without n entries
    (so `evaluate` or `subgradient` at an x without n entries) is a
    ValueError."""
    if len(perm) != f.n:
        raise ValueError(f"{len(perm)} entries for a ground set of n = {f.n}")
    v = [0] * f.n
    mask = prev = 0
    for e in perm:
        mask |= 1 << e
        cur = f.eval(mask)
        v[e] = cur - prev
        prev = cur
    return v


def evaluate(f: SubmodularOracle, x):
    """Extension value sum_i x_{pi_i} (f(S_i) - f(S_{i-1})); n oracle calls."""
    xs = list(x)
    perm = greedy_order(xs)
    v = greedy_vertex(f, perm)
    total = 0
    for e in perm:
        total = total + xs[e] * v[e]
    return total


def subgradient(f: SubmodularOracle, x) -> tuple:
    """Marginal-gain vertex maximizing v.x over the base polytope; n oracle calls."""
    return tuple(greedy_vertex(f, greedy_order(x)))


class DenseLovasz:
    """Vectorized float evaluate/subgradient over an oracle's table.

    Supports an additive perturbation of every nonempty value (only the first
    marginal changes).  Oracle reads are charged in blocks of n per query.
    The float table is the oracle's cached `float_table`, shared by every
    extension of the oracle; a table past float64 range is an OverflowError.
    """

    def __init__(self, oracle: SubmodularOracle, eps: float = 0.0):
        self.oracle = oracle
        self.n = oracle.n
        self.table = oracle.float_table
        if self.table is None:
            raise OverflowError("table entry too large to convert to float")
        self.eps = float(eps)
        self._bits = np.int64(1) << np.arange(self.n, dtype=np.int64)

    def _order(self, x: np.ndarray) -> np.ndarray:
        # descending x, ties by ascending index (matches greedy_order)
        return np.argsort(-x, kind="stable")

    def value_subgrad(self, x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """(value, subgradient, chain) at x; chain holds the masks of the
        greedy prefix sets S_1 .. S_n, the sets whose values the query read."""
        order = self._order(x)
        masks = np.bitwise_or.accumulate(self._bits[order])
        vals = self.table[masks]
        diffs = np.empty(self.n)
        diffs[0] = vals[0] + self.eps
        diffs[1:] = vals[1:] - vals[:-1]
        self.oracle.charge(self.n)
        value = float(x[order] @ diffs)
        g = np.empty(self.n)
        g[order] = diffs
        return value, g, masks
