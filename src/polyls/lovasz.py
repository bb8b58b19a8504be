"""Lovász extension via the greedy algorithm: values and subgradients.

Works generically over exact numbers (int / Fraction) and floats; the sort
breaks ties by ascending element index so results are deterministic.
`DenseLovasz` is the vectorized float path used inside the cutting-plane and
minimum-norm-point loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracles import SubmodularOracle
from .subsets import SubsetMask


@dataclass(frozen=True)
class GreedyOrder:
    """Sorting permutation of a point and its chain of prefix sets S_0 .. S_n."""

    perm: tuple[int, ...]
    prefix_sets: tuple[SubsetMask, ...]


@dataclass(frozen=True)
class BaseVertex:
    """A greedy vertex of the base polytope (marginal gains along an order)."""

    v: tuple


def greedy_order(x) -> GreedyOrder:
    """Indices of x in descending value order; equal values keep ascending index."""
    xs = list(x)
    n = len(xs)
    # sorted() is stable, and reverse=True preserves the original (ascending
    # index) order among equal keys
    perm = tuple(sorted(range(n), key=xs.__getitem__, reverse=True))
    prefixes = [SubsetMask.empty(n)]
    bits = 0
    for i in perm:
        bits |= 1 << i
        prefixes.append(SubsetMask(bits, n))
    return GreedyOrder(perm, tuple(prefixes))


def evaluate(f: SubmodularOracle, x):
    """Extension value sum_i x_{pi_i} (f(S_i) - f(S_{i-1})); n oracle calls."""
    xs = list(x)
    order = greedy_order(xs)
    total = 0
    prev = 0
    for i, e in enumerate(order.perm):
        cur = f.eval(order.prefix_sets[i + 1])
        total = total + xs[e] * (cur - prev)
        prev = cur
    return total


def subgradient(f: SubmodularOracle, x) -> BaseVertex:
    """Marginal-gain vertex maximizing v.x over the base polytope; n oracle calls."""
    xs = list(x)
    order = greedy_order(xs)
    v = [0] * len(xs)
    prev = 0
    for i, e in enumerate(order.perm):
        cur = f.eval(order.prefix_sets[i + 1])
        v[e] = cur - prev
        prev = cur
    return BaseVertex(tuple(v))


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

    def exact_vertex(self, order: tuple[int, ...]) -> list:
        """Exact integer marginals along a stored order (no float roundoff)."""
        table = self.oracle.dense_table()
        v = [0] * self.n
        mask = 0
        prev = 0
        for e in order:
            mask |= 1 << e
            cur = table.item(mask)
            v[e] = cur - prev
            prev = cur
        self.oracle.charge(self.n)
        return v
