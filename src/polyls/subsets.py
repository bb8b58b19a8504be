"""Bit-mask subsets of a ground set {0, ..., n-1} and the 2^n tables they index."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SubsetMask:
    """A subset of {0, ..., n-1} stored as an integer bit mask.

    Python integers are unbounded, so one representation covers every
    ground-set size; element i is in the set iff bit i is set.
    """

    bits: int
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"negative ground-set size {self.n}")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"mask {self.bits:#x} out of range for n={self.n}")

    @classmethod
    def empty(cls, n: int) -> SubsetMask:
        return cls(0, n)

    @classmethod
    def full(cls, n: int) -> SubsetMask:
        return cls((1 << n) - 1, n)

    @classmethod
    def from_indices(cls, n: int, indices) -> SubsetMask:
        bits = 0
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"element {i} outside ground set of size {n}")
            bits |= 1 << i
        return cls(bits, n)

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.bits >> i & 1)

    def __iter__(self):
        return iter(self.indices())

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.n and bool(self.bits >> i & 1)

    def __index__(self) -> int:
        # lets a mask be used directly as a table index
        return self.bits

    def issubset(self, other: SubsetMask) -> bool:
        if self.n != other.n:
            raise ValueError(f"mixed ground sets: {self.n} vs {other.n}")
        return self.bits & ~other.bits == 0

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.indices()) + "}"


def table_dtype(bound) -> type:
    """The dtype of a 2^n value table whose entries are at most `bound` in
    magnitude: numpy int64 below 2^60, exact Python ints (object) otherwise.

    Every table pass is one numpy expression that is exact in both dtypes;
    below 2^60 a sum of four entries cannot overflow int64.
    """
    return np.int64 if bound < 1 << 60 else object


def subset_sums(values) -> np.ndarray:
    """All subset sums of `values`, indexed by bit mask.

    out[m] == sum(values[i] for bits i set in m); built by doubling, so the
    result has 2**len(values) entries, in the dtype `table_dtype` picks for
    sum(|values|).  Each doubling adds in place, into the upper half of
    `out`, so no temporary is allocated per element.
    """
    values = tuple(values)
    out = np.zeros(1 << len(values),
                   dtype=table_dtype(sum(abs(v) for v in values)))
    for i, v in enumerate(values):
        np.add(out[:1 << i], v, out=out[1 << i:2 << i])
    return out


def float_image(table: np.ndarray) -> np.ndarray | None:
    """`table` with every entry rounded to the nearest float64, read-only, or
    None when an entry lies past the float64 range."""
    try:
        out = table.astype(np.float64)
    except OverflowError:
        return None
    out.flags.writeable = False
    return out
