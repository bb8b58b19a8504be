"""Bit-mask subsets of a ground set {0, ..., n-1}."""

from __future__ import annotations

from dataclasses import dataclass


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
    def singleton(cls, n: int, i: int) -> SubsetMask:
        return cls.from_indices(n, (i,))

    @classmethod
    def from_indices(cls, n: int, indices) -> SubsetMask:
        bits = 0
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"element {i} outside ground set of size {n}")
            bits |= 1 << i
        return cls(bits, n)

    @property
    def cardinality(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.bits >> i & 1)

    def __iter__(self):
        return iter(self.indices())

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.n and bool(self.bits >> i & 1)

    def __index__(self) -> int:
        # lets a mask be used directly as a table index
        return self.bits

    def _require_same_ground(self, other: SubsetMask):
        if self.n != other.n:
            raise ValueError(f"mixed ground sets: {self.n} vs {other.n}")

    def union(self, other: SubsetMask) -> SubsetMask:
        self._require_same_ground(other)
        return SubsetMask(self.bits | other.bits, self.n)

    def intersection(self, other: SubsetMask) -> SubsetMask:
        self._require_same_ground(other)
        return SubsetMask(self.bits & other.bits, self.n)

    def setminus(self, other: SubsetMask) -> SubsetMask:
        self._require_same_ground(other)
        return SubsetMask(self.bits & ~other.bits, self.n)

    def complement(self) -> SubsetMask:
        return SubsetMask(self.bits ^ ((1 << self.n) - 1), self.n)

    __or__ = union
    __and__ = intersection
    __sub__ = setminus
    __invert__ = complement

    def issubset(self, other: SubsetMask) -> bool:
        self._require_same_ground(other)
        return self.bits & ~other.bits == 0

    def add(self, i: int) -> SubsetMask:
        if not 0 <= i < self.n:
            raise ValueError(f"element {i} outside ground set of size {self.n}")
        return SubsetMask(self.bits | (1 << i), self.n)

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.indices()) + "}"


def subset_sums(values) -> list:
    """All subset sums of `values`, indexed by bit mask.

    out[m] == sum(values[i] for bits i set in m); built by doubling, so the
    result has 2**len(values) entries.
    """
    out = [0]
    for v in values:
        out += [s + v for s in out]
    return out
