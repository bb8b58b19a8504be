"""Integral submodular value oracles: built-in families and oracle-level constructions.

All functions are normalized (f(empty) = 0) and integer-valued; `m_bound` is
an upper bound on max_S |f(S)| (exact for explicit tables, analytic for the
generated families).  Wrappers produce new oracles for lifting to a larger
ground set, constant perturbation, modular translation, and the integral
rescaling used by the parametric solvers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import EmptyNotZero, GroundSetTooLarge, NegativeValue, NonSubmodular
from .subsets import SubsetMask, subset_sums

# The one declared size limit: every oracle and direction has n <= this, so
# every function has a dense table of 2^n values.
TABLE_N_CAP = 20

# numpy int64 is safe for the vectorized table paths below this magnitude.
_INT64_SAFE = 1 << 60


class SubmodularOracle:
    """Value oracle for an integral submodular function with f(empty) = 0.

    The ground set has 1 to TABLE_N_CAP elements; larger sizes raise
    GroundSetTooLarge here, so a dense table is always within reach.

    `calls` counts value-oracle reads.  Vectorized code paths that read a
    cached dense table account their reads in blocks via `charge`; building
    the dense table itself charges 2^n once.  CPython's GIL makes the bare
    increment safe for the concurrent use the library does.
    """

    def __init__(self, n, fn=None, *, m_bound, family_tag="custom", table=None):
        if n < 1:
            raise ValueError("ground set must be nonempty")
        if n > TABLE_N_CAP:
            raise GroundSetTooLarge(f"ground set n={n} > {TABLE_N_CAP}")
        if fn is None and table is None:
            raise ValueError("oracle needs an eval function or a dense table")
        self.n = n
        self.m_bound = m_bound
        self.family_tag = family_tag
        self.calls = 0
        self._fn = fn
        self._table = list(table) if table is not None else None

    def eval(self, s):
        """f(S) for S given as a SubsetMask or a raw bit mask."""
        mask = operator.index(s)
        self.calls += 1
        if self._table is not None:
            return self._table[mask]
        return self._fn(mask)

    def charge(self, k: int):
        self.calls += k

    @property
    def has_table(self) -> bool:
        return self._table is not None

    def dense_table(self) -> list:
        """All 2^n values, cached."""
        if self._table is None:
            fn = self._fn
            self.charge(1 << self.n)
            self._table = [fn(m) for m in range(1 << self.n)]
        return self._table

    def __repr__(self):
        return f"<{type(self).__name__} {self.family_tag} n={self.n} M<={self.m_bound}>"


@dataclass(frozen=True)
class Direction:
    """Integral direction vector with at least one positive entry."""

    d: tuple[int, ...]

    def __post_init__(self):
        if not self.d:
            raise ValueError("empty direction")
        if any(type(di) is not int for di in self.d):
            raise ValueError("direction entries must be int")
        if not any(di > 0 for di in self.d):
            raise ValueError("direction needs at least one strictly positive entry")
        if self.n > TABLE_N_CAP:
            raise GroundSetTooLarge(f"direction n={self.n} > {TABLE_N_CAP}")

    @property
    def n(self) -> int:
        return len(self.d)

    @cached_property
    def norm1(self) -> int:
        return sum(abs(di) for di in self.d)

    @cached_property
    def _sums(self) -> list[int]:
        return subset_sums(self.d)

    def of(self, s) -> int:
        """d(S) = sum of entries over the subset."""
        return self._sums[operator.index(s)]

    def sums_table(self) -> list[int]:
        return self._sums


# ---------------------------------------------------------------------------
# Family specs


@dataclass(frozen=True)
class ExplicitTable:
    """All 2^n values listed in subset-mask order (mask value = index)."""

    values: tuple[int, ...]
    family = "explicit"

    @property
    def n(self) -> int:
        return len(self.values).bit_length() - 1


@dataclass(frozen=True)
class WeightedCoverage:
    """f(S) = total weight of universe elements covered by the sets in S."""

    n: int
    universe: int
    sets: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]
    family = "coverage"


@dataclass(frozen=True)
class DirectedGraphCut:
    """f(S) = total capacity of arcs leaving S; arcs are (tail, head, cap)."""

    n: int
    arcs: tuple[tuple[int, int, int], ...]
    family = "digraph-cut"


@dataclass(frozen=True)
class ConcaveCardinalityPlusModular:
    """f(S) = concave[|S|] + modular(S); concave increments must be non-increasing."""

    concave: tuple[int, ...]
    modular: tuple[int, ...]
    family = "concave-modular"

    @property
    def n(self) -> int:
        return len(self.modular)


@dataclass(frozen=True)
class IntervalGeometric:
    """Sum over the maximal runs [i, j] of S (1-indexed) of 4^(j(j-1)/2) * 4^i.

    The geometric growth makes this the stress family for the parametric
    solvers: envelope breakpoints crowd the ladder spacing.
    """

    n: int
    family = "interval-geometric"


FamilySpec = (
    ExplicitTable
    | WeightedCoverage
    | DirectedGraphCut
    | ConcaveCardinalityPlusModular
    | IntervalGeometric
)


def submodularity_witness(table, n):
    """First (S, i, j) with f(S+i) + f(S+j) < f(S+i+j) + f(S), or None.

    Checking the quadruple inequality over all S and i, j not in S is
    equivalent to full submodularity.
    """
    if n <= 1:
        return None
    small = all(abs(v) < _INT64_SAFE for v in table)
    if small:
        arr = np.asarray(table, dtype=np.int64)
        masks = np.arange(1 << n, dtype=np.int64)
        for i in range(n):
            bi = 1 << i
            free_i = masks[(masks & bi) == 0]
            for j in range(i + 1, n):
                bj = 1 << j
                base = free_i[(free_i & bj) == 0]
                viol = arr[base | bi] + arr[base | bj] - arr[base | bi | bj] - arr[base]
                bad = np.nonzero(viol < 0)[0]
                if bad.size:
                    return int(base[bad[0]]), i, j
        return None
    for i in range(n):
        bi = 1 << i
        for j in range(i + 1, n):
            bj = 1 << j
            for s in range(1 << n):
                if s & (bi | bj):
                    continue
                if table[s | bi] + table[s | bj] < table[s | bi | bj] + table[s]:
                    return s, i, j
    return None


def check_oracle(oracle: SubmodularOracle):
    """Exhaustively validate f(empty) = 0 and submodularity."""
    table = oracle.dense_table()
    if table[0] != 0:
        raise EmptyNotZero(f"f(empty) = {table[0]}")
    witness = submodularity_witness(table, oracle.n)
    if witness is not None:
        s, i, j = witness
        raise NonSubmodular(
            f"quadruple violated at S={SubsetMask(s, oracle.n)}, i={i}, j={j}")


# ---------------------------------------------------------------------------
# Family table builders


def _coverage_table(spec: WeightedCoverage) -> list[int]:
    set_masks = [0] * spec.n
    for i, members in enumerate(spec.sets):
        for u in members:
            set_masks[i] |= 1 << u
    cover = [0] * (1 << spec.n)
    table = [0] * (1 << spec.n)
    for m in range(1, 1 << spec.n):
        low = m & -m
        cover[m] = cover[m ^ low] | set_masks[low.bit_length() - 1]
        c = cover[m]
        w = 0
        while c:
            lu = c & -c
            w += spec.weights[lu.bit_length() - 1]
            c ^= lu
        table[m] = w
    return table


def _digraph_table(spec: DirectedGraphCut) -> list[int]:
    out_arcs = [[] for _ in range(spec.n)]
    in_arcs = [[] for _ in range(spec.n)]
    for u, v, c in spec.arcs:
        out_arcs[u].append((v, c))
        in_arcs[v].append((u, c))
    table = [0] * (1 << spec.n)
    for m in range(1, 1 << spec.n):
        low = m & -m
        k = low.bit_length() - 1
        rest = m ^ low
        delta = 0
        for v, c in out_arcs[k]:
            if not m >> v & 1:
                delta += c
        for u, c in in_arcs[k]:
            if rest >> u & 1:
                delta -= c
        table[m] = table[rest] + delta
    return table


def _interval_value(mask: int, n: int) -> int:
    total = 0
    i = 0
    while i < n:
        if mask >> i & 1:
            j = i
            while j + 1 < n and mask >> (j + 1) & 1:
                j += 1
            # run [i, j] zero-based is [i+1, j+1] one-based
            a, b = i + 1, j + 1
            total += 1 << (2 * (b * (b - 1) // 2 + a))
            i = j + 1
        else:
            i += 1
    return total


def make_family(spec: FamilySpec) -> SubmodularOracle:
    """Build the table-backed oracle for a family spec.

    The ground-set size is checked against TABLE_N_CAP before any table is
    built.  Explicit tables are validated eagerly (normalization,
    nonnegativity, submodularity); generated families are correct by
    construction and get spot-checked by the test suite instead.
    """
    if isinstance(spec, ExplicitTable):
        size = len(spec.values)
        if size < 2 or size & (size - 1):
            raise ValueError(f"table length {size} is not a power of two >= 2")
    elif not isinstance(spec, FamilySpec):
        raise ValueError(f"unknown family spec {spec!r}")
    n = spec.n
    if n > TABLE_N_CAP:
        raise GroundSetTooLarge(f"{spec.family} for n={n} > {TABLE_N_CAP}")

    if isinstance(spec, ExplicitTable):
        if any(type(v) is not int for v in spec.values):
            raise ValueError("explicit table values must be int")
        if spec.values[0] != 0:
            raise EmptyNotZero(f"f(empty) = {spec.values[0]}")
        neg = min(spec.values)
        if neg < 0:
            raise NegativeValue(f"table contains {neg}")
        witness = submodularity_witness(spec.values, n)
        if witness is not None:
            s, i, j = witness
            raise NonSubmodular(
                f"quadruple violated at S={SubsetMask(s, n)}, i={i}, j={j}")
        return SubmodularOracle(n, m_bound=max(spec.values),
                                family_tag="explicit", table=spec.values)

    if isinstance(spec, WeightedCoverage):
        if any(w < 0 for w in spec.weights):
            raise NegativeValue("coverage weights must be nonnegative")
        for members in spec.sets:
            for u in members:
                if not 0 <= u < spec.universe:
                    raise ValueError(f"universe element {u} out of range")
        return SubmodularOracle(n, m_bound=sum(spec.weights),
                                family_tag="coverage", table=_coverage_table(spec))

    if isinstance(spec, DirectedGraphCut):
        for u, v, c in spec.arcs:
            if c < 0:
                raise NegativeValue(f"arc capacity {c} < 0")
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad arc ({u}, {v})")
        return SubmodularOracle(n, m_bound=sum(c for _, _, c in spec.arcs),
                                family_tag="digraph-cut",
                                table=_digraph_table(spec))

    if isinstance(spec, ConcaveCardinalityPlusModular):
        g = spec.concave
        if len(g) != n + 1:
            raise ValueError(f"concave sequence needs n+1 = {n + 1} entries")
        if g[0] != 0:
            raise EmptyNotZero(f"concave[0] = {g[0]}")
        incs = [g[k + 1] - g[k] for k in range(n)]
        if any(incs[k + 1] > incs[k] for k in range(n - 1)):
            raise NonSubmodular("cardinality increments must be non-increasing")
        # f >= 0 iff for every k the k smallest modular entries cannot drag
        # g(k) below zero
        ranked = sorted(spec.modular)
        prefix = 0
        for k in range(1, n + 1):
            prefix += ranked[k - 1]
            if g[k] + prefix < 0:
                raise NegativeValue(
                    f"f would be negative on some {k}-element set")
        m_bound = max(g) + sum(w for w in spec.modular if w > 0)
        msums = subset_sums(spec.modular)
        table = [g[m.bit_count()] + msums[m] for m in range(1 << n)]
        return SubmodularOracle(n, m_bound=m_bound,
                                family_tag="concave-modular", table=table)

    if n < 1:
        raise ValueError("interval family needs n >= 1")
    # any S decomposes into runs with distinct right endpoints j, and each
    # run value is at most the singleton value at its j
    m_bound = sum(1 << (2 * (j * (j - 1) // 2 + j)) for j in range(1, n + 1))
    table = [_interval_value(m, n) for m in range(1 << n)]
    return SubmodularOracle(n, m_bound=m_bound,
                            family_tag="interval-geometric", table=table)


# ---------------------------------------------------------------------------
# Oracle-level constructions


def lift(f: SubmodularOracle, c: int) -> SubmodularOracle:
    """Extend f to one extra element so the truncated polymatroid becomes a
    base polytope.

    The lifted function pays +c for including the new element except on the
    full ground set, where it equals f(E).
    """
    if c <= 0:
        raise ValueError("lift constant must be positive")
    ft = f.dense_table()
    table = list(ft) + [v + c for v in ft]
    table[-1] = ft[-1]  # the full lifted set keeps f(E)
    return SubmodularOracle(f.n + 1, m_bound=f.m_bound + c,
                            family_tag=f"lift({f.family_tag})", table=table)


def perturb(f: SubmodularOracle, eps: Fraction) -> SubmodularOracle:
    """Add eps to every nonempty value, keeping f(empty) = 0 normalized.

    Lazy and O(1): values are read through f on demand.  The dual route
    never reads them; it builds its float extension from `base` and `eps`.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("perturbation must be positive")

    def fn(mask: int) -> Fraction:
        if mask == 0:
            return Fraction(0)
        return Fraction(f.eval(mask)) + eps

    out = SubmodularOracle(f.n, fn, m_bound=Fraction(f.m_bound) + eps,
                           family_tag=f"perturb({f.family_tag})")
    out.base = f
    out.eps = eps
    return out


def translate(f: SubmodularOracle, x0) -> SubmodularOracle:
    """f'(S) = f(S) - x0(S) for an integral x0 (reduction to a rooted search).

    Feasibility of x0 is the caller's contract; an infeasible x0 surfaces
    later as a negative intersection.
    """
    x0 = tuple(x0)
    if len(x0) != f.n or any(type(v) is not int for v in x0):
        raise ValueError("x0 must be an integer vector of length n")
    table = [v - s for v, s in zip(f.dense_table(), subset_sums(x0))]
    return SubmodularOracle(f.n, m_bound=f.m_bound + sum(abs(v) for v in x0),
                            family_tag=f"translate({f.family_tag})", table=table)


def scale_minus_modular(f: SubmodularOracle, q: int, w) -> SubmodularOracle:
    """h(S) = q*f(S) - w(S) for integer q >= 1 and an integer vector w.

    This is the integral carrier for every rational envelope evaluation and
    membership test: h stays submodular and integer-valued.
    """
    if q < 1:
        raise ValueError("scale must be a positive integer")
    w = tuple(w)
    table = [q * v - s for v, s in zip(f.dense_table(), subset_sums(w))]
    return SubmodularOracle(f.n, m_bound=q * f.m_bound + sum(abs(v) for v in w),
                            family_tag=f"scaled({f.family_tag})", table=table)


def newton_scale(f: SubmodularOracle, d: Direction, lam: Fraction) -> SubmodularOracle:
    """Integral oracle h = q*f - p*d for lam = p/q, so min h = q * envelope(lam)."""
    lam = Fraction(lam)
    p, q = lam.numerator, lam.denominator
    return scale_minus_modular(f, q, [p * di for di in d.d])


def infinity_norm(f: SubmodularOracle) -> int:
    """Exact max_S |f(S)|."""
    return max(abs(v) for v in f.dense_table())
