"""Integral submodular value oracles: built-in families and oracle-level constructions.

All functions are normalized (f(empty) = 0) and integer-valued; `m_bound` is
an upper bound on max_S |f(S)| (exact for explicit tables, analytic for the
generated families).  Every 2^n table, a direction's subset sums included,
is built by element doubling (see `subset_sums`): the values on masks that
contain element k come from those that do not, in one array expression per
k.  Wrappers produce new oracles for lifting to a larger ground set,
modular translation, and integral rescaling; the parametric solvers do not
rescale, they minimize q*f - p*d in place (`sfm.minimizers_minus_modular`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import EmptyNotZero, GroundSetTooLarge, NegativeValue, NonSubmodular
from .subsets import SubsetMask, float_image, subset_sums, table_dtype

# The one declared size limit: every oracle and direction has n <= this, so
# every function has a dense table of 2^n values.
TABLE_N_CAP = 20


class SubmodularOracle:
    """Value oracle for an integral submodular function with f(empty) = 0,
    backed by its dense table of 2^n values.

    The ground set has 1 to TABLE_N_CAP elements; larger sizes raise
    GroundSetTooLarge here.  The table is stored once, as one array in the
    dtype `table_dtype(m_bound)` picks, and flagged read-only.  An array
    handed in that dtype is not copied: the oracle takes ownership of it,
    so a caller hands over a fresh array, as every construction here does.
    An `m_bound` below the table's max |f| is a ValueError, and
    f(empty) != 0 raises EmptyNotZero, so every oracle is normalized.  The
    exact minimum that check reads is kept as `min_value` (an int, at most
    f(empty) = 0): with the level-set ceiling it bounds every value the
    envelope kernel reads, which picks the kernel's exact dtype
    (`sfm.minimizers_minus_modular`).

    `calls` counts value-oracle reads.  Vectorized code paths that read the
    table account their reads in blocks via `charge`.  CPython's GIL makes
    the bare increment safe for the concurrent use the library does.
    """

    def __init__(self, n, table, *, m_bound):
        if n < 1:
            raise ValueError("ground set must be nonempty")
        if n > TABLE_N_CAP:
            raise GroundSetTooLarge(f"ground set n={n} > {TABLE_N_CAP}")
        self.n = n
        self.m_bound = m_bound
        self.calls = 0
        try:
            self._table = np.asarray(table, dtype=table_dtype(m_bound))
        except OverflowError:
            raise ValueError(f"m_bound {m_bound} is below max |f|") from None
        low = int(self._table.min())
        if self._table.max() > m_bound or low < -m_bound:
            raise ValueError(f"m_bound {m_bound} is below max |f|")
        self.min_value = low
        if self._table[0] != 0:
            raise EmptyNotZero(f"f(empty) = {self._table[0]}")
        self._table.flags.writeable = False

    def eval(self, s):
        """f(S) for S given as a SubsetMask or a raw bit mask."""
        mask = operator.index(s)
        self.calls += 1
        return self._table.item(mask)

    def charge(self, k: int):
        self.calls += k

    def dense_table(self) -> np.ndarray:
        """All 2^n values as one read-only array."""
        return self._table

    @cached_property
    def float_table(self) -> np.ndarray | None:
        """The table rounded to float64 (see `float_image`), built on first
        use and shared by every later float pass; None past float64 range."""
        return float_image(self._table)

    def __repr__(self):
        return f"<{type(self).__name__} n={self.n} M<={self.m_bound}>"


@dataclass(frozen=True)
class Direction:
    """Integral direction vector with at least one positive entry.

    Its subset sums `sums` and their float image `float_sums` are built on
    first use, cached, and read-only, like the oracle's tables."""

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
    def positive_sum(self) -> int:
        """D+ = the sum of the positive entries = max_S d(S)."""
        return sum(di for di in self.d if di > 0)

    @cached_property
    def negative_sum(self) -> int:
        """D- = the sum of the negative entries' magnitudes = -min_S d(S)."""
        return self.positive_sum - sum(self.d)

    @cached_property
    def norm1(self) -> int:
        return sum(abs(di) for di in self.d)

    @cached_property
    def sums(self) -> np.ndarray:
        """d(S) for every bit mask S, as one read-only table."""
        out = subset_sums(self.d)
        out.flags.writeable = False
        return out

    @cached_property
    def float_sums(self) -> np.ndarray | None:
        """`sums` rounded to float64, or None past float64 range."""
        return float_image(self.sums)

    def of(self, s) -> int:
        """d(S) = sum of entries over the subset."""
        return self.sums.item(operator.index(s))


# ---------------------------------------------------------------------------
# Family specs


@dataclass(frozen=True)
class ExplicitTable:
    """All 2^n values listed in subset-mask order (mask value = index)."""

    values: tuple[int, ...]
    family = "explicit"

    @property
    def n(self) -> int:
        """log2 of the table length; a length that is not a power of two
        >= 2 is a ValueError."""
        size = len(self.values)
        if size < 2 or size & (size - 1):
            raise ValueError(f"table length {size} is not a power of two >= 2")
        return size.bit_length() - 1


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


def _insert_zero_bit(x: int, p: int) -> int:
    """`x` with a 0 bit inserted at position p (higher bits move up one)."""
    return (x >> p << (p + 1)) | (x & ((1 << p) - 1))


def submodularity_witness(table, n):
    """First (S, i, j) with f(S+i) + f(S+j) < f(S+i+j) + f(S), or None.

    `table` is an oracle's dense table of exactly 2^n values; any other
    length is a ValueError.  Checking the quadruple inequality over all S
    and i < j not in S is equivalent to full submodularity.  The witness is
    the first violated quadruple in scan order: pairs i < j in order, then
    S ascending.

    Every pass is a strided difference, with no mask array and no gather.
    For each i, the (-1, 2, 2^i) view of the table gives the marginals
    f(S+i) - f(S) on the masks without i, in ascending order, into one
    reused 2^(n-1) row.  For each j > i, the (-1, 2, 2^(j-1)) view of that
    row gives the pair's second differences f(S+i+j) - f(S+i) - f(S+j) +
    f(S) into one reused 2^(n-2) row, and one `max` on it decides every
    quadruple of the pair; the first positive entry's index, re-expanded
    around bits i and j, is S.  Both dtypes are exact: an int64 table has
    |f| < 2^60 (`table_dtype`), so a second difference stays below 2^62,
    and an object table runs the same expressions on Python ints.
    """
    if len(table) != 1 << n:
        raise ValueError(f"the table has {len(table)} values, but n = {n} "
                         f"needs 2^{n} = {1 << n}")
    if n < 2:
        return None
    marginal = np.empty(1 << (n - 1), dtype=table.dtype)
    second = np.empty(1 << (n - 2), dtype=table.dtype)
    # bit j of a mask is bit j - 1 of its index among the masks without i,
    # so the views of pair (i, j) depend on j alone
    by_j = []
    for j in range(1, n):
        rows = marginal.reshape(-1, 2, 1 << (j - 1))
        by_j.append((rows[:, 1], rows[:, 0], second.reshape(-1, 1 << (j - 1))))
    for i in range(n - 1):
        rows = table.reshape(-1, 2, 1 << i)
        np.subtract(rows[:, 1], rows[:, 0], out=marginal.reshape(-1, 1 << i))
        for j in range(i + 1, n):
            np.subtract(*by_j[j - 1])
            if second.max() > 0:
                k = int(np.argmax(second > 0))
                return _insert_zero_bit(_insert_zero_bit(k, j - 1), i), i, j
    return None


def check_oracle(oracle: SubmodularOracle):
    """Exhaustively validate submodularity (every oracle is normalized by
    construction): NonSubmodular names the first violated quadruple of
    `submodularity_witness`, whose n(n-1)/2 strided passes over the table
    are the whole cost (about 0.2 ms at n = 12 and 0.55 ms at n = 14 on a
    2-core x86 host)."""
    table = oracle.dense_table()
    witness = submodularity_witness(table, oracle.n)
    if witness is not None:
        s, i, j = witness
        raise NonSubmodular(
            f"quadruple violated at S={SubsetMask(s, oracle.n)}, i={i}, j={j}")


# ---------------------------------------------------------------------------
# Family tables


def _run_value(i: int, j: int) -> int:
    """Interval-geometric value of the zero-based run [i, j]."""
    return 1 << (j * (j + 1) + 2 * i + 2)


def make_family(spec: FamilySpec) -> SubmodularOracle:
    """Build the table-backed oracle for a family spec.

    The ground-set size is checked against TABLE_N_CAP before any table is
    built.  Explicit tables are validated eagerly: the entry types, by one
    C-level scan, then nonnegativity (min and max read off the int64 array,
    or off exact ints past int64), then normalization (the oracle's
    constructor), then submodularity (`check_oracle`).  A concave-modular
    spec is checked for its length, then for non-increasing increments
    (NonSubmodular), then for f >= 0
    with f(empty) = concave[0] among the values (NegativeValue), and last
    for normalization by the oracle's constructor (EmptyNotZero).  So a
    spec with a nonzero concave[0] and rising increments reports
    NonSubmodular, and one with concave[0] < 0 reports NegativeValue.
    Every generated table is built like `subset_sums`, by
    element doubling: one array expression per element k fills the masks
    that contain k from those that do not, exact in the dtype of the
    family's `m_bound`.  The test suite checks each family's
    table against its definition.
    """
    if not isinstance(spec, FamilySpec):
        raise ValueError(f"unknown family spec {spec!r}")
    n = spec.n  # an explicit table's length is checked here
    if n > TABLE_N_CAP:
        raise GroundSetTooLarge(f"{spec.family} for n={n} > {TABLE_N_CAP}")

    if isinstance(spec, ExplicitTable):
        values = spec.values
        # one C-level scan; bool and numpy integers are not int
        if not set(map(type, values)) <= {int}:
            raise ValueError("explicit table values must be int")
        try:
            values = np.array(values, dtype=np.int64)
            neg, top = int(values.min()), int(values.max())
        except OverflowError:  # past int64: exact ints
            neg, top = min(values), max(values)
        if neg < 0:
            raise NegativeValue(f"table contains {neg}")
        oracle = SubmodularOracle(n, values, m_bound=top)
        check_oracle(oracle)
        return oracle

    if isinstance(spec, WeightedCoverage):
        if len(spec.sets) != n:
            raise ValueError(f"coverage needs n = {n} sets, got {len(spec.sets)}")
        if len(spec.weights) != spec.universe:
            raise ValueError(f"coverage needs one weight per universe element "
                             f"({spec.universe}), got {len(spec.weights)}")
        if any(w < 0 for w in spec.weights):
            raise NegativeValue("coverage weights must be nonnegative")
        owners = [0] * spec.universe  # owners[u]: mask of the sets holding u
        for i, members in enumerate(spec.sets):
            for u in members:
                if not 0 <= u < spec.universe:
                    raise ValueError(f"universe element {u} out of range")
                owners[u] |= 1 << i
        m_bound = sum(spec.weights)
        # within[m]: weight of the elements whose owners all lie in m; S
        # misses exactly the elements owned within its complement
        within = np.zeros(1 << n, dtype=table_dtype(m_bound))
        for owner, w in zip(owners, spec.weights):
            within[owner] += w
        for k in range(n):
            halves = within.reshape(-1, 2, 1 << k)
            halves[:, 1] += halves[:, 0]
        return SubmodularOracle(n, m_bound - within[::-1], m_bound=m_bound)

    if isinstance(spec, DirectedGraphCut):
        cap = [[0] * n for _ in range(n)]
        for u, v, c in spec.arcs:
            if c < 0:
                raise NegativeValue(f"arc capacity {c} < 0")
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad arc ({u}, {v})")
            cap[u][v] += c
        m_bound = sum(c for _, _, c in spec.arcs)
        table = np.zeros(1 << n, dtype=table_dtype(m_bound))
        for k in range(n):
            # adding k to S below it cuts k's out-arcs except those into S
            # and uncuts the arcs from S into k
            table[1 << k:2 << k] = (table[:1 << k] + sum(cap[k]) - subset_sums(
                [cap[i][k] + cap[k][i] for i in range(k)]))
        return SubmodularOracle(n, table, m_bound=m_bound)

    if isinstance(spec, ConcaveCardinalityPlusModular):
        g = spec.concave
        if len(g) != n + 1:
            raise ValueError(f"concave sequence needs n+1 = {n + 1} entries")
        incs = [g[k + 1] - g[k] for k in range(n)]
        if any(incs[k + 1] > incs[k] for k in range(n - 1)):
            raise NonSubmodular("cardinality increments must be non-increasing")
        # f >= 0 iff for every k the k smallest modular entries cannot drag
        # g(k) below zero; k = 0 is f(empty) = g(0) itself
        lows = accumulate(sorted(spec.modular), initial=0)
        for k, (gk, low) in enumerate(zip(g, lows)):
            if gk + low < 0:
                raise NegativeValue(
                    f"f would be negative on some {k}-element set")
        m_bound = max(g) + sum(w for w in spec.modular if w > 0)
        sizes = subset_sums((1,) * n)
        table = (np.array(g, dtype=table_dtype(m_bound))[sizes]
                 + subset_sums(spec.modular))
        return SubmodularOracle(n, table, m_bound=m_bound)

    if n < 1:
        raise ValueError("interval family needs n >= 1")
    # any S decomposes into runs with distinct right endpoints j, and each
    # run value is at most the singleton value at its j
    m_bound = sum(_run_value(j, j) for j in range(n))
    dtype = table_dtype(m_bound)
    table = np.zeros(1 << n, dtype=dtype)
    # start[S] for S below k: the first element of k's run in S + k (k
    # itself when k-1 is not in S)
    start = np.zeros(1 << n, dtype=np.int64)
    for k in range(n):
        # k extends the run [i, k-1] starting at i < k, or starts [k, k]
        gain = np.array([_run_value(i, k) - _run_value(i, k - 1)
                         for i in range(k)] + [_run_value(k, k)], dtype=dtype)
        table[1 << k:2 << k] = table[:1 << k] + gain[start[:1 << k]]
        start[1 << k:2 << k] = start[:1 << k]
        start[:1 << k] = k + 1
    return SubmodularOracle(n, table, m_bound=m_bound)


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
    m_bound = f.m_bound + c
    ft = np.asarray(f.dense_table(), dtype=table_dtype(m_bound))
    table = np.concatenate((ft, ft + c))
    table[-1] = ft[-1]  # the full lifted set keeps f(E)
    return SubmodularOracle(f.n + 1, table, m_bound=m_bound)


def translate(f: SubmodularOracle, x0) -> SubmodularOracle:
    """f'(S) = f(S) - x0(S) for an integral x0 (reduction to a rooted search).

    Any integral x0 of length n is accepted; f' >= 0 holds exactly when x0
    lies in P(f), which `Instance.build` checks.
    """
    return scale_minus_modular(f, 1, x0)


def scale_minus_modular(f: SubmodularOracle, q: int, w) -> SubmodularOracle:
    """h(S) = q*f(S) - w(S) for integer q >= 1 and an integer vector w.

    This is the integral carrier of `sfm.membership` for a general rational
    point: h stays submodular and integer-valued.  A w without f.n entries,
    or with an entry that is not an int, is a ValueError.
    """
    if q < 1:
        raise ValueError("scale must be a positive integer")
    w = tuple(w)
    if len(w) != f.n or any(type(v) is not int for v in w):
        raise ValueError("w must be an integer vector of length n")
    m_bound = q * f.m_bound + sum(abs(v) for v in w)
    # the product is formed in a dtype that also holds q, which f = 0 needs
    ft = np.asarray(f.dense_table(), dtype=table_dtype(m_bound + q))
    return SubmodularOracle(f.n, q * ft - subset_sums(w), m_bound=m_bound)


def newton_scale(f: SubmodularOracle, d: Direction, lam: Fraction) -> SubmodularOracle:
    """Integral oracle h = q*f - p*d for lam = p/q, so min h = q * envelope(lam).

    `sfm.minimizers_minus_modular(f, q, p, d)` finds min h without
    building it.
    """
    lam = Fraction(lam)
    p, q = lam.numerator, lam.denominator
    return scale_minus_modular(f, q, [p * di for di in d.d])


def infinity_norm(f: SubmodularOracle) -> int:
    """Exact max_S |f(S)|."""
    table = np.abs(f.dense_table())
    return table.item(int(table.argmax()))
