from fractions import Fraction
from itertools import groupby

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polyls import (ConcaveCardinalityPlusModular, DirectedGraphCut,
                    Direction, ExplicitTable, IntervalGeometric, SubsetMask,
                    SubmodularOracle, WeightedCoverage, check_oracle,
                    infinity_norm, lift, make_family, newton_scale,
                    subgradient, submodularity_witness, translate)
from polyls.errors import (EmptyNotZero, GroundSetTooLarge, NegativeValue,
                           NonSubmodular)
from polyls.instances import random_instance, random_spec
from polyls.oracles import TABLE_N_CAP, scale_minus_modular
from polyls.subsets import table_dtype
from conftest import iter_instances, rng_of


# --- family construction and validation ---------------------------------


def test_explicit_validation_errors():
    with pytest.raises(NonSubmodular):
        make_family(ExplicitTable((0, 2, 2, 5)))  # 2 + 2 < 5 + 0
    with pytest.raises(EmptyNotZero):
        make_family(ExplicitTable((1, 2, 2, 3)))
    with pytest.raises(NegativeValue):
        make_family(ExplicitTable((0, -1, 2, 0)))
    with pytest.raises(ValueError):
        make_family(ExplicitTable((0, 1, 2)))  # not a power of two


def test_explicit_values_are_checked_past_int64_too():
    # the type scan names no entry; bool and numpy integers are not int
    for bad in (True, 2.0, np.int64(2)):
        with pytest.raises(ValueError, match="explicit table values must be int"):
            make_family(ExplicitTable((0, 2, bad, 3)))
    # min and max come off the int64 array, or off exact ints past it
    for shift in (0, 58, 70):
        with pytest.raises(NegativeValue, match=f"table contains {-1 << shift}$"):
            make_family(ExplicitTable((0, 2 << shift, -1 << shift, 2 << shift)))
        f = make_family(ExplicitTable((0, 2 << shift, 2 << shift, 3 << shift)))
        assert f.m_bound == 3 << shift
        assert f.dense_table().tolist() == [0, 2 << shift, 2 << shift,
                                            3 << shift]


def test_two_elem_values(two_elem):
    assert [two_elem.eval(m) for m in range(4)] == [0, 2, 2, 3]
    assert two_elem.m_bound == 3


def test_interval_geometric_small_values():
    f = make_family(IntervalGeometric(2))
    assert f.eval(0b01) == 4     # one-based {1}
    assert f.eval(0b11) == 16    # {1, 2}
    assert f.eval(0b10) == 64    # {2} = 4^1 * 4^2


def test_interval_geometric_run_decomposition():
    # {1,2,3,6,9,10} one-based splits into runs [1,3], [6,6], [9,10]
    f = make_family(IntervalGeometric(10))
    mask = sum(1 << (e - 1) for e in (1, 2, 3, 6, 9, 10))
    h = lambda i, j: 4 ** (j * (j - 1) // 2) * 4 ** i
    assert f.eval(mask) == h(1, 3) + h(6, 6) + h(9, 10)


@pytest.mark.parametrize("family", ["coverage", "digraph-cut",
                                    "concave-modular", "interval-geometric",
                                    "explicit"])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_families_submodular_normalized_nonnegative(family, n):
    for seed in range(3):
        f = make_family(random_spec(family, n, rng_of(seed * 77 + n)))
        table = f.dense_table()
        assert table[0] == 0
        assert min(table) >= 0
        assert max(table) <= f.m_bound
        assert submodularity_witness(table, n) is None


@pytest.mark.parametrize("family", ["coverage", "digraph-cut",
                                    "concave-modular", "interval-geometric"])
def test_families_past_size_limit_rejected(family):
    # a 2^40 table could not be built at all: the check comes first
    spec = random_spec(family, 40, rng_of(40))
    with pytest.raises(GroundSetTooLarge):
        make_family(spec)


# --- every generated table against its family's definition --------------
# Each reference reads one set S (sorted element indices) straight from the
# family docstring.


def _covered_weight(spec, s):
    """Total weight of the universe elements covered by the chosen sets."""
    covered = set().union(*(spec.sets[i] for i in s))
    return sum(spec.weights[u] for u in covered)


def _leaving_capacity(spec, s):
    """Total capacity of the arcs leaving S."""
    return sum(c for u, v, c in spec.arcs if u in s and v not in s)


def _concave_plus_modular(spec, s):
    """concave[|S|] + modular(S)."""
    return spec.concave[len(s)] + sum(spec.modular[i] for i in s)


def _interval_runs(spec, s):
    """Sum over the maximal runs [i, j] of S, 1-indexed, of 4^(j(j-1)/2) * 4^i."""
    total = 0
    one_based = [e + 1 for e in s]
    for _, run in groupby(enumerate(one_based), key=lambda t: t[1] - t[0]):
        run = [e for _, e in run]
        i, j = run[0], run[-1]
        total += 4 ** (j * (j - 1) // 2) * 4 ** i
    return total


DEFINITIONS = {"coverage": _covered_weight,
               "digraph-cut": _leaving_capacity,
               "concave-modular": _concave_plus_modular,
               "interval-geometric": _interval_runs}


@given(st.builds(lambda family, n, seed: random_spec(family, n, rng_of(seed)),
                 st.sampled_from(sorted(DEFINITIONS)), st.integers(1, 12),
                 st.integers(0, 10**6)))
# a universe wider than 64 bits whose total weight is past 2^60
@example(WeightedCoverage(3, 70, ((0, 64, 69), (69, 1), ()), (2**59,) * 70))
# capacities summing past 2^60, a repeated arc among them
@example(DirectedGraphCut(3, ((0, 1, 2**60), (1, 0, 2**60), (1, 2, 3),
                              (0, 1, 5))))
@example(ConcaveCardinalityPlusModular((0, 2**61, 2**62 - 1),
                                       (-2**60, 2**61)))
# the last int64 size and the first exact-int size
@example(IntervalGeometric(7))
@example(IntervalGeometric(8))
def test_family_table_matches_definition(spec):
    n = spec.n
    definition = DEFINITIONS[spec.family]
    expected = [definition(spec, SubsetMask(m, n).indices())
                for m in range(1 << n)]
    f = make_family(spec)
    table = f.dense_table()
    assert table.tolist() == expected
    assert table.dtype == table_dtype(f.m_bound)


@given(st.integers(0, 10_000))
def test_concave_modular_generator_never_negative(seed):
    spec = random_spec("concave-modular", 6, rng_of(seed))
    table = make_family(spec).dense_table()
    assert min(table) >= 0


# --- wrappers -------------------------------------------------------------


def test_lift_cases(two_elem):
    hat = lift(two_elem, 10)
    assert hat.n == 3
    assert hat.eval(0b000) == 0
    assert hat.eval(0b100) == 10       # new element alone
    assert hat.eval(0b101) == 12       # {1} plus the new element
    assert hat.eval(0b111) == 3        # full lifted set reverts to f(E)
    assert hat.m_bound == two_elem.m_bound + 10
    with pytest.raises(ValueError):
        lift(two_elem, 0)


def test_lift_stays_submodular_at_recommended_constant():
    for inst in iter_instances(4, seed=300, n_max=7):
        f, d = inst.build()
        c = infinity_norm(f) * d.norm1 + 1
        check_oracle(lift(f, c))  # exhaustive quadruple test


def test_translate(two_elem):
    same = translate(two_elem, (0, 0))
    assert [same.eval(m) for m in range(4)] == [0, 2, 2, 3]
    moved = translate(two_elem, (1, 1))
    assert moved.eval(0b01) == 1 and moved.eval(0b11) == 1
    # translating by a base-polytope vertex keeps f' >= 0 everywhere
    for inst in iter_instances(3, seed=99, n_max=10):
        f, d = inst.build()
        x0 = subgradient(f, list(range(f.n)))
        shifted = translate(f, x0)
        assert min(shifted.dense_table()) >= 0


def test_scale_minus_modular_checks_w(two_elem):
    h = scale_minus_modular(two_elem, 2, (1, 3))
    assert [h.eval(m) for m in range(4)] == [0, 3, 1, 2]
    # w needs exactly one int per element, or numpy would broadcast it
    for w in ((), (1,), (1, 2, 3), (1.0, 2), (Fraction(1, 2), 0),
              (np.int64(1), 2)):
        with pytest.raises(ValueError, match="integer vector of length n"):
            scale_minus_modular(two_elem, 2, w)
        with pytest.raises(ValueError, match="integer vector of length n"):
            translate(two_elem, w)


def test_newton_scale(two_elem, d34):
    assert newton_scale(two_elem, d34, Fraction(0)).dense_table().tolist() == \
        two_elem.dense_table().tolist()
    h = newton_scale(two_elem, d34, Fraction(1, 2))
    assert h.eval(0b11) == 2 * 3 - 1 * 7 == -1
    assert h.m_bound == 2 * 3 + 1 * 7


def test_newton_scale_matches_bruteforce_envelope():
    for inst in iter_instances(3, seed=11, n_max=8):
        f, d = inst.build()
        lam = Fraction(rng_of(inst.seed).randint(0, 20), 7)
        h = newton_scale(f, d, lam)
        table = f.dense_table()
        for m in range(1 << f.n):
            assert Fraction(h.eval(m), lam.denominator) == table[m] - lam * d.of(m)


def test_infinity_norm(two_elem):
    assert infinity_norm(two_elem) == 3
    zero = make_family(ExplicitTable((0, 0, 0, 0)))
    assert infinity_norm(zero) == 0
    f3 = make_family(IntervalGeometric(3))
    assert infinity_norm(f3) == max(f3.eval(m) for m in range(8))


def test_m_bound_below_max_abs_value_rejected():
    SubmodularOracle(2, [0, 2, 2, 3], m_bound=3)
    with pytest.raises(ValueError):
        SubmodularOracle(2, [0, 2, 2, 3], m_bound=2)
    with pytest.raises(ValueError):
        SubmodularOracle(2, [0, -5, 2, 3], m_bound=3)
    with pytest.raises(ValueError):  # past int64 under an int64-sized bound
        SubmodularOracle(2, [0, 2**64, 2**64, 2**64 + 1], m_bound=3)


def test_oracle_rejects_nonzero_empty_value():
    # normalization is checked once, when any oracle is built
    with pytest.raises(EmptyNotZero):
        SubmodularOracle(2, [1, 2, 2, 3], m_bound=3)
    with pytest.raises(EmptyNotZero, match="f\\(empty\\) = 5"):
        make_family(ConcaveCardinalityPlusModular((5, 6, 7), (0, 0)))


def test_concave_modular_error_order():
    # increments, then f >= 0 (f(empty) = concave[0] among the values),
    # then normalization
    with pytest.raises(NonSubmodular):
        make_family(ConcaveCardinalityPlusModular((5, 5, 7), (0, 0)))
    with pytest.raises(NonSubmodular):
        make_family(ConcaveCardinalityPlusModular((-1, -1, 1), (0, 0)))
    # a negative concave[0] past int64 is rejected before any table exists
    for g0 in (-1, -2**70):
        with pytest.raises(NegativeValue, match="0-element"):
            make_family(ConcaveCardinalityPlusModular((g0, 0, 0), (0, 0)))


def _first_violation(values, n):
    """Reference scan: pairs i < j in order, then S ascending over the masks
    without i and j; the first S with f(S+i) + f(S+j) < f(S+i+j) + f(S)."""
    for i in range(n):
        for j in range(i + 1, n):
            bi, bj = 1 << i, 1 << j
            for s in range(1 << n):
                if s & (bi | bj):
                    continue
                if (values[s | bi] + values[s | bj]
                        < values[s | bi | bj] + values[s]):
                    return s, i, j
    return None


def _as_table(values):
    return np.asarray(values, dtype=table_dtype(max(map(abs, values))))


def test_witness_rejects_a_table_of_the_wrong_length():
    # a violation in the upper half of a length-8 table: not 2^2 values
    values = [0, 1, 1, 2, 1, 2, 2, 9]
    assert _first_violation(values, 3) == (4, 0, 1)
    assert _first_violation(values, 2) is None
    with pytest.raises(ValueError, match=r"8 values, but n = 2 needs 2\^2 = 4"):
        submodularity_witness(_as_table(values), 2)
    with pytest.raises(ValueError, match=r"8 values, but n = 4 needs 2\^4 = 16"):
        submodularity_witness(_as_table(values), 4)


@pytest.mark.parametrize("scale", [1, 2**60, 2**70], ids=["int64", "2^60",
                                                            "2^70"])
@pytest.mark.parametrize("n", range(1, 10))
def test_witness_is_the_first_violation_in_scan_order(n, scale):
    rng = rng_of(1000 * n + scale.bit_length())
    # random tables: most fail early, some late, a few never
    for _ in range(20):
        values = [0] + [scale * rng.randint(0, 2 * n) for _ in range((1 << n) - 1)]
        assert submodularity_witness(_as_table(values), n) == \
            _first_violation(values, n)
    # submodular family tables, then each with one entry raised
    for family in ("coverage", "digraph-cut", "concave-modular", "explicit"):
        values = [scale * v for v in
                  make_family(random_spec(family, n, rng)).dense_table().tolist()]
        assert submodularity_witness(_as_table(values), n) is None
        assert _first_violation(values, n) is None
        for _ in range(3):
            raised = list(values)
            raised[rng.randrange(1, 1 << n)] += rng.choice((1, scale))
            witness = _first_violation(raised, n)
            assert submodularity_witness(_as_table(raised), n) == witness
            if witness is None:
                check_oracle(make_family(ExplicitTable(tuple(raised))))
                continue
            s, i, j = witness
            message = f"quadruple violated at S={SubsetMask(s, n)}, i={i}, j={j}"
            with pytest.raises(NonSubmodular) as err:
                make_family(ExplicitTable(tuple(raised)))
            assert str(err.value) == message


def test_quadruple_check_exact_at_the_int64_table_edge():
    # entries just under 2^60 stay int64; their second differences reach
    # about -2^61 (a cut of capacity big between {0} and {1}, submodular)
    # and +2^61 (f(S+i+j) + f(S) = 2 big against f(S+i) + f(S+j) = 0)
    big = 2**60 - 1
    cut = make_family(ExplicitTable((0, big, big, 0)))
    assert cut.dense_table().dtype == np.int64
    check_oracle(cut)
    # S = {2}, i = 0, j = 1: f({2}) = f({0,1,2}) = big against
    # f({0,2}) = f({1,2}) = 0, after S = {} passed with equality
    values = (0, big, 0, big, big, 0, 0, big)
    table = _as_table(values)
    assert table.dtype == np.int64
    assert _first_violation(values, 3) == (4, 0, 1)
    assert submodularity_witness(table, 3) == (4, 0, 1)
    with pytest.raises(NonSubmodular,
                       match=r"^quadruple violated at S=\{2\}, i=0, j=1$"):
        make_family(ExplicitTable(values))


def test_quadruple_check_exact_near_int64_limit():
    # every value fits in int64, but the quadruple sum f({0}) + f({1})
    # - f({0,1}) - f(empty) does not
    big = 3 * 2**61
    check_oracle(make_family(ExplicitTable((0, big, big, 1))))
    with pytest.raises(NonSubmodular):
        make_family(ExplicitTable((0, big, big, 2 * big + 1)))


def test_call_counter_monotone(two_elem):
    before = two_elem.calls
    two_elem.eval(3)
    mid = two_elem.calls
    two_elem.eval(0)
    assert before < mid < two_elem.calls


def test_direction_validation():
    with pytest.raises(ValueError):
        Direction(())
    with pytest.raises(ValueError):
        Direction((0, -3))
    d = Direction((2, -1, 0))
    assert d.norm1 == 3
    assert d.of(0b101) == 2


def test_direction_past_size_limit_rejected():
    Direction((1,) * TABLE_N_CAP)
    with pytest.raises(GroundSetTooLarge):
        Direction((1,) * (TABLE_N_CAP + 1))
