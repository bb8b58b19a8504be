from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyls import (Direction, ExplicitTable, IntervalGeometric, check_oracle,
                    infinity_norm, lift, make_family, newton_scale, perturb,
                    subgradient, submodularity_witness, translate)
from polyls.errors import (EmptyNotZero, GroundSetTooLarge, NegativeValue,
                           NonSubmodular)
from polyls.instances import random_instance, random_spec
from polyls.oracles import TABLE_N_CAP
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


def test_perturb(two_elem):
    eps = Fraction(1, 49)
    fe = perturb(two_elem, eps)
    assert fe.eval(0) == 0
    assert fe.eval(0b01) == Fraction(99, 49)
    assert fe.eval(0b11) == 3 + eps
    # constant shift on nonempty sets preserves submodularity
    for inst in iter_instances(3, seed=41, n_max=6):
        f, d = inst.build()
        g = perturb(f, Fraction(1, d.norm1 ** 2))
        assert g.eval(0) == 0
        assert submodularity_witness(g.dense_table(), g.n) is None


def test_translate(two_elem):
    same = translate(two_elem, (0, 0))
    assert [same.eval(m) for m in range(4)] == [0, 2, 2, 3]
    moved = translate(two_elem, (1, 1))
    assert moved.eval(0b01) == 1 and moved.eval(0b11) == 1
    # translating by a base-polytope vertex keeps f' >= 0 everywhere
    for inst in iter_instances(3, seed=99, n_max=10):
        f, d = inst.build()
        x0 = subgradient(f, list(range(f.n))).v
        shifted = translate(f, x0)
        assert min(shifted.dense_table()) >= 0


def test_newton_scale(two_elem, d34):
    assert newton_scale(two_elem, d34, Fraction(0)).dense_table() == \
        two_elem.dense_table()
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
