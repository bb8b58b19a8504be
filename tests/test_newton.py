import random
from fractions import Fraction

import pytest

from polyls import (Direction, ExplicitTable, IntervalGeometric, binary_search,
                    bruteforce_linesearch, discrete_newton, envelope,
                    ladder_spacing, make_family, membership, solve_dual,
                    upper_bound)
from polyls.errors import BadStart
from polyls.subsets import SubsetMask
from conftest import iter_instances


def test_upper_bound(two_elem, d34, d_mixed):
    assert upper_bound(two_elem, d34) == Fraction(1, 2)
    assert upper_bound(two_elem, d_mixed) == 2
    f = make_family(IntervalGeometric(2))
    assert upper_bound(f, Direction((100, 299))) == Fraction(1, 25)


def test_envelope(two_elem, d34, d_mixed):
    assert envelope(two_elem, d34, Fraction(0)) == (0, SubsetMask.empty(2))
    val, s = envelope(two_elem, d34, Fraction(1, 2))
    assert (val, s) == (Fraction(-1, 2), SubsetMask.full(2))
    val, s = envelope(two_elem, d_mixed, Fraction(3))
    assert (val, s) == (-1, SubsetMask.from_indices(2, (0,)))


def test_newton_worked_examples(two_elem, d34, d_mixed):
    res = discrete_newton(two_elem, d34, Fraction(1, 2))
    assert res.lambda_star == Fraction(3, 7)
    assert res.tight_set == SubsetMask.full(2)
    assert res.newton_iterations == 1

    res = discrete_newton(two_elem, d_mixed, Fraction(2))
    assert res.lambda_star == 2
    assert res.tight_set == SubsetMask.from_indices(2, (0,))
    assert res.newton_iterations == 0  # started exactly on the intersection

    f = make_family(IntervalGeometric(2))
    for big in (2, 7, 50):
        d = Direction((big, 3 * big - 1))
        assert discrete_newton(f, d).lambda_star == Fraction(4, big)


def test_newton_bad_start(two_elem, d34):
    with pytest.raises(BadStart):
        discrete_newton(two_elem, d34, Fraction(1, 5))  # below 3/7
    with pytest.raises(BadStart):
        discrete_newton(two_elem, d34, Fraction(0))


def test_newton_zero_intersection():
    # a singleton with zero value and positive direction pins lambda* = 0
    from polyls import ExplicitTable
    f = make_family(ExplicitTable((0, 0, 3, 3)))
    res = discrete_newton(f, Direction((2, 1)))
    assert res.lambda_star == 0
    assert res.tight_set == SubsetMask.from_indices(2, (0,))


def test_newton_matches_bruteforce_exactly():
    for inst in iter_instances(10, seed=2000, n_max=12):
        f, d = inst.build()
        assert discrete_newton(f, d).lambda_star == \
            bruteforce_linesearch(f, d).lambda_star


def test_newton_trace_structure():
    for inst in iter_instances(3, seed=4100, n_max=10):
        f, d = inst.build()
        res = discrete_newton(f, d)
        tr = res.trace
        lams = [it[0] for it in tr.iterates]
        assert all(a > b for a, b in zip(lams, lams[1:]))
        assert tr.iterates[-1][2] == 0
        # every iterate after the first is a ladder point of its predecessor
        for (lam_a, s_a, g_a), (lam_b, _, _) in zip(tr.iterates, tr.iterates[1:]):
            assert lam_b == Fraction(f.eval(s_a), d.of(s_a))


def test_warm_start_bound():
    for inst in iter_instances(5, seed=5200, n_max=10):
        f, d = inst.build()
        star = bruteforce_linesearch(f, d).lambda_star
        eps = ladder_spacing(d)
        for k in (1, 2, 3):
            res = discrete_newton(f, d, star + k * eps - eps / 2)
            assert res.lambda_star == star
            assert res.newton_iterations <= k


def test_feasibility_sandwich():
    # inside exactly at the intersection, outside one ladder step past it
    for inst in iter_instances(4, seed=8800, n_max=12):
        f, d = inst.build()
        res = discrete_newton(f, d)
        star = res.lambda_star
        assert membership(f, [star * di for di in d.d]).inside
        past = star + ladder_spacing(d)
        assert not membership(f, [past * di for di in d.d]).inside


def test_ladder_spacing_values(d34, d_mixed):
    assert ladder_spacing(d34) == Fraction(1, 49)
    assert ladder_spacing(d_mixed) == Fraction(1, 4)


def test_ladder_spacing_separates_ratios():
    for inst in iter_instances(4, seed=6033, n_max=10):
        f, d = inst.build()
        table = f.dense_table()
        eps = ladder_spacing(d)
        ratios = sorted({Fraction(table[m], d.of(m))
                         for m in range(1, 1 << f.n) if d.of(m) > 0})
        for a, b in zip(ratios, ratios[1:]):
            assert b - a >= eps


def test_first_breakpoint_of_worst_case_envelope():
    f = make_family(IntervalGeometric(2))
    for big in (10, 100, 1000):
        d = Direction((big, 3 * big - 1))
        star = Fraction(4, big)
        bp = Fraction(12, 3 * big - 1)
        one = SubsetMask.from_indices(2, (0,))
        both = SubsetMask.full(2)
        # the two candidate segments cross exactly at bp
        assert f.eval(one) - bp * d.of(one) == f.eval(both) - bp * d.of(both)
        assert envelope(f, d, (star + bp) / 2)[1] == one
        assert envelope(f, d, bp + (bp - star) / 2)[1] == both


def test_binary_search_worked(two_elem, d34, d_mixed):
    res = binary_search(two_elem, d_mixed, Fraction(0), Fraction(2), Fraction(1, 4))
    assert res.membership_calls == 3
    assert Fraction(7, 4) <= res.value <= 2

    res = binary_search(two_elem, d_mixed, Fraction(0), Fraction(2), Fraction(4))
    assert res.value == 0 and res.membership_calls == 0

    res = binary_search(two_elem, d34, Fraction(0), Fraction(1, 2), Fraction(1, 98))
    assert res.membership_calls == 6
    assert res.value <= Fraction(3, 7) < res.value + Fraction(1, 98)


def test_binary_search_sandwich_random():
    rng = random.Random(9)
    for inst in iter_instances(4, seed=7001, n_max=9):
        f, d = inst.build()
        star = bruteforce_linesearch(f, d).lambda_star
        eps = Fraction(1, rng.randint(3, 60))
        res = binary_search(f, d, eps=eps)
        assert res.value <= star <= res.value + eps
        assert membership(f, [res.value * di for di in d.d]).inside


# --- exactness across the int64 / Python-int table boundary ---------------


@pytest.mark.parametrize("values, direction", [
    ((0, 2**64, 2**64, 2**64 + 1), (3, 4)),
    ((0, 2**59 + 1, 2**59, 2**59 + 7), (999, 1000)),
    ((0, 2**62, 2**62 - 1, 2**62 + 5), (-5, 7)),
], ids=["values-past-2^63", "only-qM-past-2^60", "mixed-direction-past-2^60"])
def test_exact_across_int64_boundary(values, direction):
    f = make_family(ExplicitTable(values))
    d = Direction(direction)
    star = bruteforce_linesearch(f, d).lambda_star
    eps = ladder_spacing(d)
    hi = upper_bound(f, d)
    for lam in (Fraction(0), star - eps, star, star + eps, hi):
        g, s = envelope(f, d, lam)
        assert g == min(f.eval(m) - lam * d.of(m) for m in range(1 << f.n))
        assert f.eval(s) - lam * d.of(s) == g
        mem = membership(f, [lam * di for di in d.d])
        assert mem.margin == g and mem.inside == (g >= 0)
    bs = binary_search(f, d, Fraction(0), hi, eps)
    routes = {"newton": discrete_newton(f, d), "dualcut": solve_dual(f, d),
              "binary": discrete_newton(f, d, bs.value + eps)}
    for route, res in routes.items():
        assert res.lambda_star == star, route
        assert f.eval(res.tight_set) == star * d.of(res.tight_set), route


def test_zero_function_envelope_at_tiny_lambda():
    # q = 2^70 with M = 0: the scale itself is past int64
    f = make_family(ExplicitTable((0, 0, 0, 0)))
    assert envelope(f, Direction((1, 1)), Fraction(1, 2**70)) == \
        (Fraction(-1, 2**69), SubsetMask.full(2))
