from fractions import Fraction

import pytest

from polyls import (Direction, ExplicitTable, make_family, membership,
                    minimize_bruteforce, minimize_mnp, newton_scale)
from polyls.errors import GroundSetTooLarge
from polyls.oracles import SubmodularOracle
from polyls.subsets import SubsetMask
from conftest import iter_instances


def test_bruteforce_on_nonnegative_function(two_elem):
    res = minimize_bruteforce(two_elem)
    assert res.min_value == 0
    assert res.minimal_minimizer == SubsetMask.empty(2)
    assert res.maximal_minimizer == SubsetMask.empty(2)
    assert res.certified


def test_bruteforce_on_shifted_function(two_elem, d34):
    h = newton_scale(two_elem, d34, Fraction(1))  # f(S) - d(S): 0,-1,-2,-4
    res = minimize_bruteforce(h)
    assert res.min_value == -4
    assert res.minimal_minimizer == SubsetMask.full(2)


def test_bruteforce_constant_zero():
    res = minimize_bruteforce(make_family(ExplicitTable((0, 0, 0, 0))))
    assert res.min_value == 0
    assert res.minimal_minimizer == SubsetMask.empty(2)
    assert res.maximal_minimizer == SubsetMask.full(2)


def test_bruteforce_cap():
    # the size limit is enforced where oracles are made, so no oracle past it
    # ever reaches the enumerator
    with pytest.raises(GroundSetTooLarge):
        minimize_bruteforce(SubmodularOracle(21, lambda m: 0, m_bound=0))


def test_minimizer_lattice_closure():
    for inst in iter_instances(3, seed=88, n_max=10):
        f, d = inst.build()
        h = newton_scale(f, d, Fraction(3, 2))
        table = h.dense_table()
        best = min(table)
        minimizers = [m for m, v in enumerate(table) if v == best]
        for a in minimizers[:20]:
            for b in minimizers[:20]:
                assert table[a | b] == best
                assert table[a & b] == best


def test_mnp_equals_bruteforce_and_certifies():
    pure_mnp = 0
    for inst in iter_instances(8, seed=500, n_max=12):
        f, d = inst.build()
        # shift so the minimum is usually attained off the empty set
        h = newton_scale(f, d, Fraction(2, 3))
        ref = minimize_bruteforce(h)
        res = minimize_mnp(h)
        assert res.min_value == ref.min_value
        assert h.eval(res.minimal_minimizer) == ref.min_value
        assert h.eval(res.maximal_minimizer) == ref.min_value
        assert res.certified
        pure_mnp += res.method == "mnp"
    assert pure_mnp > 0  # the float path itself certifies most of the batch


def test_mnp_modular_single_vertex():
    # modular function: the base polytope is one point, convergence immediate
    w = (-3, 5, -1, 2, 0)
    table = [sum(wi for i, wi in enumerate(w) if m >> i & 1) for m in range(32)]
    f = SubmodularOracle(5, m_bound=sum(abs(v) for v in w), table=table)
    res = minimize_mnp(f)
    assert res.min_value == -4
    assert res.minimal_minimizer == SubsetMask.from_indices(5, (0, 2))
    assert res.major_cycles <= 6
    assert res.certified


def test_mnp_norm_monotone():
    for inst in iter_instances(2, seed=654, n_max=10):
        f, d = inst.build()
        res = minimize_mnp(newton_scale(f, d, Fraction(1, 2)))
        hist = res.norm_history
        for a, b in zip(hist, hist[1:]):
            assert b <= a * (1 + 1e-9) + 1e-12


def test_membership_worked_examples(two_elem):
    ok = membership(two_elem, (Fraction(9, 7), Fraction(12, 7)))
    assert ok.inside and ok.violating_set is None

    assert membership(two_elem, (Fraction(2), Fraction(-2))).inside

    bad = membership(two_elem, (Fraction(3), Fraction(-3)))
    assert not bad.inside
    assert bad.violating_set == SubsetMask.from_indices(2, (0,))
    assert bad.margin == -1


def test_membership_monotone_in_lambda():
    for inst in iter_instances(2, seed=31, n_max=9):
        f, d = inst.build()
        seen_outside = False
        for k in range(0, 12):
            lam = Fraction(k, 5)
            inside = membership(f, [lam * di for di in d.d]).inside
            if seen_outside:
                assert not inside
            seen_outside = seen_outside or not inside
        assert membership(f, [0 * di for di in d.d]).inside
