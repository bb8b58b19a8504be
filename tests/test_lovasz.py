import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyls import (DenseLovasz, ExplicitTable, SubmodularOracle, evaluate,
                    greedy_order, greedy_vertex, make_family, subgradient)
from conftest import iter_instances

rationals = st.fractions(min_value=-5, max_value=5,
                         max_denominator=40)


def test_greedy_order_tie_break(two_elem):
    assert greedy_order((0.5, 0.5)) == (0, 1)
    assert greedy_order((Fraction(1, 7), Fraction(1, 7))) == (0, 1)
    # the chain {0} < {0, 1}: element 0 gains f({0}), element 1 the rest
    assert greedy_vertex(two_elem, greedy_order((0.5, 0.5))) == [2, 1]
    assert greedy_vertex(two_elem, (1, 0)) == [1, 2]


@given(st.lists(st.integers(-100, 100), min_size=1, max_size=12, unique=True))
def test_greedy_order_sorts_descending(xs):
    perm = greedy_order(xs)
    assert sorted(xs, reverse=True) == [xs[i] for i in perm]


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=10))
def test_dense_order_matches_greedy_order_with_ties(xs):
    # few distinct values, so most draws have ties (and -0.0 next to 0.0)
    x = np.array(xs, dtype=np.float64) * 0.5
    lov = DenseLovasz(make_family(ExplicitTable((0,) * (1 << len(xs)))))
    assert tuple(lov._order(x).tolist()) == greedy_order(x.tolist())
    assert tuple(lov._order(-x).tolist()) == greedy_order((-x).tolist())


def test_worked_values(two_elem):
    assert evaluate(two_elem, (Fraction(1, 7), Fraction(1, 7))) == Fraction(3, 7)
    assert evaluate(two_elem, (1, 0)) == 2
    assert subgradient(two_elem, (1, 0)) == (2, 1)
    assert subgradient(two_elem, (0, 1)) == (1, 2)


def test_point_needs_n_entries(two_elem):
    for x in ((1,), (1, 0, 0), ()):
        with pytest.raises(ValueError):
            evaluate(two_elem, x)
        with pytest.raises(ValueError):
            subgradient(two_elem, x)


def test_corner_agreement():
    for inst in iter_instances(2, seed=50, n_max=10):
        f, _ = inst.build()
        for mask in range(1 << f.n):
            x = [(mask >> i) & 1 for i in range(f.n)]
            assert evaluate(f, x) == f.eval(mask)


@given(t=st.fractions(min_value=0, max_value=9, max_denominator=30),
       xs=st.lists(rationals, min_size=2, max_size=6))
def test_positive_homogeneity_exact(two_elem6, t, xs):
    f = two_elem6[len(xs)]
    assert evaluate(f, [t * v for v in xs]) == t * evaluate(f, xs)


# one random table-backed oracle per ground-set size, built once
@pytest.fixture(scope="module")
def two_elem6():
    from polyls.instances import random_spec
    from polyls import make_family
    return {n: make_family(random_spec("coverage", n, random.Random(n)))
            for n in range(2, 7)}


def test_subgradient_supports_and_convexity():
    rng = random.Random(7)
    for inst in iter_instances(2, seed=123, n_max=8):
        f, _ = inst.build()
        for _ in range(5):
            x = [Fraction(rng.randint(-40, 40), 8) for _ in range(f.n)]
            y = [Fraction(rng.randint(-40, 40), 8) for _ in range(f.n)]
            v = subgradient(f, x)
            fx = evaluate(f, x)
            assert sum(vi * xi for vi, xi in zip(v, x)) == fx
            assert evaluate(f, y) >= fx + sum(vi * (yi - xi)
                                              for vi, yi, xi in zip(v, y, x))


def test_subgradient_in_base_polytope():
    rng = random.Random(3)
    for inst in iter_instances(2, seed=77, n_max=8):
        f, _ = inst.build()
        x = [Fraction(rng.randint(-30, 30), 4) for _ in range(f.n)]
        v = subgradient(f, x)
        full = (1 << f.n) - 1
        assert sum(v) == f.eval(full)
        for mask in range(1 << f.n):
            vs = sum(v[i] for i in range(f.n) if mask >> i & 1)
            assert vs <= f.eval(mask)


def test_extension_is_max_over_greedy_vertices():
    for inst in iter_instances(1, seed=31, n_max=5):
        f, _ = inst.build()
        n = f.n
        rng = random.Random(inst.seed)
        x = [Fraction(rng.randint(-20, 20), 3) for _ in range(n)]
        best = None
        for perm in itertools.permutations(range(n)):
            mask = 0
            prev = 0
            dot = 0
            for e in perm:
                mask |= 1 << e
                cur = f.eval(mask)
                dot += x[e] * (cur - prev)
                prev = cur
            best = dot if best is None else max(best, dot)
        assert evaluate(f, x) == best


def test_cost_is_exactly_n_oracle_calls():
    f = SubmodularOracle(3, [0, 1, 3, 3, 2, 3, 5, 5], m_bound=5)
    evaluate(f, (0.3, -0.2, 0.9))
    assert f.calls == 3
    subgradient(f, (1.0, 2.0, 3.0))
    assert f.calls == 6
    greedy_vertex(f, (1, 0, 2))
    assert f.calls == 9


def test_dense_lovasz_matches_generic():
    rng = np.random.default_rng(5)
    for inst in iter_instances(2, seed=200, n_max=9):
        f, _ = inst.build()
        fast = DenseLovasz(f)
        fast_eps = DenseLovasz(f, eps=0.125)
        for _ in range(4):
            x = rng.normal(size=f.n)
            val, g, chain = fast.value_subgrad(x)
            ref = evaluate(f, [float(v) for v in x])
            gref = subgradient(f, [float(v) for v in x])
            assert math.isclose(val, ref, rel_tol=1e-12, abs_tol=1e-9)
            assert np.allclose(g, gref)
            perm = greedy_order([float(v) for v in x])
            masks = itertools.accumulate(1 << e for e in perm)
            assert chain.tolist() == list(masks)
            # perturbed variant adds eps times the max coordinate
            val_eps, _, _ = fast_eps.value_subgrad(x)
            assert math.isclose(val_eps, ref + 0.125 * float(x.max()),
                                rel_tol=1e-12, abs_tol=1e-9)
