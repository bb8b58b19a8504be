import gc
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from polyls import (DenseLovasz, Direction, ReducedProblem,
                    bruteforce_linesearch, cutting_plane_minimize, dualcut,
                    evaluate, lift_point, make_family, solve_dual,
                    solve_dual_base, verify_lifting)
from polyls.dualcut import (_box_min, _PhiOracle, float_resolution,
                            perturb, unit_box)
from polyls.errors import InfeasibleBaseLineSearch, IterationCapExceeded
from polyls.instances import random_instance
from polyls.newton import upper_bound
from polyls.oracles import ExplicitTable, IntervalGeometric, infinity_norm
from polyls.subsets import SubsetMask
from conftest import iter_instances


def test_reduced_problem_formulas(two_elem, d34):
    prob = ReducedProblem.for_instance(two_elem, d34)
    assert prob.pivot == 1 and prob.d_pivot == 4
    assert prob.omega_dim == 1 and prob.d_rest == (3,)
    assert prob.eps == Fraction(1, 49)
    assert prob.m_bound == 3
    # kappa = 4 n M^3 ||d||_1^5 with n = 2, M = 3, ||d||_1 = 7
    assert prob.cut_cap == int(8 * math.log(4 * 2 * 3**3 * 7**5)) + 100 == 220
    # the zero function keeps a finite budget: M is clamped to 1
    zero = ReducedProblem.for_instance(
        make_family(ExplicitTable((0, 0, 0, 0))), d34)
    assert zero.m_bound == 0
    assert zero.cut_cap == int(8 * math.log(4 * 2 * 7**5)) + 100 == 194


def test_lift_point(two_elem, d34, d_mixed):
    prob = ReducedProblem.for_instance(two_elem, d34)
    assert lift_point([Fraction(0)], prob) == [0, Fraction(1, 4)]
    assert lift_point([Fraction(1, 7)], prob) == [Fraction(1, 7), Fraction(1, 7)]

    prob = ReducedProblem.for_instance(two_elem, d_mixed)
    assert prob.pivot == 0
    assert lift_point([Fraction(0)], prob) == [1, 0]


def test_lift_point_exact_hyperplane():
    rng = random.Random(12)
    for inst in iter_instances(2, seed=880, n_max=9):
        f, d = inst.build()
        prob = ReducedProblem.for_instance(f, d)
        z = [Fraction(rng.randint(-20, 20), rng.randint(1, 9))
             for _ in range(prob.omega_dim)]
        x = lift_point(z, prob)
        assert sum(di * xi for di, xi in zip(d.d, x)) == 1


def test_phi_values(two_elem, d34):
    prob = ReducedProblem.for_instance(two_elem, d34)
    assert evaluate(two_elem, lift_point([Fraction(1, 7)], prob)) == Fraction(3, 7)
    fn = _PhiOracle(DenseLovasz(two_elem), prob)
    assert fn.best_mask is None
    # at z = 0 the lifted point is 1_{pivot}/4, where the extension reads
    # f({pivot})/4; its chain {1} < {0, 1} has ratios 2/4 and 3/7, so it
    # offers the vertex 1_{0,1}/7, whose reduced coordinate is z = 1/7
    val0, _, (ratio, vertex) = fn(np.zeros(1))
    assert math.isclose(val0, two_elem.eval(0b10) / 4, rel_tol=1e-12)
    assert math.isclose(ratio, 3.0 / 7.0, rel_tol=1e-12)
    assert vertex.tolist() == [1.0 / 7.0]
    assert fn.best_mask == 0b11
    # at z = 1/7 the chain {0} < {0, 1} holds nothing better: no candidate
    val, _, cand = fn(np.array([1.0 / 7.0]))
    assert math.isclose(val, 3.0 / 7.0, rel_tol=1e-12)
    assert cand is None and fn.best_mask == 0b11


def test_chain_candidates_are_vertices_below_their_query():
    # the level-set rounding: on the slice, x >= 0, the extension is at
    # least the best ratio of the query's chain, and that ratio's vertex
    # 1_S/d(S) lies in the search domain
    rng = np.random.default_rng(31)
    offered = 0
    for inst in iter_instances(4, seed=6200, n_max=10):
        f, d = inst.build()
        prob = ReducedProblem.for_instance(f, d)
        star = bruteforce_linesearch(f, d).lambda_star
        fn = _PhiOracle(DenseLovasz(f), prob)
        hi = unit_box(prob)
        best = math.inf
        for _ in range(6):
            z = rng.uniform(0.0, 1.0, size=prob.omega_dim) * hi
            scale = float(np.dot(prob.d_rest, z))
            if scale > 1:
                z /= scale * 1.01
            val, _, cand = fn(z)
            if cand is None:
                assert val >= best * (1 - 1e-12)
                continue
            offered += 1
            ratio, vertex = cand
            mask = fn.best_mask
            den = d.of(mask)
            assert den > 0
            exact = Fraction(f.eval(mask), den)
            assert exact >= star
            assert math.isclose(ratio, float(exact), rel_tol=1e-12)
            assert val >= ratio * (1 - 1e-12) - 1e-12
            assert ratio < best
            best = ratio
            x = [Fraction(1, den) if mask >> i & 1 else Fraction(0)
                 for i in range(f.n)]
            want = x[:prob.pivot] + x[prob.pivot + 1:]
            assert vertex.tolist() == [float(v) for v in want]
            assert ((0 <= vertex) & (vertex <= hi)).all()
            assert sum(di * vi for di, vi in zip(prob.d_rest, want)) <= 1
    assert offered >= 20


def test_phi_chain_rule_against_finite_differences():
    rng = np.random.default_rng(77)
    checked = 0
    h = 1e-7
    while checked < 100:
        inst = random_instance(random.Random(checked).choice(
            ("coverage", "digraph-cut", "concave-modular")),
            2 + checked % 7, 9000 + checked)
        f, d = inst.build()
        prob = ReducedProblem.for_instance(f, d)
        phi_fn = _PhiOracle(DenseLovasz(f), prob)
        m = prob.omega_dim
        z = rng.uniform(-1.0, 1.0, size=m)
        x = lift_point(z, prob)
        gaps = np.diff(np.sort(np.asarray(x, dtype=float)))
        if gaps.size and gaps.min() < 1e-3:
            checked += 1  # skip tie-prone points but keep the schedule moving
            continue
        val, g, _ = phi_fn(z)
        assert math.isclose(val, float(evaluate(f, x)), rel_tol=1e-9, abs_tol=1e-9)
        for i in range(m):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd = (phi_fn(zp)[0] - phi_fn(zm)[0]) / (2 * h)
            assert abs(fd - g[i]) <= 1e-6 * max(1.0, abs(g[i]))
        checked += 1


def test_engine_converges_on_two_element_example(two_elem, d34):
    prob = ReducedProblem.for_instance(two_elem, d34)
    # the minimum 3/7 sits at the vertex 1_{0,1}/7, z = 1/7
    state = cutting_plane_minimize(_PhiOracle(DenseLovasz(two_elem), prob),
                                   prob, 1e-7)
    assert state.converged
    assert state.best_point.tolist() == [1.0 / 7.0]
    assert math.isclose(state.best_value, 3.0 / 7.0, rel_tol=1e-12)
    assert state.certified_gap <= 1e-7
    assert state.lower_bound <= 3.0 / 7.0 + 1e-12


def test_engine_zero_dimensional():
    f = make_family(ExplicitTable((0, 5)))
    d = Direction((2,))
    prob = ReducedProblem.for_instance(f, d)
    state = cutting_plane_minimize(_PhiOracle(DenseLovasz(f), prob),
                                   prob, 0.1)
    assert state.converged and state.iterations == 0
    assert state.best_point.shape == (0,)
    assert state.best_value == state.lower_bound == 2.5


def test_engine_closes_on_the_zero_floor():
    # f({0}) = 0: lambda* = 0, and the chain of z_init already holds {0},
    # so the floor lambda* >= 0 closes the bracket before any cut
    f = make_family(ExplicitTable((0, 0, 2, 2)))
    d = Direction((1, 1))
    prob = ReducedProblem.for_instance(f, d)
    fn = _PhiOracle(DenseLovasz(f), prob)
    state = cutting_plane_minimize(fn, prob, float(prob.eps / 2))
    assert state.converged and state.iterations == 0
    assert state.best_value == state.lower_bound == 0.0
    assert fn.best_mask == 0b01
    res = solve_dual(f, d)
    assert res.lambda_star == 0 and res.newton_iterations == 0


def _run_engine(f, d):
    """(problem, phi, state) of the engine at solve_dual's target."""
    prob = ReducedProblem.for_instance(f, d)
    fn = _PhiOracle(DenseLovasz(f), prob)
    return prob, fn, cutting_plane_minimize(fn, prob, float(prob.eps) / 2)


def test_engine_cap_carries_state(two_elem, d34, monkeypatch):
    prob = ReducedProblem.for_instance(two_elem, d34)
    fn = _PhiOracle(DenseLovasz(two_elem), prob)
    monkeypatch.setattr(ReducedProblem, "cut_cap", property(lambda self: 3))
    with pytest.raises(IterationCapExceeded) as exc:
        cutting_plane_minimize(fn, prob, 1e-12)
    state = exc.value.state
    assert state.iterations == state.objective_cuts == 3
    assert not state.converged and not state.stalled
    assert math.isfinite(state.best_value)
    assert state.lower_bound <= state.best_value
    assert state.best_point.shape == (1,)


def test_engine_certifies_against_bruteforce_dual(monkeypatch):
    for inst in iter_instances(3, seed=233, n_max=8, n_min=2):
        f, d = inst.build()
        prob, _, state = _run_engine(f, d)
        target = float(prob.eps) / 2
        assert state.converged and state.certified_gap <= target
        # engine brackets lambda*, the minimum over the domain
        star = float(bruteforce_linesearch(f, d).lambda_star)
        slack = 1e-7 * max(1.0, abs(star))
        assert state.best_value >= star - slack
        assert state.lower_bound <= star + slack
        # feasibility of the reported point
        assert (state.best_point >= 0).all()
        assert (state.best_point <= unit_box(prob)).all()
        assert float(np.dot(prob.d_rest, state.best_point)) <= 1 + 1e-12
        assert state.feasibility_cuts == 0
        assert state.objective_cuts == state.iterations
        # the engine is deterministic, so capping it after j cuts shows its
        # state after cut j: the lower bound never falls, best never rises
        trail = []
        for cap in range(state.iterations):
            monkeypatch.setattr(ReducedProblem, "cut_cap",
                                property(lambda self, cap=cap: cap))
            with pytest.raises(IterationCapExceeded) as exc:
                _run_engine(f, d)
            trail.append(exc.value.state)
        monkeypatch.undo()
        trail.append(state)
        assert [s.iterations for s in trail] == list(range(len(trail)))
        for s0, s1 in zip(trail, trail[1:]):
            assert s1.lower_bound >= s0.lower_bound
            assert s1.best_value <= s0.best_value


def test_converged_engine_brackets_lambda_star():
    # an engine that evaluates phi outside z >= 0 reports converged with a
    # wrong bracket on these two
    cases = [(make_family(IntervalGeometric(6)), Direction((8, -9, -5, 0, 0, 0))),
             (make_family(IntervalGeometric(6)), Direction((-7, -5, 9, 7, 2, 3)))]
    cases += [inst.build() for inst in iter_instances(7, seed=4321, n_max=8, n_min=2)]
    converged = 0
    for f, d in cases:
        _, fn, state = _run_engine(f, d)
        if not state.converged:
            continue
        converged += 1
        star = bruteforce_linesearch(f, d).lambda_star
        slack = 1e-7 * max(1.0, abs(float(star)))
        assert state.lower_bound <= float(star) + slack
        assert float(star) <= state.best_value + slack
        # the half-ladder certificate: the best chain set is tight
        mask = fn.best_mask
        assert Fraction(f.eval(mask), d.of(mask)) == star
    assert converged >= 30


def test_resolution_exit_stalls_without_cuts():
    f = make_family(IntervalGeometric(14))  # M around 10^63
    d = Direction((3, -2, 5, 1, -4, 2, 2, 7, -1, 6, 1, -3, 4, 2))
    prob, _, state = _run_engine(f, d)
    assert float_resolution(f.n, f.m_bound) >= float(prob.eps) / 2
    assert state.stalled and not state.converged
    assert state.iterations == state.objective_cuts == 0
    assert state.newton_steps == 0
    assert solve_dual(f, d).lambda_star == bruteforce_linesearch(f, d).lambda_star


def test_entries_past_float_range_skip_the_engine():
    # no float image of the table: solve_dual starts Newton at the upper
    # bound and solve_dual_base keeps only its exact membership test
    big = 2 ** 1100
    f = make_family(ExplicitTable((0, big, big, big)))
    assert f.float_table is None
    d = Direction((1, 2))
    res = solve_dual(f, d)
    assert res.lambda_star == Fraction(big, 3)
    assert res.tight_set == SubsetMask.full(2)
    assert res.engine_iterations == 0 and res.trace is None
    base = solve_dual_base(f, d)
    assert base.lambda_star == Fraction(big, 3) and base.engine_iterations == 0
    # a direction past float range has no float subset sums either
    huge = Direction((big, 1))
    assert huge.float_sums is None
    f = make_family(ExplicitTable((0, 2, 2, 3)))
    assert solve_dual(f, huge).lambda_star == bruteforce_linesearch(f, huge).lambda_star


def test_unit_box_holds_every_vertex():
    # every vertex 1_S/d(S) with d(S) > 0, so the domain's minimum is lambda*
    for inst in iter_instances(6, seed=808, n_max=8, n_min=2):
        f, d = inst.build()
        prob = ReducedProblem.for_instance(f, d)
        hi = unit_box(prob)
        for mask in range(1, 1 << f.n):
            if d.of(mask) <= 0:
                continue
            x = [Fraction(1, d.of(mask)) if mask >> i & 1 else Fraction(0)
                 for i in range(f.n)]
            z = x[:prob.pivot] + x[prob.pivot + 1:]
            assert all(0 <= zi <= ui * (1 + 1e-12) for zi, ui in zip(z, hi))
            assert sum(di * zi for di, zi in zip(prob.d_rest, z)) <= 1


def _lp_min_by_vertices(c, hi, a):
    """min c.z over {0 <= z <= hi, a.z <= 1} by enumerating its vertices:
    every coordinate at a bound, or all but one at a bound and a.z = 1."""
    m = len(c)
    best = math.inf
    for corner in itertools.product((0, 1), repeat=m):
        z = np.where(np.array(corner) == 1, hi, 0.0)
        if a is None or a @ z <= 1 + 1e-12:
            best = min(best, float(c @ z))
        if a is None:
            continue
        for i in range(m):
            if a[i] == 0:
                continue
            rest = a @ z - a[i] * z[i]
            zi = (1 - rest) / a[i]
            if -1e-12 <= zi <= hi[i] + 1e-12:
                w = z.copy()
                w[i] = zi
                best = min(best, float(c @ w))
    return best


def test_box_bound_matches_vertex_enumeration():
    rng = np.random.default_rng(404)
    for trial in range(300):
        m = 1 + trial % 6
        c = rng.normal(size=m) * rng.choice([1.0, 1e-3, 1e3])
        if trial % 4 == 0:
            c = rng.integers(-2, 3, size=m).astype(float)  # ties and zeros
        a = rng.integers(-9, 10, size=m).astype(float)
        if trial % 5 == 0:
            hi, a = np.ones(m) * 1.5, None
        else:
            hi = np.where(a > 0, 1 / np.maximum(a, 1), 1.0) if trial % 2 else np.ones(m)
            if not a.any():
                a = None
        want = _lp_min_by_vertices(c, hi, a)
        got = _box_min(c, hi, a)
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)


def test_perturb(two_elem):
    with pytest.raises(ValueError):
        perturb(two_elem, 0)
    # the perturbed extension reads f(S) + eps at every indicator 1_S of a
    # nonempty S and 0 at the origin, and building it reads no value
    eps = Fraction(1, 49)
    for inst in iter_instances(3, seed=41, n_max=7, n_min=2):
        f, _ = inst.build()
        before = f.calls
        lov = perturb(f, eps)
        assert f.calls == before
        assert lov.value_subgrad(np.zeros(f.n))[0] == 0.0
        table = f.dense_table()
        for mask in range(1, 1 << f.n):
            x = np.array([(mask >> i) & 1 for i in range(f.n)], dtype=float)
            val, _, _ = lov.value_subgrad(x)
            assert math.isclose(val, float(table[mask] + eps), rel_tol=1e-12)


def test_solve_dual_worked_examples(two_elem, d34, d_mixed):
    res = solve_dual(two_elem, d34)
    assert res.lambda_star == Fraction(3, 7)
    assert res.dual_optimum == (Fraction(1, 7), Fraction(1, 7))
    assert evaluate(two_elem, res.dual_optimum) == Fraction(3, 7)

    res = solve_dual(two_elem, d_mixed)
    assert res.lambda_star == 2
    assert res.dual_optimum == (1, 0)
    assert evaluate(two_elem, res.dual_optimum) == 2


def test_solve_dual_single_element():
    f = make_family(ExplicitTable((0, 7)))
    res = solve_dual(f, Direction((3,)))
    assert res.lambda_star == Fraction(7, 3)
    assert res.engine_iterations == 0


def test_solve_dual_cross_method_exact():
    for inst in iter_instances(6, seed=3100, n_max=12):
        f, d = inst.build()
        res = solve_dual(f, d)
        assert res.lambda_star == bruteforce_linesearch(f, d).lambda_star
        # dual witness is feasible for the dual and optimal
        assert sum(di * xi for di, xi in zip(d.d, res.dual_optimum)) == 1
        assert evaluate(f, res.dual_optimum) == res.lambda_star


def test_dual_grid_lower_bounded_by_lambda_star():
    # every rational point of the dual slice evaluates at or above lambda*
    rng = random.Random(5)
    for inst in iter_instances(2, seed=4700, n_max=8):
        f, d = inst.build()
        prob = ReducedProblem.for_instance(f, d)
        star = bruteforce_linesearch(f, d).lambda_star
        for _ in range(20):
            z = [Fraction(rng.randint(0, 12), 12 * max(1, abs(di)))
                 for di in prob.d_rest]
            x = lift_point(z, prob)
            if any(xi < 0 for xi in x):
                continue
            assert evaluate(f, x) >= star


def test_perturbation_preserves_ratio_order():
    for inst in iter_instances(3, seed=911, n_max=8):
        f, d = inst.build()
        eps = Fraction(1, d.norm1 ** 2)
        table = f.dense_table()
        pos = [m for m in range(1, 1 << f.n) if d.of(m) > 0]
        lam = {m: Fraction(table[m], d.of(m)) for m in pos}
        lam_eps = {m: Fraction(table[m] + eps, 1) / d.of(m) for m in pos}
        ranked = sorted(pos, key=lambda m: lam[m])
        for a, b in zip(ranked, ranked[1:]):
            if lam[a] < lam[b]:
                assert lam_eps[a] < lam_eps[b]
        star = min(lam.values())
        star_eps = min(lam_eps.values())
        assert star <= star_eps <= star + 2 * eps


def _traced_dual(monkeypatch):
    """Run solve_dual recording every chain its queries read and the start
    it hands to Newton."""
    record = {"chains": [], "starts": []}
    newton = dualcut.discrete_newton
    value_subgrad = DenseLovasz.value_subgrad

    def newton_spy(f, d, lam0):
        record["starts"].append(lam0)
        return newton(f, d, lam0)

    def value_subgrad_spy(self, x):
        out = value_subgrad(self, x)
        record["chains"].append(out[2].tolist())
        return out

    monkeypatch.setattr(dualcut, "discrete_newton", newton_spy)
    monkeypatch.setattr(DenseLovasz, "value_subgrad", value_subgrad_spy)
    return record


def test_newton_start_is_an_exact_chain_ratio(monkeypatch):
    record = _traced_dual(monkeypatch)
    for inst in iter_instances(16, seed=4141, n_max=10):
        f, d = inst.build()
        record["chains"].clear()
        record["starts"].clear()
        res = solve_dual(f, d)
        (lam0,) = record["starts"]
        assert type(lam0) is Fraction
        star = bruteforce_linesearch(f, d).lambda_star
        u = upper_bound(f, d)
        assert star == res.lambda_star <= lam0 <= u
        ratios = {Fraction(f.eval(S), d.of(S))
                  for chain in record["chains"] for S in chain if d.of(S) > 0}
        assert lam0 in ratios | {u}
        # the best chain, up to the floats that chose it
        assert lam0 - min(ratios) <= 1e-12 * lam0


def test_converged_engine_needs_no_newton_step():
    # with the bracket below half the ladder spacing, the best chain ratio is
    # lambda* and Newton only confirms it
    converged = 0
    for inst in iter_instances(20, seed=5150, n_max=10):
        f, d = inst.build()
        res = solve_dual(f, d)
        state = res.trace
        assert res.engine_iterations == state.iterations
        if state.converged:
            converged += 1
            assert res.newton_iterations == 0
    assert converged >= 60


def test_solve_dual_leaves_no_reference_cycles(two_elem, d34):
    # a cycle would keep each solve's tables alive until the cyclic
    # collector runs, so memory would grow with the number of solves
    cases = [inst.build() for inst in iter_instances(2, seed=73, n_max=10)]
    gc.collect()
    gc.disable()
    try:
        for f, d in cases:
            solve_dual(f, d)
        solve_dual_base(two_elem, d34)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_dual_optimum_bounded(two_elem):
    for inst in iter_instances(2, seed=62, n_max=10):
        f, d = inst.build()
        res = solve_dual(f, d)
        eps = Fraction(1, d.norm1 ** 2)
        bound = 2 * max(infinity_norm(f), 1) / eps
        assert max(abs(v) for v in res.dual_optimum) <= bound


def test_solve_dual_base(two_elem, d34):
    res = solve_dual_base(two_elem, d34)
    assert res.lambda_star == Fraction(3, 7)
    assert res.tight_set == SubsetMask.full(2)
    assert res.dual_optimum == (Fraction(1, 7), Fraction(1, 7))

    res = solve_dual_base(two_elem, Direction((1, 1)))
    assert res.lambda_star == Fraction(3, 2)

    with pytest.raises(InfeasibleBaseLineSearch):
        solve_dual_base(two_elem, Direction((1, -1)))  # d(E) = 0, f(E) = 3


def test_solve_dual_base_random_agreement():
    for inst in iter_instances(4, seed=5530, n_max=7, n_min=2):
        f, d = inst.build()
        full = (1 << f.n) - 1
        if d.of(full) == 0:
            continue
        lam = Fraction(f.eval(full), d.of(full))
        from polyls import membership
        if not membership(f, [lam * di for di in d.d]).inside:
            with pytest.raises(InfeasibleBaseLineSearch):
                solve_dual_base(f, d)
            continue
        res = solve_dual_base(f, d)
        assert res.lambda_star == lam


def test_solve_dual_base_decides_without_floats(monkeypatch):
    # one exact kernel call decides the base route: no float extension is
    # built and no cut is made, also where f and d have float images
    built = []
    init = DenseLovasz.__init__

    def init_spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DenseLovasz, "__init__", init_spy)
    solved = 0
    for inst in iter_instances(6, seed=5530, n_max=10, n_min=2):
        f, d = inst.build()
        assert f.float_table is not None and d.float_sums is not None
        try:
            res = solve_dual_base(f, d)
        except InfeasibleBaseLineSearch:
            continue
        solved += 1
        assert res.engine_iterations == 0 and res.trace is None
        full = SubsetMask.full(f.n)
        assert res.lambda_star == Fraction(f.eval(full), d.of(full))
    assert built == [] and solved >= 5


def test_verify_lifting(two_elem, d34, d_mixed):
    assert verify_lifting(two_elem, d34, 3 * 7 + 1)
    assert verify_lifting(two_elem, d_mixed, 3 * 2 + 1)


def test_verify_lifting_random_and_small_constant():
    falsified = 0
    for inst in iter_instances(5, seed=7700, n_max=8):
        f, d = inst.build()
        c = infinity_norm(f) * d.norm1 + 1
        assert verify_lifting(f, d, c)
        if infinity_norm(f) * d.norm1 > 1 and not verify_lifting(f, d, 1):
            falsified += 1
    # c = 1 below the threshold may fail, and on this corpus it does
    assert falsified >= 1
