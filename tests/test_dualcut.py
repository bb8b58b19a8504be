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
from polyls.dualcut import _box_min, float_resolution, perturb
from polyls.errors import InfeasibleBaseLineSearch, IterationCapExceeded
from polyls.instances import Instance, generate, random_instance
from polyls.newton import (_singleton_bound, discrete_newton, ladder_spacing,
                           minimizers_minus_modular, upper_bound)
from polyls.oracles import (ConcaveCardinalityPlusModular, ExplicitTable,
                            IntervalGeometric, infinity_norm)
from polyls.subsets import SubsetMask
from conftest import iter_instances


def test_reduced_problem_formulas(two_elem, d34):
    prob = ReducedProblem(two_elem, d34, *_singleton_bound(two_elem, d34))
    assert prob.pivot == 1 and prob.d_pivot == 4
    assert prob.omega_dim == 1 and prob.d_rest == (3,)
    assert prob.m_bound == 3
    # kappa = 4 n M^3 ||d||_1^5 with n = 2, M = 3, ||d||_1 = 7
    assert prob.cut_cap == int(8 * math.log(4 * 2 * 3**3 * 7**5)) + 100 == 220
    # the zero function keeps a finite budget: M is clamped to 1
    f = make_family(ExplicitTable((0, 0, 0, 0)))
    zero = ReducedProblem(f, d34, *_singleton_bound(f, d34))
    assert zero.m_bound == 0
    assert zero.cut_cap == int(8 * math.log(4 * 2 * 7**5)) + 100 == 194


def test_lift_point(two_elem, d34, d_mixed):
    prob = ReducedProblem(two_elem, d34, *_singleton_bound(two_elem, d34))
    assert lift_point([Fraction(0)], prob) == [0, Fraction(1, 4)]
    assert lift_point([Fraction(1, 7)], prob) == [Fraction(1, 7), Fraction(1, 7)]

    prob = ReducedProblem(two_elem, d_mixed, *_singleton_bound(two_elem, d_mixed))
    assert prob.pivot == 0
    assert lift_point([Fraction(0)], prob) == [1, 0]


def test_lift_point_exact_hyperplane():
    rng = random.Random(12)
    for inst in iter_instances(2, seed=880, n_max=9):
        f, d = inst.build()
        prob = ReducedProblem(f, d, *_singleton_bound(f, d))
        z = [Fraction(rng.randint(-20, 20), rng.randint(1, 9))
             for _ in range(prob.omega_dim)]
        x = lift_point(z, prob)
        assert sum(di * xi for di, xi in zip(d.d, x)) == 1


def test_phi_values(two_elem, d34):
    prob = ReducedProblem(two_elem, d34, *_singleton_bound(two_elem, d34))
    assert evaluate(two_elem, lift_point([Fraction(1, 7)], prob)) == Fraction(3, 7)
    # the seed: u = min(2/3, 2/4), read off the singleton {1}
    assert prob.best == 0.5 and prob.best_mask == 0b10
    # at z = 0 the lifted point is 1_{pivot}/4, where the extension reads
    # f({pivot})/4; its chain {1} < {0, 1} has ratios 2/4 and 3/7, so the
    # best set is {0, 1}, whose vertex 1_{0,1}/7 has reduced coordinate 1/7
    val0, _ = prob(np.zeros(1))
    assert math.isclose(val0, two_elem.eval(0b10) / 4, rel_tol=1e-12)
    assert math.isclose(prob.best, 3.0 / 7.0, rel_tol=1e-12)
    assert prob.best_mask == 0b11
    best = prob.best
    # at z = 1/7 the chain {0} < {0, 1} holds nothing better: best stays
    val, _ = prob(np.array([1.0 / 7.0]))
    assert math.isclose(val, 3.0 / 7.0, rel_tol=1e-12)
    assert prob.best == best and prob.best_mask == 0b11


def test_chain_candidates_are_vertices_below_their_query():
    # the level-set rounding: on the slice, x >= 0, the extension is at
    # least the best ratio of the query's chain, that ratio is the exact
    # f(S)/d(S) of best_mask, and the vertex 1_S/d(S), where the extension
    # reads it, lies in the search domain
    rng = np.random.default_rng(31)
    offered = 0
    for inst in iter_instances(4, seed=6200, n_max=10):
        f, d = inst.build()
        prob = ReducedProblem(f, d, *_singleton_bound(f, d))
        star = bruteforce_linesearch(f, d).lambda_star
        for _ in range(6):
            z = rng.uniform(0.0, 1.0, size=prob.omega_dim)
            scale = float(np.dot(prob.d_rest, z))
            if scale > 1:
                z /= scale * 1.01
            # read this query's chain alone: the seed and earlier queries
            # would hide every chain that does not beat them
            prob.best = math.inf
            val, _ = prob(z)
            if prob.best == math.inf:
                continue  # no set of the chain has d(S) > 0
            offered += 1
            ratio = prob.best
            mask = prob.best_mask
            den = d.of(mask)
            assert den > 0
            exact = Fraction(f.eval(mask), den)
            assert exact >= star
            assert math.isclose(ratio, float(exact), rel_tol=1e-12)
            assert val >= ratio * (1 - 1e-12) - 1e-12
            x = [Fraction(1, den) if mask >> i & 1 else Fraction(0)
                 for i in range(f.n)]
            assert evaluate(f, x) == exact
            want = x[:prob.pivot] + x[prob.pivot + 1:]
            vertex = np.array([float(v) for v in want])
            assert ((0 <= vertex) & (vertex <= 1)).all()
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
        prob = ReducedProblem(f, d, *_singleton_bound(f, d))
        m = prob.omega_dim
        z = rng.uniform(-1.0, 1.0, size=m)
        x = lift_point(z, prob)
        gaps = np.diff(np.sort(np.asarray(x, dtype=float)))
        if gaps.size and gaps.min() < 1e-3:
            checked += 1  # skip tie-prone points but keep the schedule moving
            continue
        val, g = prob(z)
        assert math.isclose(val, float(evaluate(f, x)), rel_tol=1e-9, abs_tol=1e-9)
        for i in range(m):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd = (prob(zp)[0] - prob(zm)[0]) / (2 * h)
            assert abs(fd - g[i]) <= 1e-6 * max(1.0, abs(g[i]))
        checked += 1


def _half_ladder(monkeypatch):
    """Fix the engine's target at eps/2, half the ladder spacing: the
    smallest target the rule sets, that of a best set with d(B) = D+ =
    ||d||_1."""
    monkeypatch.setattr(ReducedProblem, "tight_gap",
                        lambda self: float(ladder_spacing(self.direction) / 2))


def _engine_input(f, d) -> bool:
    """Whether solve_dual hands (f, d) to the engine: the engine's
    precondition n >= 2, u > 0 and a float resolution below eps/2, and no
    ratio 0 on z_init's chain either."""
    return (f.n >= 2 and dualcut._chain_bound(f, d, upper_bound(f, d)) > 0
            and float_resolution(f.n, f.m_bound) < float(ladder_spacing(d) / 2))


def _never_tight(prob):
    """The problem with its exact check patched to "not tight", so the
    engine stops by its float rule alone."""
    prob.check = lambda: False
    return prob


def _run_engine(f, d):
    """(problem, state) of the engine, by its float rule alone, on a problem
    solve_dual would build."""
    assert _engine_input(f, d)
    prob = _never_tight(ReducedProblem(f, d, *_singleton_bound(f, d)))
    return prob, cutting_plane_minimize(prob)


def test_engine_converges_on_two_element_example(two_elem, d34, monkeypatch):
    monkeypatch.setattr(ReducedProblem, "tight_gap", lambda self: 1e-7)
    # the minimum 3/7 sits at the vertex 1_{0,1}/7, z = 1/7
    prob, state = _run_engine(two_elem, d34)
    assert state.converged
    assert prob.best_mask == 0b11
    assert math.isclose(state.best_value, 3.0 / 7.0, rel_tol=1e-12)
    assert state.certified_gap <= 1e-7
    assert state.lower_bound <= 3.0 / 7.0 + 1e-12


class _MaskTrail(ReducedProblem):
    """A problem that records its best mask after every query."""

    def __init__(self, *args):
        super().__init__(*args)
        self.masks = []

    def __call__(self, z):
        out = super().__call__(z)
        self.masks.append(self.best_mask)
        return out


def _trailed_engine(f, d):
    """(problem, state) of one engine run by its float rule alone, the state
    also when capped."""
    assert _engine_input(f, d)
    prob = _never_tight(_MaskTrail(f, d, *_singleton_bound(f, d)))
    try:
        return prob, cutting_plane_minimize(prob)
    except IterationCapExceeded as exc:
        return prob, exc.state


def test_tight_gap_is_half_the_best_sets_gap(two_elem, d34):
    # D+ = 7: the seed {1} has d = 4, so the gap is 1/28; after the query
    # at z = 0 the best set is E, d(E) = 7, and the gap 1/49 is the ladder
    # spacing itself
    prob = ReducedProblem(two_elem, d34, *_singleton_bound(two_elem, d34))
    assert prob.tight_gap() == 1 / 56
    prob(np.zeros(1))
    assert prob.best_mask == 0b11 and prob.tight_gap() == 1 / 98
    for inst in iter_instances(4, seed=2024, n_max=10):
        f, d = inst.build()
        prob = ReducedProblem(f, d, *_singleton_bound(f, d))
        want = Fraction(1, 2 * d.positive_sum * d.of(prob.best_mask))
        assert prob.tight_gap() == float(want) >= float(ladder_spacing(d) / 2)


def _gap_lemma_holds(f, d):
    """Every ratio below f(B)/d(B) is at least 1/(D+ d(B)) below it, for
    every set B with d(B) > 0.  Checked at the nearest smaller ratio, which
    binds for every other."""
    table = f.dense_table()
    ratios = {mask: Fraction(int(table[mask]), d.of(mask))
              for mask in range(1, 1 << f.n) if d.of(mask) > 0}
    ladder = sorted(set(ratios.values()))
    rank = {r: k for k, r in enumerate(ladder)}
    for mask, r in ratios.items():
        k = rank[r]
        if k:
            gap = Fraction(1, d.positive_sum * d.of(mask))
            assert r - ladder[k - 1] >= gap
    return ladder[0]


def test_rule_converges_only_on_a_tight_best_set():
    # soundness of the rule: a converged run hands Newton a best set whose
    # exact ratio is lambda*, on every family at n 1-10; the gap lemma is
    # checked on every instance, the engine on those solve_dual cuts
    converged = 0
    for inst in iter_instances(34, seed=2600, n_max=10):
        f, d = inst.build()
        star = bruteforce_linesearch(f, d).lambda_star
        assert _gap_lemma_holds(f, d) == star
        if not _engine_input(f, d):
            continue
        prob, state = _trailed_engine(f, d)
        if state.converged:
            converged += 1
            mask = prob.best_mask
            assert Fraction(f.eval(mask), d.of(mask)) == star
    assert converged >= 80


def test_rule_never_cuts_more_than_the_fixed_target(monkeypatch):
    # the iterates do not depend on the target and the rule's target is at
    # least eps/2, so the rule stops at the fixed run's cut or sooner, on
    # the same best sets; solve_dual's engine, its exact check patched to
    # "not tight", is the rule's
    fewer = 0
    for inst in iter_instances(16, seed=3900, n_max=10, n_min=2):
        f, d = inst.build()
        if not _engine_input(f, d):
            continue
        rule, s_rule = _trailed_engine(f, d)
        with monkeypatch.context() as mp:
            _half_ladder(mp)
            fixed, s_fixed = _trailed_engine(f, d)
        assert s_rule.iterations <= s_fixed.iterations
        assert rule.masks == fixed.masks[:len(rule.masks)]
        fewer += s_rule.iterations < s_fixed.iterations
        with monkeypatch.context() as mp:
            mp.setattr(ReducedProblem, "check", lambda self: False)
            assert solve_dual(f, d).engine_iterations == s_rule.iterations
    assert fewer >= 15


def test_engine_cap_carries_state(two_elem, d34, monkeypatch):
    assert _engine_input(two_elem, d34)
    prob = ReducedProblem(two_elem, d34, *_singleton_bound(two_elem, d34))
    monkeypatch.setattr(ReducedProblem, "cut_cap", property(lambda self: 3))
    monkeypatch.setattr(ReducedProblem, "tight_gap", lambda self: 1e-12)
    monkeypatch.setattr(ReducedProblem, "check", lambda self: False)
    with pytest.raises(IterationCapExceeded) as exc:
        cutting_plane_minimize(prob)
    state = exc.value.state
    assert state.iterations == state.objective_cuts == 3
    assert not state.converged and not state.stalled
    assert math.isfinite(state.best_value)
    assert state.lower_bound <= state.best_value
    mask = prob.best_mask
    assert math.isclose(state.best_value,
                        two_elem.eval(mask) / d34.of(mask), rel_tol=1e-12)


def test_solve_dual_rounds_a_capped_engine(monkeypatch):
    # solve_dual catches IterationCapExceeded and rounds on the capped
    # state's best set: the answer stays exact, only the trace shows the cap
    f, d = generate("concave-modular", 8, 2).build()
    assert solve_dual(f, d).engine_iterations > 2
    monkeypatch.setattr(ReducedProblem, "cut_cap", 2)
    res = solve_dual(f, d)
    cold = discrete_newton(f, d)
    assert res.lambda_star == bruteforce_linesearch(f, d).lambda_star
    assert res.tight_set == cold.tight_set
    assert res.dual_optimum == cold.dual_optimum
    assert sum(di * xi for di, xi in zip(d.d, res.dual_optimum)) == 1
    assert evaluate(f, res.dual_optimum) == res.lambda_star
    assert res.engine_iterations == res.trace.iterations == 2
    assert not res.trace.converged and not res.trace.stalled


def test_engine_on_zero_and_nonnegative_rest(monkeypatch):
    # d_rest = 0, where the hyperplane row is the zero row 0.z <= 1, and a
    # nonnegative d_rest with entries above 1, whose vertices 1_S/d(S) all
    # lie well inside the unit box: both cut, converge by the float rule
    # (the exact check patched to "not tight") and solve exactly, with and
    # without the check
    for seed, direction, star in (
            (4, (0, 0, 0, 0, 5, 0, 0, 0), Fraction(3)),
            (5, (5, 6, 9, 1, 8, 4, 1, 3), Fraction(27, 29))):
        spec = generate("concave-modular", 8, seed).spec
        f, d = Instance(n=8, spec=spec, direction=direction).build()
        prob = ReducedProblem(f, d, *_singleton_bound(f, d))
        assert min(prob.d_rest) >= 0
        assert max(prob.d_rest) == 0 or max(prob.d_rest) > 1
        assert bruteforce_linesearch(f, d).lambda_star == star
        assert solve_dual(f, d).lambda_star == star
        with monkeypatch.context() as mp:
            mp.setattr(ReducedProblem, "check", lambda self: False)
            res = solve_dual(f, d)
        assert res.lambda_star == star
        assert res.engine_iterations > 0 and res.trace.converged
        assert evaluate(f, res.dual_optimum) == star


def test_engine_certifies_against_bruteforce_dual(monkeypatch):
    _half_ladder(monkeypatch)
    for inst in iter_instances(3, seed=233, n_max=8, n_min=2):
        f, d = inst.build()
        if not _engine_input(f, d):
            continue
        prob, state = _run_engine(f, d)
        target = float(ladder_spacing(d) / 2)
        assert state.converged and state.certified_gap <= target
        # engine brackets lambda*, the minimum over the domain
        star = float(bruteforce_linesearch(f, d).lambda_star)
        slack = 1e-7 * max(1.0, abs(star))
        assert state.best_value >= star - slack
        assert state.lower_bound <= star + slack
        # best_value is the exact ratio of the best chain set, read in floats
        mask = prob.best_mask
        assert d.of(mask) > 0
        assert math.isclose(state.best_value,
                            float(Fraction(f.eval(mask), d.of(mask))),
                            rel_tol=1e-12)
        assert state.feasibility_cuts == 0
        assert state.objective_cuts == state.iterations
        # the engine is deterministic, so capping it after j cuts shows its
        # state after cut j: the lower bound never falls, best never rises
        trail = []
        for cap in range(state.iterations):
            with monkeypatch.context() as mp:
                mp.setattr(ReducedProblem, "cut_cap",
                           property(lambda self, cap=cap: cap))
                with pytest.raises(IterationCapExceeded) as exc:
                    _run_engine(f, d)
            trail.append(exc.value.state)
        trail.append(state)
        assert [s.iterations for s in trail] == list(range(len(trail)))
        for s0, s1 in zip(trail, trail[1:]):
            assert s1.lower_bound >= s0.lower_bound
            assert s1.best_value <= s0.best_value


def test_converged_engine_brackets_lambda_star(monkeypatch):
    # geometric tables at n = 4 and 5, whose M still lets the half-ladder
    # target pass solve_dual's resolution check, with mixed-sign d: the
    # engine cuts before it converges on both
    _half_ladder(monkeypatch)
    named = [(make_family(IntervalGeometric(4)), Direction((-9, 8, -4, 9))),
             (make_family(IntervalGeometric(5)), Direction((-7, -5, 9, 7, 3)))]
    cases = [inst.build() for inst in iter_instances(12, seed=4321, n_max=8, n_min=2)]
    cases = named + [(f, d) for f, d in cases if _engine_input(f, d)]
    converged = 0
    for k, (f, d) in enumerate(cases):
        prob, state = _run_engine(f, d)
        if k < len(named):
            assert state.converged and state.iterations > 0
        if not state.converged:
            continue
        converged += 1
        star = bruteforce_linesearch(f, d).lambda_star
        slack = 1e-7 * max(1.0, abs(float(star)))
        assert state.lower_bound <= float(star) + slack
        assert float(star) <= state.best_value + slack
        # the half-ladder certificate: the best chain set is tight
        mask = prob.best_mask
        assert Fraction(f.eval(mask), d.of(mask)) == star
    assert converged >= 30


def test_reported_bracket_is_never_empty():
    # the float bound of the first cut reads 0.5000000000034 against
    # lambda* = best_value = 0.5 here; the state caps it at best_value
    f = make_family(IntervalGeometric(5))
    res = solve_dual(f, Direction((8, -9, -5, 0, 0)))
    state = res.trace
    assert res.lambda_star == Fraction(1, 2)
    assert state.converged and state.iterations == 0
    assert state.lower_bound <= state.best_value == 0.5
    for inst in iter_instances(10, seed=6060, n_max=10, n_min=2):
        state = solve_dual(*inst.build()).trace
        assert state.lower_bound <= state.best_value


def test_restart_starts_inside_and_never_deepens_the_cut(monkeypatch):
    # after each cut the engine moves the last center along -H^-1 a of the
    # new cut a before it centers again: every start _center is given is
    # strictly inside its rows, and a.y at the start is no larger than at
    # the last center, so the new cut is violated there no more than at
    # the center
    calls = []
    center = dualcut._center

    def center_spy(A, b, omega, y):
        out = center(A, b, omega, y)
        calls.append((A.copy(), b.copy(), y.copy(),
                      None if out is None else out[0]))
        return out

    monkeypatch.setattr(dualcut, "_center", center_spy)
    restarts = moved = 0
    for inst in iter_instances(40, seed=5500, n_max=10, n_min=2):
        f, d = inst.build()
        if not _engine_input(f, d):
            continue
        calls.clear()
        _trailed_engine(f, d)
        for A, b, y, _ in calls:
            assert (b - A @ y).min() > 0.0
        for (_, _, _, last), (A, _, y, _) in zip(calls, calls[1:]):
            a = A[-1]
            before, after = float(a @ last), float(a @ y)
            assert after <= before + 1e-12 * max(1.0, abs(before))
            restarts += 1
            moved += after < before
    assert restarts >= 100 and moved >= restarts // 2


def _check_corpus():
    """(f, d, lambda*) of brute-forced instances of all five families at
    n 2-10 that solve_dual hands to the engine."""
    for inst in iter_instances(80, seed=7300, n_max=10, n_min=2):
        f, d = inst.build()
        if _engine_input(f, d):
            yield f, d, bruteforce_linesearch(f, d).lambda_star


def _kernel_spy(monkeypatch) -> list:
    """Record every envelope kernel pass from now on by the module that
    made it: the engine's checks ("dualcut") and Newton's passes
    ("newton")."""
    passes = []
    for module in ("dualcut", "newton"):
        def spy(*args, module=module):
            passes.append(module)
            return minimizers_minus_modular(*args)

        monkeypatch.setattr(f"polyls.{module}.minimizers_minus_modular", spy)
    return passes


def test_check_stops_the_same_iterates_sooner(monkeypatch):
    # against the same solve with the check patched to "not tight": the
    # same lambda*, tight set, witness and Newton count, never more cuts,
    # and the queries and best sets a prefix of that run's, bit for bit, so
    # a failed check changed nothing; a solve the check stopped has lambda*
    # as its best ratio and needs no Newton step
    made = []

    class Trail(_MaskTrail):
        def __init__(self, *args):
            super().__init__(*args)
            self.queries = []
            made.append(self)

        def __call__(self, z):
            self.queries.append(z.tobytes())
            return super().__call__(z)

    monkeypatch.setattr(dualcut, "ReducedProblem", Trail)
    stopped = fewer = 0
    for f, d, star in _check_corpus():
        res = solve_dual(f, d)
        prob = made[-1]
        with monkeypatch.context() as mp:
            mp.setattr(Trail, "check", lambda self: False)
            base = solve_dual(f, d)
        assert made[-1] is not prob
        assert res.lambda_star == star
        assert (res.lambda_star, res.tight_set, res.dual_optimum,
                res.newton_iterations) == (base.lambda_star, base.tight_set,
                                           base.dual_optimum,
                                           base.newton_iterations)
        assert res.engine_iterations <= base.engine_iterations
        assert prob.masks == made[-1].masks[:len(prob.masks)]
        assert prob.queries == made[-1].queries[:len(prob.queries)]
        fewer += res.engine_iterations < base.engine_iterations
        if res.trace.checked:
            stopped += 1
            mask = prob.best_mask
            assert Fraction(f.eval(mask), d.of(mask)) == star
            assert math.isclose(res.trace.best_value, float(star),
                                rel_tol=1e-12)
            assert res.newton_iterations == 0
            assert not res.trace.converged and not res.trace.stalled
    assert stopped >= 40 and fewer >= 35


def test_checks_are_capped_and_counted(monkeypatch):
    # at most _CHECK_CAP checks per solve, each one kernel pass counted in
    # sfm_calls; a solve the check stopped makes no pass besides its
    # checks, the held one being Newton's confirm; a solve whose seed u is
    # lambda* makes no check, since only a query's improvement is checked
    passes = _kernel_spy(monkeypatch)
    stopped = tight_seed = several = 0
    for f, d, star in _check_corpus():
        passes.clear()
        res = solve_dual(f, d)
        state = res.trace
        assert state.checks == passes.count("dualcut") <= dualcut._CHECK_CAP
        assert res.sfm_calls == len(passes)
        several += state.checks > 1
        if state.checked:
            stopped += 1
            assert res.sfm_calls == state.checks == len(passes)
        if upper_bound(f, d) == star:
            tight_seed += 1
            assert state.checks == 0 and not state.checked
    assert stopped >= 40 and tight_seed >= 150 and several >= 8
    # a cap of 1 binds on the solves above that checked more than once,
    # and their answers stay exact
    monkeypatch.setattr(dualcut, "_CHECK_CAP", 1)
    for f, d, star in _check_corpus():
        passes.clear()
        res = solve_dual(f, d)
        assert res.trace.checks == passes.count("dualcut") <= 1
        assert res.sfm_calls == len(passes)
        assert res.lambda_star == star


def test_check_ends_two_zero_slack_stalls():
    # two interval-geometric n = 5 solves whose engine stalled after 24 and
    # 25 cuts, where `shift` handed `_center` a start with a zero slack:
    # the check of the first improved best set holds, so they stop exact
    # and unstalled before that start is reached
    f = make_family(IntervalGeometric(5))
    for direction, star in (((-2, -4, -3, -4, 6), Fraction(134217728)),
                            ((-2, -8, -2, 7, -6), Fraction(262144, 5))):
        d = Direction(direction)
        assert _engine_input(f, d)
        assert bruteforce_linesearch(f, d).lambda_star == star
        res = solve_dual(f, d)
        assert res.lambda_star == star and res.newton_iterations == 0
        assert res.trace.checked and not res.trace.stalled
        assert res.engine_iterations < 24


def test_resolution_exit_stalls_without_cuts(monkeypatch):
    # exit 3: the half-ladder target is at or below the float resolution,
    # so solve_dual calls no engine and reports a stalled 0-cut trace
    built = _dense_lovasz_spy(monkeypatch)
    fed = _engine_spy(monkeypatch)
    f = make_family(IntervalGeometric(14))  # M around 10^63
    d = Direction((3, -2, 5, 1, -4, 2, 2, 7, -1, 6, 1, -3, 4, 2))
    assert float_resolution(f.n, f.m_bound) >= float(ladder_spacing(d) / 2)
    res = solve_dual(f, d)
    state = res.trace
    assert state.stalled and not state.converged
    assert state.iterations == state.objective_cuts == 0
    assert state.newton_steps == 0
    assert built == [] and fed == []
    assert res.lambda_star == bruteforce_linesearch(f, d).lambda_star


def _dense_lovasz_spy(monkeypatch) -> list:
    """Record every DenseLovasz built from now on."""
    built = []
    init = DenseLovasz.__init__

    def init_spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DenseLovasz, "__init__", init_spy)
    return built


def _engine_spy(monkeypatch) -> list:
    """Record every problem solve_dual hands to the engine from now on."""
    fed = []
    engine = dualcut.cutting_plane_minimize

    def engine_spy(prob):
        fed.append(prob)
        return engine(prob)

    monkeypatch.setattr(dualcut, "cutting_plane_minimize", engine_spy)
    return fed


def _start_chain(d):
    """The masks of z_init's greedy chain: the pivot (the first largest
    d_e), then the other elements in ascending index."""
    pivot = min(range(d.n), key=lambda i: (-d.d[i], i))
    chain, mask = [], 0
    for i in [pivot] + [i for i in range(d.n) if i != pivot]:
        mask |= 1 << i
        chain.append(mask)
    return chain


def test_entries_past_float_range_skip_the_engine(monkeypatch):
    # no float image of the table: M is past float64 range, so solve_dual
    # takes the resolution exit and reports a stalled 0-cut trace, with
    # Newton's start 2^1100/3 stored as inf; solve_dual_base keeps only its
    # exact membership test
    built = _dense_lovasz_spy(monkeypatch)
    big = 2 ** 1100
    f = make_family(ExplicitTable((0, big, big, big)))
    assert f.float_table is None
    d = Direction((1, 2))
    res = solve_dual(f, d)
    assert res.lambda_star == Fraction(big, 3)
    assert res.tight_set == SubsetMask.full(2)
    assert res.engine_iterations == 0 and res.newton_iterations == 0
    assert res.trace == dualcut.CutEngineState(math.inf, 0.0, 0, False,
                                               stalled=True)
    assert res.trace.certified_gap == math.inf
    base = solve_dual_base(f, d)
    assert base.lambda_star == Fraction(big, 3) and base.engine_iterations == 0
    # a direction past float range has no float subset sums either: its
    # ladder spacing is 0.0 in floats, below every resolution
    huge = Direction((big, 1))
    assert huge.float_sums is None
    f = make_family(ExplicitTable((0, 2, 2, 3)))
    res = solve_dual(f, huge)
    assert res.lambda_star == bruteforce_linesearch(f, huge).lambda_star
    assert res.trace.stalled and res.trace.iterations == 0
    assert res.trace.best_value == float(res.lambda_star)
    assert built == []


def test_resolution_exit_builds_no_float_state(monkeypatch):
    # exit 3: the half-ladder target is at or below the float resolution, so
    # solve_dual builds no extension and reads only the seed (the
    # singletons, E) and z_init's chain before Newton, which starts from
    # their best exact ratio
    built = _dense_lovasz_spy(monkeypatch)
    rng = random.Random(7702)
    cases = []
    for n in range(6, 15):
        for _ in range(3):
            d = [rng.randint(-9, 9) for _ in range(n)]
            d[rng.randrange(n)] = rng.randint(1, 9)
            cases.append((make_family(IntervalGeometric(n)), Direction(tuple(d))))
    # an int64 table: a concave function of |S| at scale 2^50
    c = 2 ** 50
    f = make_family(ConcaveCardinalityPlusModular((0, 3 * c, 5 * c, 6 * c, 6 * c),
                                                  (0, 0, 0, 0)))
    assert f.dense_table().dtype == np.int64
    cases.append((f, Direction((2, -1, 3, 1))))
    for f, d in cases:
        assert float_resolution(f.n, f.m_bound) >= float(ladder_spacing(d) / 2)
        before = f.calls
        res = solve_dual(f, d)
        assert f.calls - before == res.oracle_calls
        assert built == []
        assert res.trace.stalled and not res.trace.converged
        assert res.trace.iterations == res.engine_iterations == 0
        assert res.trace.lower_bound == 0.0
        star = bruteforce_linesearch(f, d).lambda_star
        assert res.lambda_star == star
        # Newton starts from the best exact seed or chain ratio
        chain = _start_chain(d)
        pos = [S for S in [1 << e for e in range(f.n)] + chain if d.of(S) > 0]
        lam0 = min(Fraction(f.eval(S), d.of(S)) for S in pos)
        assert res.trace.best_value == float(lam0)
        before = f.calls
        cold = discrete_newton(f, d, lam0)
        newton_reads = f.calls - before  # its result check included
        assert res.newton_iterations == cold.newton_iterations
        # the singletons with d_e > 0, E when d(E) > 0, and the sets
        # strictly between on z_init's chain with d(S) > 0
        singletons = sum(de > 0 for de in d.d)
        between = sum(d.of(S) > 0 for S in chain[1:-1])
        assert res.oracle_calls == (singletons + (d.of(chain[-1]) > 0) + between
                                    + newton_reads)


def test_start_chain_is_pivot_first_ascending(monkeypatch):
    # z_init's lifted point puts the pivot above every other coordinate,
    # which tie, so its float chain is the one solve_dual reads exactly
    chains = _traced_dual(monkeypatch)["chains"]
    rng = random.Random(9090)
    pools = [(-3, 3), (-10 ** 6, 10 ** 6), (0, 2)]
    for trial in range(300):
        n = 2 + trial % 13
        lo, hi = pools[trial % len(pools)]
        d = [rng.choice((0, rng.randint(lo, hi))) for _ in range(n)]
        top = max(max(d), 1)
        for i in rng.sample(range(n), rng.randint(1, min(n, 3))):
            d[i] = top  # tied maxima
        d = Direction(tuple(d))
        f = make_family(ExplicitTable(tuple(
            min(bin(m).count("1"), 2) for m in range(1 << n))))
        prob = ReducedProblem(f, d, *_singleton_bound(f, d))
        chains.clear()
        prob(np.full(n - 1, 1.0 / (2.0 * d.norm1)))
        assert chains == [_start_chain(d)]


def test_first_cut_exit_never_centers(monkeypatch):
    # exit 5: when z_init's own cut closes the bracket the engine returns
    # converged with 0 cuts, before it reads its cut budget or allocates
    # its cut matrix; no 0-cut solve centers
    class Centered(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Centered

    built = _dense_lovasz_spy(monkeypatch)
    monkeypatch.setattr(dualcut, "_center", refuse)
    monkeypatch.setattr(ReducedProblem, "cut_cap", property(refuse))
    seen = {"first-cut": 0, "cutting": 0}
    for inst in iter_instances(14, seed=8181, n_max=8, n_min=2):
        f, d = inst.build()
        built.clear()
        try:
            res = solve_dual(f, d)
        except Centered:
            seen["cutting"] += 1
            continue
        assert res.engine_iterations == res.trace.iterations == 0
        assert res.lambda_star == bruteforce_linesearch(f, d).lambda_star
        if built and res.trace.converged and res.trace.best_value > 0:
            seen["first-cut"] += 1
            assert res.newton_iterations == 0
    assert seen["first-cut"] >= 10 and seen["cutting"] >= 10


def test_unit_box_holds_every_vertex():
    # every vertex 1_S/d(S) with d(S) > 0, so the domain's minimum is lambda*
    for inst in iter_instances(6, seed=808, n_max=8, n_min=2):
        f, d = inst.build()
        prob = ReducedProblem(f, d, *_singleton_bound(f, d))
        for mask in range(1, 1 << f.n):
            if d.of(mask) <= 0:
                continue
            x = [Fraction(1, d.of(mask)) if mask >> i & 1 else Fraction(0)
                 for i in range(f.n)]
            z = x[:prob.pivot] + x[prob.pivot + 1:]
            assert all(0 <= zi <= 1 for zi in z)
            assert sum(di * zi for di, zi in zip(prob.d_rest, z)) <= 1


def _lp_min_by_vertices(c, a):
    """min c.z over {0 <= z <= 1, a.z <= 1} by enumerating its vertices:
    every coordinate at a bound, or all but one at a bound and a.z = 1."""
    m = len(c)
    best = math.inf
    for corner in itertools.product((0, 1), repeat=m):
        z = np.array(corner, dtype=float)
        if a @ z <= 1 + 1e-12:
            best = min(best, float(c @ z))
        for i in range(m):
            if a[i] == 0:
                continue
            rest = a @ z - a[i] * z[i]
            zi = (1 - rest) / a[i]
            if -1e-12 <= zi <= 1 + 1e-12:
                w = z.copy()
                w[i] = zi
                best = min(best, float(c @ w))
    return best


def test_box_bound_matches_vertex_enumeration():
    rng = np.random.default_rng(404)
    zero_rows = 0
    for trial in range(300):
        m = 1 + trial % 6
        c = rng.normal(size=m) * rng.choice([1.0, 1e-3, 1e3])
        if trial % 4 == 0:
            c = rng.integers(-2, 3, size=m).astype(float)  # ties and zeros
        a = rng.integers(-9, 10, size=m).astype(float)
        if trial % 5 == 0:
            a = np.zeros(m)  # d_rest = 0: the hyperplane row 0.z <= 1
        zero_rows += not a.any()
        want = _lp_min_by_vertices(c, a)
        got = _box_min(c, a)
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)
    assert zero_rows >= 60


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


def test_engine_zero_dimensional(monkeypatch):
    # Z is the vertex of the one singleton, where phi reads the seed: the
    # bracket is closed before any query, and the engine is never called
    built = _dense_lovasz_spy(monkeypatch)
    fed = _engine_spy(monkeypatch)
    f = make_family(ExplicitTable((0, 5)))
    res = solve_dual(f, Direction((2,)))
    assert res.lambda_star == Fraction(5, 2)
    assert res.tight_set == SubsetMask.full(1)
    assert res.trace == dualcut.CutEngineState(2.5, 2.5, 0, True)
    assert res.trace.certified_gap == 0.0
    assert res.trace.best_value == res.trace.lower_bound == 2.5
    assert res.newton_iterations == 0 and res.sfm_calls == 1
    # the singleton and E, the same set, then Newton's confirm read and its
    # result check: the best set is not read a third time
    assert res.oracle_calls == 4
    assert built == [] and fed == []


def test_solve_dual_single_element(monkeypatch):
    # exit 4: at n = 1 the reduced domain is the one singleton's vertex, so
    # solve_dual decides lambda* = u with no float state and no engine call
    built = _dense_lovasz_spy(monkeypatch)
    fed = _engine_spy(monkeypatch)
    f = make_family(ExplicitTable((0, 7)))
    res = solve_dual(f, Direction((3,)))
    assert res.lambda_star == Fraction(7, 3)
    assert res.engine_iterations == 0
    # an entry past float64 range takes exit 3 before n = 1 is asked, so
    # Newton's exact start 2^1100 is never turned into a float: the trace
    # is a stalled 0-cut state holding inf
    big = 2 ** 1100
    f = make_family(ExplicitTable((0, big)))
    res = solve_dual(f, Direction((1,)))
    assert res.lambda_star == big and res.tight_set == SubsetMask.full(1)
    assert res.trace == dualcut.CutEngineState(math.inf, 0.0, 0, False,
                                               stalled=True)
    assert res.trace.certified_gap == math.inf
    assert res.oracle_calls == 4
    assert built == [] and fed == []


def test_solve_dual_closes_on_the_zero_floor(monkeypatch):
    # f({0}) = 0: the seed u = 0 meets the floor lambda* >= 0, so solve_dual
    # closes the bracket before it reads any chain set or calls the engine
    built = _dense_lovasz_spy(monkeypatch)
    fed = _engine_spy(monkeypatch)
    closed = dualcut.CutEngineState(0.0, 0.0, 0, True)
    assert closed.certified_gap == 0.0
    f = make_family(ExplicitTable((0, 0, 2, 2)))
    d = Direction((1, 1))
    res = solve_dual(f, d)
    assert res.trace == closed
    assert res.lambda_star == 0 and res.newton_iterations == 0
    assert res.tight_set == SubsetMask(0b01, 2)
    # the two singletons, then Newton's confirm read and its result check
    assert res.oracle_calls == 2 + 2
    # a 2-cycle cut: every singleton reads 1 and lambda* = 0 sits on E, the
    # first set of z_init's chain that solve_dual reads, which closes the
    # bracket with one more read
    f = make_family(ExplicitTable((0, 1, 1, 0)))
    res = solve_dual(f, d)
    assert res.trace == closed
    assert res.lambda_star == 0 and res.newton_iterations == 0
    assert res.tight_set == SubsetMask.full(2)
    assert res.oracle_calls == 2 + 1 + 2
    assert built == [] and fed == []


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
        prob = ReducedProblem(f, d, *_singleton_bound(f, d))
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
    queried = 0
    for inst in iter_instances(16, seed=4141, n_max=10):
        f, d = inst.build()
        record["chains"].clear()
        record["starts"].clear()
        res = solve_dual(f, d)
        if res.trace.checked:
            # a held check is Newton's confirm: no Newton call, and the
            # start it stands for is the checked best ratio
            assert record["starts"] == [] and res.newton_iterations == 0
            lam0 = res.lambda_star
        else:
            (lam0,) = record["starts"]
        assert type(lam0) is Fraction
        star = bruteforce_linesearch(f, d).lambda_star
        u = upper_bound(f, d)
        assert star == res.lambda_star <= lam0 <= u
        # the engine's seed u is a vertex ratio like the chains', and so are
        # the full set's f(E)/d(E) and those of z_init's chain, which
        # solve_dual reads exactly before it sets up any float state
        chains = record["chains"] + [_start_chain(d)]
        ratios = {Fraction(f.eval(S), d.of(S))
                  for chain in chains for S in chain if d.of(S) > 0}
        ratios.add(u)
        assert lam0 in ratios
        if record["chains"]:
            # the best of them, up to the floats that chose it
            queried += 1
            assert lam0 - min(ratios) <= 1e-12 * lam0
        else:
            # no query: the start is the best exact ratio
            assert lam0 == min(ratios)
    assert 0 < queried < 80


def test_singleton_zero_closes_the_bracket_without_a_query(monkeypatch):
    # where a singleton reads f({e}) = 0 with d_e > 0 the seed u = 0 closes
    # the bracket: no cut and no extension query, and Newton from 0 gives
    # what it gives cold (the start the engine's chains would lower to 0)
    record = _traced_dual(monkeypatch)
    seen = 0
    for inst in iter_instances(30, seed=6600, n_max=10, n_min=1):
        f, d = inst.build()
        if upper_bound(f, d) != 0:
            continue
        seen += 1
        record["chains"].clear()
        res = solve_dual(f, d)
        assert res.engine_iterations == 0 and res.trace.converged
        assert record["chains"] == []
        cold = discrete_newton(f, d)
        assert res.lambda_star == cold.lambda_star == 0
        assert res.lambda_star == bruteforce_linesearch(f, d).lambda_star
        assert res.tight_set == cold.tight_set
        assert res.dual_optimum == cold.dual_optimum
    assert seen >= 30


def test_closed_bracket_skips_the_engine(monkeypatch):
    # u = 0, or f(E) = 0 < d(E) (every cut function has f(E) = 0, often with
    # no zero singleton): lambda* = 0 is decided before the engine is set
    # up, so no extension is built, no chain is read, and the trace is a
    # converged 0-cut state; Newton from 0 gives what it gives cold
    record = _traced_dual(monkeypatch)
    built = _dense_lovasz_spy(monkeypatch)
    seen = {"u": 0, "full": 0}
    for inst in iter_instances(40, seed=6900, n_max=10, n_min=1,
                               families=("digraph-cut", "explicit", "coverage")):
        f, d = inst.build()
        full = SubsetMask.full(f.n)
        if upper_bound(f, d) == 0:
            seen["u"] += 1
        elif f.eval(full) == 0 < d.of(full):
            seen["full"] += 1
        else:
            continue
        record["chains"].clear()
        record["starts"].clear()
        before = f.calls
        res = solve_dual(f, d)
        assert built == [] and record["chains"] == []
        assert record["starts"] == [0]
        assert res.trace.converged and res.trace.iterations == 0
        assert res.engine_iterations == 0 and res.sfm_calls == 1
        # the singleton scan, f(E) once u > 0, then Newton's confirm read
        # and its result check
        singletons = sum(de > 0 for de in d.d)
        assert f.calls - before == res.oracle_calls == \
            singletons + (upper_bound(f, d) > 0) + 2
        cold = discrete_newton(f, d)
        assert res.lambda_star == cold.lambda_star == 0
        assert res.tight_set == cold.tight_set
        assert res.dual_optimum == cold.dual_optimum
    assert seen["u"] >= 40 and seen["full"] >= 15


def test_engine_best_never_exceeds_the_singleton_bound(monkeypatch):
    _half_ladder(monkeypatch)
    for inst in iter_instances(12, seed=6700, n_max=10, n_min=1):
        f, d = inst.build()
        if not _engine_input(f, d):
            continue
        prob, state = _run_engine(f, d)
        assert state.best_value <= float(upper_bound(f, d))
        assert prob.best_mask is not None


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
    built = _dense_lovasz_spy(monkeypatch)
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


def test_solve_dual_base_counts_its_kernel_call(monkeypatch):
    # the base route's envelope membership test is one kernel call, and it
    # reports it like every other route
    calls = []

    def kernel_spy(*args):
        calls.append(args)
        return minimizers_minus_modular(*args)

    monkeypatch.setattr("polyls.newton.minimizers_minus_modular", kernel_spy)
    solved = 0
    for inst in iter_instances(4, seed=5100, n_max=8):
        f, d = inst.build()
        calls.clear()
        try:
            res = solve_dual_base(f, d)
        except InfeasibleBaseLineSearch:
            continue
        solved += 1
        assert res.sfm_calls == len(calls) == 1
    assert solved >= 3


def test_verify_lifting(two_elem, d34, d_mixed):
    assert verify_lifting(two_elem, d34, 3 * 7 + 1)
    assert verify_lifting(two_elem, d_mixed, 3 * 2 + 1)
    with pytest.raises(ValueError):  # lift is defined for c > 0 only
        verify_lifting(two_elem, d34, 0)


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
