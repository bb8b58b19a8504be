import math
import random
from fractions import Fraction

import numpy as np
import pytest

from polyls import (Direction, ReducedProblem, bruteforce_linesearch,
                    cutting_plane_minimize, evaluate, lift_point, make_family,
                    perturb, solve_dual, solve_dual_base, verify_lifting)
from polyls.dualcut import _phi_oracle
from polyls.errors import InfeasibleBaseLineSearch
from polyls.instances import random_instance
from polyls.newton import upper_bound
from polyls.oracles import ExplicitTable, infinity_norm
from polyls.subsets import SubsetMask
from conftest import iter_instances


def test_reduced_problem_formulas(two_elem, d34):
    prob = ReducedProblem.for_instance(two_elem, d34)
    assert prob.pivot == 1 and prob.d_pivot == 4
    assert prob.omega_dim == 1 and prob.d_rest == (3,)
    assert prob.eps == Fraction(1, 49)
    assert prob.r_box == 2 * 3 * 49
    assert prob.alpha == Fraction(1, 49) / (2 * 9)


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
    val, _ = _phi_oracle(two_elem, prob)(np.array([1.0 / 7.0]))
    assert math.isclose(val, 3.0 / 7.0, rel_tol=1e-12)
    # at z = 0 the lifted point is a scaled indicator of the pivot
    eps = Fraction(1, 49)
    f_eps = perturb(two_elem, eps)
    want = (two_elem.eval(0b10) + eps) / 4
    assert evaluate(f_eps, lift_point([Fraction(0)], prob)) == want
    val0, _ = _phi_oracle(f_eps, prob)(np.zeros(1))
    assert math.isclose(val0, float(want), rel_tol=1e-12)


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
        phi_fn = _phi_oracle(f, prob)
        m = prob.omega_dim
        z = rng.uniform(-1.0, 1.0, size=m)
        x = lift_point(z, prob)
        gaps = np.diff(np.sort(np.asarray(x, dtype=float)))
        if gaps.size and gaps.min() < 1e-3:
            checked += 1  # skip tie-prone points but keep the schedule moving
            continue
        val, g = phi_fn(z)
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
    f_eps = perturb(two_elem, prob.eps)
    # the reduced objective has slopes >= 1/2 around its kink at 1/7, so a
    # 1e-7 certified gap pins the point to within 1e-6
    state = cutting_plane_minimize(_phi_oracle(f_eps, prob), prob, 1e-7)
    assert state.converged
    assert abs(state.best_point[0] - 1.0 / 7.0) < 1e-6
    assert state.certified_gap <= 1e-7


def test_engine_zero_dimensional():
    f = make_family(ExplicitTable((0, 5)))
    d = Direction((2,))
    prob = ReducedProblem.for_instance(f, d)
    state = cutting_plane_minimize(_phi_oracle(perturb(f, prob.eps), prob),
                                   prob, 0.1)
    assert state.converged and state.iterations == 0
    assert state.best_point.shape == (0,)


def test_engine_certifies_against_bruteforce_dual():
    for inst in iter_instances(3, seed=233, n_max=8, n_min=2):
        f, d = inst.build()
        prob = ReducedProblem.for_instance(f, d)
        f_eps = perturb(f, prob.eps)
        target = float(prob.eps) / 4
        state = cutting_plane_minimize(_phi_oracle(f_eps, prob), prob, target,
                                       record_history=True)
        assert state.converged and state.certified_gap <= target
        # engine brackets the true perturbed optimum
        table = f.dense_table()
        star_eps = min(Fraction(table[m] + prob.eps * 1, 1) / d.of(m)
                       for m in range(1, 1 << f.n) if d.of(m) > 0)
        slack = 1e-7 * max(1.0, abs(float(star_eps)))
        assert state.best_value >= float(star_eps) - slack
        assert state.lower_bound <= float(star_eps) + slack
        # feasibility of the reported point
        tol = 1e-9 * max(1.0, d.norm1)
        assert (state.best_point >= -tol).all()
        assert float(np.dot(prob.d_rest, state.best_point)) <= 1 + tol
        # localizer volume never grows
        vols = [h[1] for h in state.history]
        for a, b in zip(vols, vols[1:]):
            assert b <= a + 1e-9


def test_engine_cap_carries_state(two_elem, d34):
    from polyls.dualcut import _ellipsoid_minimize
    from polyls.errors import IterationCapExceeded
    prob = ReducedProblem.for_instance(two_elem, d34)
    fn = _phi_oracle(perturb(two_elem, prob.eps), prob)
    A, b = np.array([[-1.0], [3.0]]), np.array([0.0, 1.0])
    with pytest.raises(IterationCapExceeded) as exc:
        _ellipsoid_minimize(fn, A, b, np.array([0.2]), 0.5, np.array([0.1]),
                            target_gap=0.0, cap=3, feas_tol=1e-9)
    state = exc.value.state
    assert state.iterations == 3
    assert math.isfinite(state.best_value)
    assert state.best_point.shape == (1,)


def test_cut_selection_matches_per_row_loop():
    from polyls.dualcut import _most_violated

    def reference(A, b, center, feas_tol):
        # per-row reference: strictly most violated row, first index on ties
        pick, worst = None, feas_tol
        for k, (a, bk) in enumerate(zip(A, b)):
            viol = float(a @ center - bk)
            if viol > worst:
                pick, worst = k, viol
        return pick

    rng = np.random.default_rng(31)
    for trial in range(300):
        m = 1 + trial % 6
        A = np.zeros((2 * m + 1, m))
        A[0:2 * m:2] = -np.eye(m)
        A[1:2 * m:2] = np.eye(m)
        A[2 * m] = rng.integers(-9, 10, size=m)
        b = np.zeros(2 * m + 1)
        b[1:2 * m:2] = rng.integers(1, 4, size=m)
        b[2 * m] = 1.0
        center = rng.normal(scale=3.0, size=m)
        if trial % 3 == 0:
            # integral centers make equal violations common: -z_i <= 0 rows
            # and z_i <= b_i rows tie exactly across coordinates
            center = rng.integers(-3, 5, size=m).astype(float)
        assert _most_violated(A, b, center, 1e-9) == reference(A, b, center, 1e-9)

    A = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    b = np.array([0.0, 0.0, 1.0])
    assert _most_violated(A, b, np.array([-2.0, -2.0]), 1e-9) == 0  # exact tie
    assert _most_violated(A, b, np.array([0.25, 0.25]), 1e-9) is None
    assert reference(A, b, np.array([0.25, 0.25]), 1e-9) is None


def test_perturb_is_lazy():
    eps = Fraction(1, 49)
    for inst in iter_instances(2, seed=57, n_max=7, n_min=2):
        f, _ = inst.build()
        before = f.calls
        g = perturb(f, eps)
        assert f.calls == before  # no oracle reads at construction
        assert not g.has_table and g.base is f and g.eps == eps
        table = f.dense_table()
        assert g.eval(0) == 0
        for mask in range(1, 1 << f.n):
            assert g.eval(mask) == table[mask] + eps
        assert g.dense_table().tolist() == [0] + [v + eps for v in table.tolist()[1:]]


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


def test_snap_always_dual_feasible():
    # whatever garbage the float phase hands over, the snapped rational point
    # must evaluate at or above lambda*
    from polyls.dualcut import _snap
    rng = np.random.default_rng(21)
    for inst in iter_instances(2, seed=4141, n_max=9, n_min=2):
        f, d = inst.build()
        prob = ReducedProblem.for_instance(f, d)
        star = bruteforce_linesearch(f, d).lambda_star
        for scale in (1e-3, 1.0, 50.0):
            z = rng.normal(scale=scale, size=prob.omega_dim)
            assert _snap(f, prob, z) >= star
        assert _snap(f, prob, np.full(prob.omega_dim, np.nan)) >= star


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
        res = solve_dual_base(f, d)  # includes the engine agreement check
        assert res.lambda_star == lam


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
    # c = 1 below the threshold is allowed to fail; when it never does the
    # check is vacuous, which is fine
    assert falsified >= 0
