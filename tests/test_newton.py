import math
import random
from fractions import Fraction

import numpy as np
import pytest

from polyls import (Direction, ExplicitTable, IntervalGeometric, binary_search,
                    bruteforce_linesearch, discrete_newton, envelope,
                    ladder_spacing, make_family, membership, solve_dual,
                    solve_dual_base, upper_bound)
from polyls import newton
from polyls.errors import (BadStart, InfeasibleBaseLineSearch,
                           InvariantViolation)
from polyls.instances import random_instance
from polyls.newton import dual_point
from polyls.oracles import SubmodularOracle
from polyls.subsets import SubsetMask
from conftest import iter_instances, same_sets


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


def test_newton_bad_start(two_elem, d34, d_mixed):
    with pytest.raises(BadStart):
        discrete_newton(two_elem, d34, Fraction(1, 5))  # below 3/7
    with pytest.raises(BadStart):
        discrete_newton(two_elem, d34, Fraction(0))
    # f >= 0 puts lambda* >= 0: every negative start is below it, also where
    # the envelope there is negative on a set with d(S) < 0
    for lam in (-1, -3):
        with pytest.raises(BadStart):
            discrete_newton(two_elem, d_mixed, Fraction(lam))


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


def test_newton_trace_structure(monkeypatch):
    # the iterates are the kernel calls up to the first zero value; the
    # call that reads 0 also confirms the start, so no call follows it
    calls = []
    real = newton.minimizers_minus_modular

    def kernel_spy(f, q, p, d, within=None):
        out = real(f, q, p, d, within)
        calls.append((Fraction(p, q), SubsetMask(out[1], f.n),
                      Fraction(out[0], q)))
        return out

    monkeypatch.setattr(newton, "minimizers_minus_modular", kernel_spy)
    for inst in iter_instances(3, seed=4100, n_max=10):
        f, d = inst.build()
        calls.clear()
        res = discrete_newton(f, d)
        assert res.sfm_calls == len(calls)
        last = next(i for i, it in enumerate(calls) if it[2] == 0)
        assert last == len(calls) - 1
        iterates = calls[:last + 1]
        assert res.newton_iterations == len(iterates) - 1
        lams = [it[0] for it in iterates]
        assert all(a > b for a, b in zip(lams, lams[1:]))
        assert iterates[-1][2] == 0
        # every iterate after the first is a ladder point of its predecessor
        for (lam_a, s_a, g_a), (lam_b, _, _) in zip(iterates, iterates[1:]):
            assert lam_b == Fraction(f.eval(s_a), d.of(s_a))


def _two_call_newton(f, d, lam):
    """Reference Newton whose confirm is two envelope calls: a start where
    the envelope reads 0 is confirmed one ladder step to its right, where
    every minimizer of a nonzero envelope is tight.  Returns the result's
    (tight set, witness, newton_iterations, oracle_calls, envelope calls)."""
    if lam < 0:  # f >= 0 puts lambda* >= 0; rejected before any call
        raise BadStart(f"negative start {lam}")
    before = f.calls
    calls = 1
    g, s = envelope(f, d, lam)
    if g == 0:
        g_up, s_up = envelope(f, d, lam + ladder_spacing(d))
        calls += 1
        if g_up == 0 or Fraction(f.eval(s_up), d.of(s_up)) != lam:
            raise BadStart(f"started below lambda* at {lam}")
        return s_up, dual_point(s_up, d), 0, f.calls - before, calls
    steps = 0
    while g != 0:
        if d.of(s) <= 0:  # only an oracle with f < 0 somewhere gets here
            raise InvariantViolation(f"d(S) <= 0 at {lam}")
        tight, lam = s, Fraction(f.eval(s), d.of(s))
        g, s = envelope(f, d, lam)
        calls += 1
        steps += 1
    return tight, dual_point(tight, d), steps, f.calls - before, calls


def test_one_pass_confirm_matches_the_two_call_reference():
    # every family at n 1-10 with mixed-sign directions, from starts on,
    # just below, at 0 below, and above lambda* (no ratio there)
    confirmed = below = above = mixed = 0
    for inst in iter_instances(12, seed=4400, n_max=10):
        f, d = inst.build()
        mixed += min(d.d) < 0
        star = bruteforce_linesearch(f, d).lambda_star
        eps = ladder_spacing(d)
        u = upper_bound(f, d)
        starts = [star, star - eps, star - eps / 2]
        if star > 0:
            starts.append(Fraction(0))
        # a ratio f(S)/d(S) has a denominator of at most ||d||_1
        starts += [lam for lam in (star + eps / 2, (star + u) / 2 + eps / 3,
                                   u + eps / 2)
                   if lam > star and lam.denominator > d.norm1]
        for lam in starts:
            try:
                want = _two_call_newton(f, d, lam)
            except (BadStart, InvariantViolation) as exc:
                assert lam < star
                with pytest.raises(type(exc)):
                    discrete_newton(f, d, lam)
                below += isinstance(exc, BadStart)
                continue
            res = discrete_newton(f, d, lam)
            tight, witness, steps, reads, calls = want
            assert res.lambda_star == star
            assert res.tight_set == tight
            assert res.dual_optimum == witness
            assert res.newton_iterations == steps
            assert res.oracle_calls == reads
            # the confirm saves the call one step to the right
            assert res.sfm_calls == (calls - 1 if steps == 0 else calls)
            if lam == star:
                confirmed += 1
            else:
                above += 1
    assert mixed >= 30
    assert confirmed == 60 and below >= 120 and above >= 150


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


@pytest.mark.parametrize("lo,hi,eps,message", [
    (0, Fraction(1, 2), 0, "eps must be positive"),
    (0, Fraction(1, 2), Fraction(-1, 98), "eps must be positive"),
    (Fraction(1, 2), Fraction(1, 4), Fraction(1, 98), "empty bracket"),
], ids=["eps-zero", "eps-negative", "hi-below-lo"])
def test_binary_search_rejects_bad_arguments(two_elem, d34, lo, hi, eps,
                                             message):
    with pytest.raises(ValueError, match=message):
        binary_search(two_elem, d34, Fraction(lo), hi, eps)


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


def _both_dtypes(seed):
    """Random (f, d) pairs with int64 tables and with exact big-int tables
    (interval-geometric at n >= 8, and family tables shifted past 2^60)."""
    for inst in iter_instances(6, seed=seed, n_max=10):
        f, d = inst.build()
        yield f, d
        big = f.dense_table().astype(object) << 61
        yield SubmodularOracle(f.n, big, m_bound=f.m_bound << 61), d
    for n in (8, 9):
        yield random_instance("interval-geometric", n, seed + n).build()


def _reference_bisection(f, d, lo, hi, eps):
    """(value, decisions) of plain bisection: one membership test at every
    dyadic midpoint, with no certificate."""
    steps = max(math.ceil((hi - lo) / eps) - 1, 0).bit_length()
    for _ in range(steps):
        mid = (lo + hi) / 2
        if membership(f, [mid * di for di in d.d]).inside:
            lo = mid
        else:
            hi = mid
    return lo, steps


def _spy_passes(monkeypatch):
    """The list to which every kernel pass `newton` makes from here on
    appends (lambda, whether the pass held)."""
    passes = []
    kernel = newton.minimizers_minus_modular

    def spy(f, q, p, d, within=None):
        out = kernel(f, q, p, d, within)
        passes.append((Fraction(p, q), out[0] >= 0))
        return out

    monkeypatch.setattr(newton, "minimizers_minus_modular", spy)
    return passes


def test_bisection_decisions_match_membership(monkeypatch):
    passes = _spy_passes(monkeypatch)
    dtypes = set()
    below = outside_below = 0
    for f, d in _both_dtypes(7300):
        dtypes.add(f.dense_table().dtype)
        u, eps = upper_bound(f, d), ladder_spacing(d)
        # lo < 0 too: a test at mid < 0 reads every set, since there
        # P = |p| D- and the level set of a larger hi need not hold C(mid)
        for lo in (Fraction(0), -4 * u - 1):
            passes.clear()
            res = binary_search(f, d, lo, u, eps)
            # the pass at hi, then only tests no certificate decided
            assert len(passes) == res.sfm_calls <= res.membership_calls + 1
            for mid, inside in passes:
                assert membership(f, [mid * di for di in d.d]).inside == inside
                below += mid < 0
                outside_below += mid < 0 and not inside
            assert (res.value, res.membership_calls) == \
                _reference_bisection(f, d, lo, u, eps)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}
    # hi moves below 0 on some solves: the case a carried set would break
    assert below > 1000 and outside_below > 1000


def test_upper_end_certificate_needs_zero_feasible(monkeypatch):
    # f({0}) = -2 with d_0 = -1 reads lambda >= 2, and f({1}) = 6 with
    # d_1 = 2 reads lambda <= 3: the feasible lambda are [2, 3], so the
    # pass at hi = 3 holds while 0 is infeasible, and the tests below 2
    # must each make their pass
    f = SubmodularOracle(2, [0, -2, 6, 4], m_bound=6)
    d = Direction((-1, 2))
    hi = upper_bound(f, d)
    assert hi == 3 and f.min_value < 0
    passes = _spy_passes(monkeypatch)
    for lo in (Fraction(0), Fraction(-5)):
        for eps in (Fraction(1, 8), Fraction(1, 100)):
            passes.clear()
            res = binary_search(f, d, lo, hi, eps)
            assert passes[0] == (hi, True)
            assert res.value < 2
            assert (res.value, res.membership_calls) == \
                _reference_bisection(f, d, lo, hi, eps)
            assert len(passes) == res.sfm_calls <= res.membership_calls + 1
    # the same shape on random functions: d_0 = -1 and f({0}) lowered by a
    # modular term to -c, so the feasible lambda start at c or above, and
    # c in (u/2, u] puts the first midpoint u/2 below them
    held = 0
    for inst in iter_instances(30, seed=7700, n_min=2, n_max=9):
        g, d = inst.build()
        if max(d.d[1:]) <= 0:
            continue
        d = Direction((-1,) + d.d[1:])
        u = upper_bound(g, d)
        c = math.ceil(3 * u / 4)
        if not 0 < c <= u:
            continue
        w = Direction((g.eval(1) + c,) + (0,) * (g.n - 1))
        table = g.dense_table().astype(object) - w.sums.astype(object)
        f = SubmodularOracle(g.n, table, m_bound=g.m_bound + w.norm1)
        for lo in (Fraction(0), -4 * u - 1):
            passes.clear()
            res = binary_search(f, d, lo, u, Fraction(1, 16))
            held += passes[0][1]
            assert (res.value, res.membership_calls) == \
                _reference_bisection(f, d, lo, u, Fraction(1, 16))
    assert held > 20


def _wide_level_sets():
    """Interval-geometric big-int tables with d positive only on high
    indices, so a pass keeps a wide share of the table, whose t = P // q is
    past 2^60: the float filter prunes it and exact ints decide."""
    rng = np.random.default_rng(12)
    for n in (10, 12):
        f = make_family(IntervalGeometric(n))
        for _ in range(3):
            k = int(rng.integers(1, 4))
            yield f, Direction(tuple(int(v) for v in rng.integers(-9, 1, n - k))
                               + tuple(int(v) for v in rng.integers(1, 10, k)))


def test_carried_level_set_changes_nothing(monkeypatch):
    # every kernel pass of a Newton solve and of a bisection gives the same
    # minimum, minimizers and level set as the same pass reading every set
    carried = []
    kernel = newton.minimizers_minus_modular

    def check(f, q, p, d, within=None):
        out = kernel(f, q, p, d, within)
        ref = kernel(f, q, p, d)
        assert out[:3] == ref[:3]
        assert out[3].tolist() == ref[3].tolist()
        assert same_sets(out[4], ref[4])
        carried.append(within is not None)
        return out

    monkeypatch.setattr(newton, "minimizers_minus_modular", check)
    dtypes = set()
    for f, d in [*_both_dtypes(7600), *_wide_level_sets()]:
        dtypes.add(f.dense_table().dtype)
        u, eps = upper_bound(f, d), ladder_spacing(d)
        star = discrete_newton(f, d).lambda_star
        bs = binary_search(f, d, Fraction(0), u, eps)
        assert discrete_newton(f, d, bs.value + eps).lambda_star == star
        binary_search(f, d, -4 * u - 1, u, eps)
        # brackets that start above lambda*, whose first passes fail and
        # hand their level sets on
        for hi in (2 * u + 1, 8 * u + 3):
            binary_search(f, d, Fraction(0), hi, eps)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}
    assert sum(carried) > 2000 and not all(carried)


def test_base_route_names_the_membership_violating_set():
    outside = 0
    for f, d in _both_dtypes(7400):
        full = SubsetMask.full(f.n)
        if d.of(full) == 0:
            continue
        lam = Fraction(f.eval(full), d.of(full))
        mem = membership(f, [lam * di for di in d.d])
        if mem.inside:
            continue
        outside += 1
        with pytest.raises(InfeasibleBaseLineSearch) as err:
            solve_dual_base(f, d)
        assert str(err.value).endswith(f"at S={mem.violating_set}")
    assert outside > 10
