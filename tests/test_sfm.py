from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import reduce
from operator import and_, or_
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyls import (DenseLovasz, Direction, ExplicitTable, IntervalGeometric,
                    binary_search, bruteforce_linesearch, discrete_newton,
                    ladder_spacing, make_family, membership, minimize,
                    minimize_mnp, newton_scale, solve_dual, subset_sums,
                    translate, upper_bound)
from polyls.errors import GroundSetTooLarge, InvariantViolation
from polyls.instances import FAMILIES, random_instance
from polyls.oracles import SubmodularOracle, scale_minus_modular
from polyls import newton, sfm
from polyls.sfm import _float_candidates, minimizers_minus_modular
from polyls.subsets import SubsetMask
from conftest import iter_instances


def test_bruteforce_on_nonnegative_function(two_elem):
    res = minimize(two_elem)
    assert res.min_value == 0
    assert res.minimal_minimizer == SubsetMask.empty(2)
    assert res.maximal_minimizer == SubsetMask.empty(2)
    assert res.certified


def test_bruteforce_on_shifted_function(two_elem, d34):
    h = newton_scale(two_elem, d34, Fraction(1))  # f(S) - d(S): 0,-1,-2,-4
    res = minimize(h)
    assert res.min_value == -4
    assert res.minimal_minimizer == SubsetMask.full(2)


def test_bruteforce_constant_zero():
    res = minimize(make_family(ExplicitTable((0, 0, 0, 0))))
    assert res.min_value == 0
    assert res.minimal_minimizer == SubsetMask.empty(2)
    assert res.maximal_minimizer == SubsetMask.full(2)


def test_bruteforce_cap():
    # the size limit is enforced where oracles are made, so no oracle past it
    # ever reaches the enumerator
    with pytest.raises(GroundSetTooLarge):
        minimize(SubmodularOracle(21, [0], m_bound=0))


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
        ref = minimize(h)
        res = minimize_mnp(h)
        assert res.min_value == ref.min_value
        assert res.minimal_minimizer == ref.minimal_minimizer
        assert res.maximal_minimizer == ref.maximal_minimizer
        assert res.certified
        pure_mnp += res.method == "mnp"
    assert pure_mnp > 0  # the float path itself certifies most of the batch


def test_mnp_minimizers_are_exact_on_a_cut():
    # h = f is 0 on {}, {2} and E; the float point's two level sets are
    # both {2}, a minimizer, but the minimal and maximal ones are {} and E
    inst = random_instance("digraph-cut", 3, 20261064)
    f, d = inst.build()
    h = newton_scale(f, d, upper_bound(f, d))
    res = minimize_mnp(h)
    assert res.method == "mnp"
    assert res.min_value == 0
    assert res.minimal_minimizer == SubsetMask.empty(3)
    assert res.maximal_minimizer == SubsetMask.full(3)


def test_mnp_minimizers_match_enumeration():
    # criterion 9's minimizations on another seed: h = f - u d at the
    # singleton bound u
    methods = set()
    for inst in iter_instances(60, seed=930):
        f, d = inst.build()
        h = newton_scale(f, d, upper_bound(f, d))
        ref = minimize(h)
        res = minimize_mnp(h)
        assert res.min_value == ref.min_value, inst
        assert res.minimal_minimizer == ref.minimal_minimizer, inst
        assert res.maximal_minimizer == ref.maximal_minimizer, inst
        methods.add(res.method)
    assert methods == {"mnp", "mnp+bruteforce"}


def test_mnp_modular_single_vertex():
    # modular function: the base polytope is one point, convergence immediate
    w = (-3, 5, -1, 2, 0)
    table = [sum(wi for i, wi in enumerate(w) if m >> i & 1) for m in range(32)]
    f = SubmodularOracle(5, table, m_bound=sum(abs(v) for v in w))
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


# --- the envelope kernel: min of q*f - p*d over the cached tables ----------

KERNEL_KINDS = ["family", "interval", "translated", "scaled", "zero",
                "modular-tie", "near-tie", "past-float-range", "inf-product",
                "wide-level-set", "interval-narrow", "interval-wide",
                "explicit-2^70", "scaled-negative", "float-tie"]


def _oracle(n, table):
    table = [int(v) for v in table]
    return SubmodularOracle(n, table, m_bound=max(abs(v) for v in table))


def _ratio(draw, f, d):
    """(q, p) for lambda = f(S)/d(S) of a drawn set S with d(S) > 0, nudged
    by at most one ladder step: a lambda near the envelope's breakpoints,
    where the level set is narrow."""
    sets = [m for m in range(1, 1 << f.n) if d.of(m) > 0]
    m = draw(st.sampled_from(sets))
    lam = (Fraction(f.dense_table().item(m), d.of(m))
           + draw(st.integers(-1, 1)) * ladder_spacing(d))
    return lam.denominator, lam.numerator


@st.composite
def kernel_case(draw, kind):
    """(f, d, q, p) of one kind; q up to 2^200 and |p d_i| up to 2^300."""
    n = draw(st.integers(1, 6))
    if kind == "interval":
        n = draw(st.integers(6, 9))  # exact big-int tables from n = 8 on
    elif kind in ("interval-narrow", "interval-wide"):
        n = draw(st.integers(2, 12))
    elif kind == "float-tie":
        n = 2
    d = draw(st.lists(st.integers(-16, 16), min_size=n, max_size=n)
             .filter(lambda v: max(v) > 0))
    d = Direction(tuple(d))
    q = draw(st.integers(1, 2**draw(st.sampled_from([1, 20, 70, 200]))))
    p = draw(st.integers(-9, 9) | st.integers(-2**296, 2**296))
    fam = draw(st.sampled_from(FAMILIES))
    base = random_instance(fam, n, draw(st.integers(0, 999))).build()[0]
    big = base.dense_table().astype(object)
    if kind == "family":
        f = base
    elif kind == "interval":
        f = make_family(IntervalGeometric(n))
    elif kind == "translated":
        # negative entries: f - x0 for an arbitrary integral x0
        x0 = draw(st.lists(st.integers(-2**100, 2**100), min_size=n, max_size=n))
        f = translate(base, x0)
    elif kind == "scaled":
        f = _oracle(n, big << draw(st.sampled_from([0, 59, 61, 250, 900])))
    elif kind == "zero":
        f = _oracle(n, [0] * (1 << n))
    elif kind == "modular-tie":
        # f = c d and lambda = c: h is 0 on every set
        c = draw(st.integers(-2**90, 2**90))
        f = _oracle(n, subset_sums([c * di for di in d.d]))
        p = c * q
    elif kind == "near-tie":
        # f = c d + g: h = q g(S) is far below the float error of q f(S)
        c = draw(st.integers(1, 2**120))
        f = _oracle(n, subset_sums([c * di for di in d.d]).astype(object) + big)
        p = c * q
    elif kind == "past-float-range":
        # 2^1030 on every nonempty set: astype(float64) raises OverflowError
        f = _oracle(n, [v + ((m > 0) << 1030) for m, v in enumerate(big)])
    elif kind == "inf-product":
        # every entry fits float64, q f(S) overflows to inf
        f = _oracle(n, big << 900)
        q = draw(st.integers(2**199, 2**200))
    elif kind == "interval-narrow":
        f = make_family(IntervalGeometric(n))
        q, p = _ratio(draw, f, d)
    elif kind == "interval-wide":
        # d positive only on the last elements, whose runs weigh
        # 4^(j(j-1)/2): every ratio is huge and C is a wide share
        k = draw(st.integers(1, min(3, n)))
        d = Direction(tuple(draw(st.lists(st.integers(-9, 0), min_size=n - k,
                                          max_size=n - k)))
                      + tuple(draw(st.lists(st.integers(1, 9), min_size=k,
                                            max_size=k))))
        f = make_family(IntervalGeometric(n))
        q, p = _ratio(draw, f, d)
    elif kind == "explicit-2^70":
        # every nonzero value is past 2^70; a small lambda keeps only the
        # zero sets, a ratio keeps sets far past int64
        f = make_family(ExplicitTable(tuple(v << 70 for v in big)))
        if draw(st.booleans()):
            q, p = _ratio(draw, f, d)
    elif kind == "scaled-negative":
        # q0*f - w on a big-int table: min f < 0 bounds the values C holds
        # from below, up to and past the int64 edge
        k = draw(st.sampled_from([0, 20, 40, 55, 62, 100]))
        w = [c << k for c in draw(st.lists(st.integers(-9, 9), min_size=n,
                                           max_size=n))]
        f = scale_minus_modular(_oracle(n, big << 61), draw(st.integers(1, 9)),
                                w)
        q = draw(st.integers(1, 2**draw(st.sampled_from([1, 8, 40]))))
        p = draw(st.integers(-9, 9))
    elif kind == "float-tie":
        # f({0}) = c + r > t = c + s, but fl(c + r) = c = fl(t): the float
        # compare keeps {0} although f({0}) > t (c = 2^k, r below half an
        # ulp of c); f({1}) = 2^61 makes the table big-int
        k = draw(st.integers(54, 59))
        r = draw(st.integers(1, (1 << (k - 53)) - 1))
        c = 1 << k
        f = make_family(ExplicitTable((0, c + r, 1 << 61, 1 << 61)))
        d = Direction((1, draw(st.integers(-3, 0))))
        q = draw(st.integers(1, 8))
        p = q * (c + draw(st.integers(0, r - 1)))
    else:  # wide-level-set: P // q near or past M, so C is most or all sets
        f = draw(st.sampled_from([base, make_family(IntervalGeometric(n))]))
        q = draw(st.integers(1, 2**70))
        # p < 0 only where some d_i < 0, else P = 0
        sign = draw(st.sampled_from([1, -1] if d.negative_sum else [1]))
        mass = d.positive_sum if sign > 0 else d.negative_sum
        level = draw(st.integers(f.m_bound // 2, 2 * f.m_bound + 1))
        p = sign * -(-level * q // mass)
    return f, d, q, p


def _level(q, p, d):
    """P // q, with P = max_S p*d(S): every minimizer of q*f - p*d has
    f(S) <= P // q."""
    sums = [p * d.of(m) for m in range(1 << d.n)]
    return max(sums) // q


def _reference_level(f, t):
    """The kernel's level set in plain Python, or None where it cannot cut:
    {S : f(S) <= t} on an int64 table, {S : float(f(S)) <= float(t)} on a
    big-int table (Python's int-to-float rounding is correct rounding, as
    numpy's is)."""
    table = f.dense_table().tolist()
    if t >= f.m_bound:
        return None
    if f.dense_table().dtype != object:
        return [m for m, v in enumerate(table) if v <= t]
    try:
        image, t = [float(v) for v in table], float(t)
    except OverflowError:
        return None
    return [m for m, v in enumerate(image) if v <= t]


@pytest.mark.parametrize("kind", KERNEL_KINDS)
@given(data=st.data())
def test_kernel_matches_rescaled_bruteforce(kind, data):
    f, d, q, p = data.draw(kernel_case(kind))
    ref = minimize(scale_minus_modular(f, q, [p * di for di in d.d]))
    with mock.patch.object(sfm, "_float_candidates",
                           wraps=sfm._float_candidates) as spy:
        value, minimal, maximal, every, used = minimizers_minus_modular(
            f, q, p, d)
    assert value == ref.min_value
    assert minimal == ref.minimal_minimizer.bits
    assert maximal == ref.maximal_minimizer.bits
    table = f.dense_table().tolist()
    assert every.tolist() == [m for m in range(1 << f.n)
                              if q * table[m] - p * d.of(m) == value]
    # the level-set bound: h(S) <= h(empty) = 0 gives q f(S) <= p d(S) <= P
    t = _level(q, p, d)
    assert all(table[m] <= t for m in every)
    level = _reference_level(f, t)
    if level is None:
        assert used is None  # C is every set: the full pass decided
    else:
        assert used.tolist() == level
        assert set(every.tolist()) <= set(level)
        # the ceiling the dtype rule reads: the float compare keeps no set
        # with f(S) > 2t + 1
        top = 2 * t + 1 if f.dense_table().dtype == object else t
        assert all(table[m] <= top for m in level)
    # the pass is int64 exactly where the level set is cut and the values
    # it reads bound h below 2^60; the float filter runs everywhere else
    top = f.m_bound if level is None else top
    int64 = (q * max(top, -min(table)) + abs(p) * d.norm1 + q < 1 << 60
             and d.sums.dtype == np.int64)
    assert spy.called != int64
    if kind == "float-tie":
        assert level is not None and 1 in level and table[1] > t
    cand = _float_candidates(f, q, p, d, None)
    if kind in ("past-float-range", "inf-product") and any(f.dense_table()):
        assert cand is None  # the exact full pass decided
    if cand is not None:
        # the proven bound keeps every minimizer among the candidates
        assert set(every) <= set(cand.tolist())


@pytest.mark.parametrize("shift", [0, 70], ids=["int64", "object"])
def test_kernel_checks_the_minimizer_lattice(shift):
    # not submodular: {0} and {1} are minimizers, their union is not
    f = _oracle(2, [0, 0, 0, 1 << shift])
    with pytest.raises(InvariantViolation):
        minimizers_minus_modular(f, 1, 0, Direction((1, 1)))


def test_float_image_is_lazy_and_shared():
    f = make_family(IntervalGeometric(9))
    d = Direction((3, -1, 4, 1, -5, 9, 2, 6, 5))
    assert "float_table" not in vars(f) and "float_sums" not in vars(d)
    minimizers_minus_modular(f, 7, 2**80 + 1, d)
    image = vars(f)["float_table"]
    assert not image.flags.writeable
    assert DenseLovasz(f).table is image
    assert d.float_sums is vars(d)["float_sums"]
    # an int64 table is cut to its level set exactly: Newton and bisection
    # never build a float image
    for fam in ("explicit", "coverage", "digraph-cut", "concave-modular"):
        f, d = random_instance(fam, 12, 5).build()
        assert f.dense_table().dtype == np.int64
        discrete_newton(f, d)
        eps = ladder_spacing(d)
        bs = binary_search(f, d, Fraction(0), upper_bound(f, d), eps)
        discrete_newton(f, d, bs.value + eps)
        assert "float_table" not in vars(f) and "float_sums" not in vars(d)
    # P // q >= M: the level set is every set, so the int64 pass runs over
    # the whole table
    f, d = random_instance("coverage", 12, 1).build()
    table = f.dense_table().copy()
    q, p = 1, 3 * f.m_bound
    assert minimizers_minus_modular(f, q, p, d)[4] is None
    for p in (p, p + 1):
        want = q * table - p * d.sums
        assert minimizers_minus_modular(f, q, p, d)[0] == want.min()


@pytest.mark.parametrize("n", [12, 13, 14])
def test_item_with_wide_level_set_matches_bruteforce(n):
    # interval-geometric with d positive only on high indices: a ratio
    # needs a high element, whose runs weigh 4^(j(j-1)/2), so the level set
    # holds a large share of the table.  Its t = P // q is far past 2^60,
    # so each pass runs the float filter on it and exact ints decide among
    # the candidates
    f = make_family(IntervalGeometric(n))
    rng = np.random.default_rng(n)
    dirs = [(-8, 0, -5, -3, -8, 0, -7, -7, 0, 0, -4, 4, 9, -1)[:n]]
    for _ in range(3):
        k = int(rng.integers(1, 4))
        dirs.append(tuple(int(v) for v in rng.integers(-9, 1, n - k))
                    + tuple(int(v) for v in rng.integers(1, 10, k)))
    for d in map(Direction, dirs):
        star = bruteforce_linesearch(f, d).lambda_star
        eps = ladder_spacing(d)
        bs = binary_search(f, d, Fraction(0), upper_bound(f, d), eps)
        for res in (discrete_newton(f, d), solve_dual(f, d),
                    discrete_newton(f, d, bs.value + eps)):
            assert res.lambda_star == star
            assert f.dense_table().item(res.tight_set.bits) == \
                star * d.of(res.tight_set)


def test_newton_solve_runs_passes_on_both_sides_of_the_int64_bound(
        monkeypatch):
    # from lambda0 = 2^100 on a big-int table, the first passes bound h past
    # 2^60 and run the float filter; as lambda falls, so does the level
    # set's ceiling, and the later passes are int64.  Every pass gives the
    # Python-int reference's minimum, minimizers and level set.
    f = make_family(IntervalGeometric(10))
    d = Direction((1,) * 10)
    assert f.dense_table().dtype == object
    table, sums = f.dense_table().tolist(), d.sums.tolist()
    kernel, paths = newton.minimizers_minus_modular, []

    def check(f, q, p, d, within=None):
        with mock.patch.object(sfm, "_float_candidates",
                               wraps=sfm._float_candidates) as spy:
            out = kernel(f, q, p, d, within)
        paths.append("float" if spy.called else "int64")
        h = [q * v - p * s for v, s in zip(table, sums)]
        every = [m for m, v in enumerate(h) if v == min(h)]
        assert out[0] == min(h)
        assert out[1:3] == (reduce(and_, every), reduce(or_, every))
        assert out[3].tolist() == every
        level = _reference_level(f, _level(q, p, d))
        if within is not None:
            level = [m for m in level if m in set(within.tolist())]
        assert out[4].tolist() == level
        return out

    monkeypatch.setattr(newton, "minimizers_minus_modular", check)
    res = discrete_newton(f, d, Fraction(2**100))
    assert res.lambda_star == bruteforce_linesearch(f, d).lambda_star
    assert len(paths) == res.sfm_calls
    assert paths[0] == "float" and paths[-1] == "int64"
    assert paths == sorted(paths)  # float passes, then int64 ones


def test_kernel_pass_is_pure_and_thread_safe():
    # the kernel keeps no state and writes into no array it reads: after a
    # whole-table int64 pass (coverage at P // q >= M) and a float-filter
    # pass (interval-geometric with d positive only on its last element)
    # the oracle's table and the direction's sums hold the same values in
    # the same dtype, and are still read-only
    f, d = random_instance("coverage", 12, 1).build()
    g, e = make_family(IntervalGeometric(12)), Direction((-1,) * 11 + (5,))
    lam = upper_bound(g, e)
    cases = [(f, 1, 3 * f.m_bound, d),
             (g, lam.denominator, lam.numerator, e)]
    for (f, q, p, d), whole in zip(cases, (True, False)):
        before = f.dense_table().copy(), d.sums.copy()
        with mock.patch.object(sfm, "_float_candidates",
                               wraps=sfm._float_candidates) as spy:
            out = minimizers_minus_modular(f, q, p, d)
        assert spy.called != whole
        if whole:
            assert f.dense_table().dtype == np.int64 and out[4] is None
        for now, then in zip((f.dense_table(), d.sums), before):
            assert now.dtype == then.dtype and np.array_equal(now, then)
            assert not now.flags.writeable
    # two threads at once, on these and on the int64 pass (coverage) and
    # the float pass (big-int tables) of random items, get the serial answers
    for fam in ("coverage", "interval-geometric"):
        for seed in range(4):
            f, d = random_instance(fam, 12, seed).build()
            lam = upper_bound(f, d)
            cases.append((f, lam.denominator, lam.numerator, d))
    want = [minimizers_minus_modular(*c)[:3] for c in cases] * 20
    with ThreadPoolExecutor(2) as pool:
        for got in pool.map(lambda _: [minimizers_minus_modular(*c)[:3]
                                       for c in cases * 20], range(2)):
            assert got == want
