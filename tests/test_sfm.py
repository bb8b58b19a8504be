from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyls import (DenseLovasz, Direction, ExplicitTable, IntervalGeometric,
                    make_family, membership, minimize_bruteforce,
                    minimize_minus_modular, minimize_mnp, newton_scale,
                    subset_sums, translate, upper_bound)
from polyls.errors import GroundSetTooLarge, InvariantViolation
from polyls.instances import FAMILIES, random_instance
from polyls.oracles import SubmodularOracle, scale_minus_modular
from polyls import sfm
from polyls.sfm import _float_candidates
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
        minimize_bruteforce(SubmodularOracle(21, [0], m_bound=0))


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
                "modular-tie", "near-tie", "past-float-range", "inf-product"]


def _oracle(n, table):
    table = [int(v) for v in table]
    return SubmodularOracle(n, table, m_bound=max(abs(v) for v in table))


@st.composite
def kernel_case(draw, kind):
    """(f, d, q, p) of one kind; q up to 2^200 and |p d_i| up to 2^300."""
    n = draw(st.integers(1, 6))
    if kind == "interval":
        n = draw(st.integers(6, 9))  # exact big-int tables from n = 8 on
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
    else:  # inf-product: every entry fits float64, q f(S) overflows to inf
        f = _oracle(n, big << 900)
        q = draw(st.integers(2**199, 2**200))
    return f, d, q, p


@pytest.mark.parametrize("kind", KERNEL_KINDS)
@given(data=st.data())
def test_kernel_matches_rescaled_bruteforce(kind, data):
    f, d, q, p = data.draw(kernel_case(kind))
    ref = minimize_bruteforce(scale_minus_modular(f, q, [p * di for di in d.d]))
    value, minimal, maximal = minimize_minus_modular(f, q, p, d)
    assert value == ref.min_value
    assert minimal == ref.minimal_minimizer.bits
    assert maximal == ref.maximal_minimizer.bits
    cand = _float_candidates(f, q, p, d)
    if kind in ("past-float-range", "inf-product") and any(f.dense_table()):
        assert cand is None  # the exact full pass decided
    if cand is not None:
        # the proven bound keeps every minimizer among the candidates
        table = f.dense_table()
        every = {m for m in range(1 << f.n)
                 if q * table.item(m) - p * d.of(m) == value}
        assert every <= set(cand.tolist())


@pytest.mark.parametrize("shift", [0, 70], ids=["int64", "object"])
def test_kernel_checks_the_minimizer_lattice(shift):
    # not submodular: {0} and {1} are minimizers, their union is not
    f = _oracle(2, [0, 0, 0, 1 << shift])
    with pytest.raises(InvariantViolation):
        minimize_minus_modular(f, 1, 0, Direction((1, 1)))


def test_float_image_is_lazy_and_shared():
    f = make_family(IntervalGeometric(9))
    d = Direction((3, -1, 4, 1, -5, 9, 2, 6, 5))
    assert "float_table" not in vars(f) and "float_sums" not in vars(d)
    minimize_minus_modular(f, 7, 2**80 + 1, d)
    image = vars(f)["float_table"]
    assert not image.flags.writeable
    assert DenseLovasz(f).table is image
    assert d.float_sums is vars(d)["float_sums"]


def test_kernel_scratch_is_reused_and_per_thread():
    # the int64 pass (coverage) and the float pass (big-int tables)
    cases = []
    for fam in ("coverage", "interval-geometric"):
        for seed in range(4):
            f, d = random_instance(fam, 12, seed).build()
            lam = upper_bound(f, d)
            cases.append((f, lam.denominator, lam.numerator, d))
    want = [minimize_minus_modular(*c) for c in cases] * 20
    bufs = sfm._scratch.bufs
    # a smaller ground set writes into a prefix of the same buffers
    small = _oracle(2, [0, 1, 1, 1])
    assert minimize_minus_modular(small, 1, 1, Direction((1, 1))) == (-1, 3, 3)
    assert sfm._scratch.bufs is bufs
    # two threads at once: each writes only into its own scratch
    with ThreadPoolExecutor(2) as pool:
        for got in pool.map(lambda _: [minimize_minus_modular(*c)
                                       for c in cases * 20], range(2)):
            assert got == want
