import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polyls.subsets import SubsetMask, subset_sums

masks = st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.tuples(st.integers(0, (1 << n) - 1),
                        st.integers(0, (1 << n) - 1), st.just(n)))


def as_set(m: SubsetMask) -> set:
    return set(m.indices())


@given(masks)
def test_algebra_matches_set_semantics(bits_bits_n):
    a_bits, b_bits, n = bits_bits_n
    a, b = SubsetMask(a_bits, n), SubsetMask(b_bits, n)
    assert a.issubset(b) == as_set(a).issubset(as_set(b))


@given(masks)
def test_roundtrip_and_membership(bits_bits_n):
    a_bits, _, n = bits_bits_n
    a = SubsetMask(a_bits, n)
    assert SubsetMask.from_indices(n, a.indices()) == a
    assert all(i in a for i in a)
    assert int(a) == a_bits  # usable as a table index


def test_bounds_checked():
    with pytest.raises(ValueError):
        SubsetMask(4, 2)
    with pytest.raises(ValueError):
        SubsetMask.from_indices(3, [3])
    with pytest.raises(ValueError):
        SubsetMask(1, 2).issubset(SubsetMask(1, 3))


def test_constructors():
    assert SubsetMask.empty(4) == SubsetMask(0, 4)
    assert SubsetMask.full(4) == SubsetMask(0b1111, 4)
    assert SubsetMask.from_indices(4, (2,)).indices() == (2,)
    assert str(SubsetMask(0b101, 3)) == "{0,2}"


@given(st.lists(st.integers(-50, 50), min_size=0, max_size=10))
@example([2**62, 2**62, -1])  # sums past int64 stay exact
def test_subset_sums_table(values):
    table = subset_sums(values)
    assert len(table) == 1 << len(values)
    for mask in range(len(table)):
        assert table[mask] == sum(v for i, v in enumerate(values) if mask >> i & 1)
