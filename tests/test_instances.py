import json

import pytest

from polyls.errors import InvalidInstance, NonSubmodular
from polyls.instances import (FAMILIES, Instance, generate, instance_from_json,
                              instance_to_json, format_fraction,
                              random_instance)
from polyls.oracles import ExplicitTable
from fractions import Fraction


@pytest.mark.parametrize("family", FAMILIES)
def test_round_trip_identity(family):
    inst = random_instance(family, 6, 42)
    text = instance_to_json(inst)
    again = instance_from_json(text)
    assert again == inst
    assert instance_to_json(again) == text


def test_generation_is_deterministic():
    for family in FAMILIES:
        a = generate(family, 5, 7)
        b = generate(family, 5, 7)
        assert instance_to_json(a) == instance_to_json(b)
        assert instance_to_json(a) != instance_to_json(generate(family, 5, 8)) \
            or family == "interval-geometric"  # f fixed, direction canonical


def test_interval_gen_is_canonical_hard_instance():
    inst = generate("interval-geometric", 2, 0)
    assert inst.direction == (100, 299)
    f, d = inst.build()
    from polyls import bruteforce_linesearch
    assert bruteforce_linesearch(f, d).lambda_star == Fraction(4, 100)


def test_x0_translates_oracle():
    inst = random_instance("coverage", 4, 3)
    base_oracle, _ = inst.build()
    shifted = Instance(inst.n, inst.spec, inst.direction, x0=(0,) * inst.n)
    f, _ = shifted.build()
    assert f.dense_table().tolist() == base_oracle.dense_table().tolist()
    # an x0 on the boundary of P(f) (tight at {0} and {0, 1}) is accepted;
    # one past it is an input error naming a violated set
    two = ExplicitTable((0, 2, 2, 3))
    f, _ = Instance(2, two, (3, 4), x0=(2, 1)).build()
    assert f.dense_table().tolist() == [0, 0, 1, 0]
    with pytest.raises(InvalidInstance, match=r"outside P\(f\).*S=\{0,1\}"):
        Instance(2, two, (3, 4), x0=(2, 2)).build()


def test_sizes_are_compared_before_the_table_is_checked():
    # a non-submodular n = 12 table: f(S) = |S| with f({3,5,7}) raised by 1
    values = [bin(s).count("1") for s in range(1 << 12)]
    values[0b10101000] += 1
    bad = ExplicitTable(tuple(values))
    with pytest.raises(NonSubmodular, match=r"S=\{3,5,7\}, i=0, j=1$"):
        Instance(12, bad, (1,) * 12).build()
    with pytest.raises(InvalidInstance, match="the direction has 11 elements"):
        Instance(12, bad, (1,) * 11).build()
    with pytest.raises(InvalidInstance, match="the x0 has 13 elements"):
        Instance(12, bad, (1,) * 12, x0=(0,) * 13).build()


def test_oversized_table_is_an_input_error_before_its_check():
    # an n = 12 file holding a 2^14-value table that is not submodular: its
    # size is read off its length, so the table is never built or checked
    values = [bin(s).count("1") for s in range(1 << 14)]
    values[0b10101000] += 1
    with pytest.raises(InvalidInstance, match="the function has 14 elements"):
        Instance(12, ExplicitTable(tuple(values)), (1,) * 12).build()
    # a length that is not a power of two stays make_family's ValueError
    with pytest.raises(ValueError, match="not a power of two"):
        Instance(2, ExplicitTable((0, 1, 2)), (1, 1)).build()


def test_first_non_integer_entry_is_named():
    text = json.dumps({"n": 2, "function": {"family": "explicit",
                                            "values": [0, 2, True, 2.5]},
                       "direction": [3, 4]})
    with pytest.raises(InvalidInstance,
                       match="expected a JSON integer, got True$"):
        instance_from_json(text)


def test_direction_always_has_positive_entry():
    for seed in range(200):
        inst = random_instance("digraph-cut", 3, seed)
        assert any(v > 0 for v in inst.direction)


def test_bad_json_rejected():
    with pytest.raises((ValueError, KeyError, json.JSONDecodeError)):
        instance_from_json("{nope")
    with pytest.raises(ValueError):
        instance_from_json(json.dumps(
            {"n": 2, "function": {"family": "martian"}, "direction": [1, 1]}))


def test_fraction_strings():
    assert format_fraction(Fraction(3, 7)) == "3/7"
    assert format_fraction(Fraction(2)) == "2/1"
