import contextlib
import csv
import dataclasses
import io
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polyls import cli, errors
from polyls.cli import CSV_HEADER, main
from polyls.instances import (FAMILIES, Instance, format_fraction,
                              instance_to_json, random_instance)

METHODS = ["newton", "binary", "dualcut", "base", "bruteforce"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_two_elem(tmp_path, direction):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "n": 2,
        "function": {"family": "explicit", "values": [0, 2, 2, 3]},
        "direction": direction,
    }))
    return str(path)


def test_solve_dualcut_output(tmp_path, capsys):
    path = write_two_elem(tmp_path, [3, 4])
    code, out, _ = run(capsys, "solve", "--instance", path, "--method", "dualcut")
    assert code == 0
    assert "lambda_star = 3/7" in out
    assert "lambda_star_decimal = 0.42857142857142855\n" in out
    assert "dual_optimum = [1/7, 1/7]" in out


def test_solve_newton_output(tmp_path, capsys):
    path = write_two_elem(tmp_path, [1, -1])
    code, out, _ = run(capsys, "solve", "--instance", path, "--method", "newton")
    assert code == 0
    assert "lambda_star = 2/1" in out
    assert "tight_set = {0}" in out


@pytest.mark.parametrize("method", ["binary", "base", "bruteforce"])
def test_other_methods_agree(tmp_path, capsys, method):
    path = write_two_elem(tmp_path, [3, 4])
    code, out, _ = run(capsys, "solve", "--instance", path, "--method", method)
    assert code == 0
    assert "lambda_star = 3/7" in out


# f({0}) = f({1}) = f({0, 1}) = 2^1100, past the float range
BIG_INSTANCE = {"n": 2, "function": {"family": "explicit",
                                     "values": [0, 2**1100, 2**1100, 2**1100]},
                "direction": [1, 2]}


@pytest.mark.parametrize("method", ["newton", "dualcut", "binary", "base"])
def test_entries_past_float_range_solve_exactly(tmp_path, capsys, method):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(BIG_INSTANCE))
    code, out, err = run(capsys, "solve", "--instance", str(path),
                         "--method", method)
    assert code == 0, err
    assert f"lambda_star = {2**1100}/3\n" in out
    assert "lambda_star_decimal = 4.5276617634979528e+330\n" in out
    assert "tight_set = {0,1}\n" in out
    code, out, _ = run(capsys, "verify", "--instance", str(path))
    assert code == 0 and "1/1 agree" in out


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    code, _, err = run(capsys, "solve", "--instance", str(path))
    assert code == 1


def test_nonsubmodular_table_fails_at_parse(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "n": 2,
        "function": {"family": "explicit", "values": [0, 2, 2, 5]},
        "direction": [1, 1],
    }))
    for cmd in ("solve", "verify"):
        code, _, err = run(capsys, cmd, "--instance", str(path))
        assert code == 1
        assert "NonSubmodular" in err


@pytest.mark.parametrize("method", ["newton", "dualcut"])
def test_direction_longer_than_n_is_input_error(tmp_path, capsys, method):
    path = write_two_elem(tmp_path, [3, 4, 1])
    code, _, err = run(capsys, "solve", "--instance", path, "--method", method)
    assert code == 1
    assert "input error: InvalidInstance" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("method", ["newton", "dualcut"])
def test_instance_past_size_limit_is_input_error(tmp_path, capsys, method):
    path = tmp_path / "big.json"
    path.write_text(instance_to_json(random_instance("coverage", 22, 1)))
    code, out, err = run(capsys, "solve", "--instance", str(path),
                         "--method", method)
    assert code == 1
    assert "input error: GroundSetTooLarge" in err
    assert "Traceback" not in err
    assert "lambda_star" not in out


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "coverage", "--n", "0"],
    ["gen", "--family", "coverage", "--n", "25"],
    ["verify", "--random", "coverage", "0", "1", "1"],
    ["verify", "--random", "coverage", "22", "1", "1"],
    ["verify", "--random", "coverage", "5", "-1", "1"],
    ["bench", "--suite", "cross", "--count", "-3"],
], ids=["gen-n0", "gen-n25", "verify-n0", "verify-n22", "verify-count-neg",
        "bench-count-neg"])
def test_gen_and_verify_check_sizes_first(tmp_path, capsys, argv):
    out_path = tmp_path / "g.json"
    if argv[0] == "gen":
        argv = argv + ["--out", str(out_path)]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("input error: ")
    assert "Traceback" not in err
    assert "agree" not in out
    assert not out_path.exists()


@pytest.mark.parametrize("field,bad", [
    ("values", 2.7), ("values", "2"), ("values", True),
    ("direction", 3.9), ("direction", "3"), ("direction", True),
], ids=["values-float", "values-str", "values-bool",
        "direction-float", "direction-str", "direction-bool"])
def test_non_integer_json_is_input_error(tmp_path, capsys, field, bad):
    inst = {"n": 2,
            "function": {"family": "explicit", "values": [0, 2, 2, 3]},
            "direction": [3, 4]}
    (inst["function"] if field == "values" else inst)[field][1] = bad
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    code, out, err = run(capsys, "solve", "--instance", str(path),
                         "--method", "newton")
    assert code == 1
    assert "input error: InvalidInstance" in err
    assert "Traceback" not in err
    assert "lambda_star" not in out


TWO_ELEM = {"n": 2,
            "function": {"family": "explicit", "values": [0, 2, 2, 3]},
            "direction": [3, 4]}


def test_x0_key_is_spelled_exactly(tmp_path, capsys):
    # x0 = (1, 1) takes lambda* from 3/7 to 1/7; "xo" must not be dropped
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({**TWO_ELEM, "x0": [1, 1]}))
    code, out, _ = run(capsys, "solve", "--instance", str(path))
    assert code == 0
    assert "lambda_star = 1/7" in out
    path.write_text(json.dumps({**TWO_ELEM, "xo": [1, 1]}))
    code, out, err = run(capsys, "solve", "--instance", str(path))
    assert code == 1
    assert "input error: InvalidInstance: unknown keys: ['xo']" in err
    assert "lambda_star" not in out


@pytest.mark.parametrize("function", [
    {"family": "explicit", "values": [0, 2, 2, 3], "sede": 3},
    {"family": "explicit", "values": [0, 2, 2, 3], "n": 2},
    {"family": "interval-geometric", "n": 2, "values": [0, 2, 2, 3]},
    {"family": "explicit", "values": [0, 2, 2, 3], "seed": 1.5},
    {"family": "explicit", "values": [0, 2, 2, 3], "seed": "a"},
    {"family": "explicit", "values": [0, 2, 2, 3], "seed": True},
], ids=["misspelled-seed", "n-in-explicit", "values-in-interval",
        "seed-float", "seed-str", "seed-bool"])
def test_function_keys_and_seed_are_strict(tmp_path, capsys, function):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({**TWO_ELEM, "function": function}))
    code, out, err = run(capsys, "solve", "--instance", str(path))
    assert code == 1
    assert "input error: InvalidInstance" in err
    assert "Traceback" not in err
    assert "lambda_star" not in out


@pytest.mark.parametrize("inst", [
    {**TWO_ELEM, "x0": None},
    {**TWO_ELEM, "function": {**TWO_ELEM["function"], "seed": None}},
    {**TWO_ELEM, "x0": None,
     "function": {**TWO_ELEM["function"], "seed": None}},
], ids=["x0", "seed", "both"])
def test_null_optional_key_is_input_error(tmp_path, capsys, inst):
    # an optional key may be left out, but null is not an absent key
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    code, out, err = run(capsys, "solve", "--instance", str(path))
    assert code == 1
    assert "input error: InvalidInstance: expected a JSON" in err
    assert "Traceback" not in err
    assert "lambda_star" not in out


@pytest.mark.parametrize("inst", [
    {"n": 2, "function": {"family": "explicit", "values": 5}, "direction": [3, 4]},
    [1, 2],
    {"n": 2, "function": [0, 1], "direction": [3, 4]},
    {"n": 2, "function": {"family": "explicit", "values": [0, 2, 2, 3]},
     "direction": 7},
], ids=["values-int", "top-level-array", "function-array", "direction-int"])
def test_malformed_json_shape_is_input_error(tmp_path, capsys, inst):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    code, out, err = run(capsys, "solve", "--instance", str(path),
                         "--method", "newton")
    assert code == 1
    assert "input error: InvalidInstance" in err
    assert "Traceback" not in err
    assert "lambda_star" not in out


@pytest.mark.parametrize("sets,weights", [
    ([[0], [1]], [1]),
    ([[0], [1], [0, 1]], [1, 1]),
    ([[0, 1]], [1, 1]),
], ids=["short-weights", "extra-set", "missing-set"])
def test_coverage_shape_is_input_error(tmp_path, capsys, sets, weights):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "n": 2,
        "function": {"family": "coverage", "n": 2, "universe": 2,
                     "sets": sets, "weights": weights},
        "direction": [1, 1],
    }))
    code, out, err = run(capsys, "solve", "--instance", str(path),
                         "--method", "newton")
    assert code == 1
    assert "input error: ValueError" in err
    assert "Traceback" not in err
    assert "lambda_star" not in out


FAMILY_REJECTIONS = {
    "coverage-negative-weight": (
        {"family": "coverage", "n": 2, "universe": 2, "sets": [[0], [1]],
         "weights": [1, -1]}, [1, 1],
        "NegativeValue: coverage weights must be nonnegative"),
    "coverage-element-out-of-range": (
        {"family": "coverage", "n": 2, "universe": 2, "sets": [[0], [2]],
         "weights": [1, 1]}, [1, 1],
        "ValueError: universe element 2 out of range"),
    "digraph-negative-capacity": (
        {"family": "digraph-cut", "n": 2, "arcs": [[0, 1, -1]]}, [1, 1],
        "NegativeValue: arc capacity -1 < 0"),
    "digraph-self-loop": (
        {"family": "digraph-cut", "n": 2, "arcs": [[1, 1, 1]]}, [1, 1],
        "ValueError: bad arc (1, 1)"),
    "digraph-arc-out-of-range": (
        {"family": "digraph-cut", "n": 2, "arcs": [[0, 2, 1]]}, [1, 1],
        "ValueError: bad arc (0, 2)"),
    "concave-modular-short-sequence": (
        {"family": "concave-modular", "concave": [0, 2], "modular": [0, 0]},
        [1, 1], "ValueError: concave sequence needs n+1 = 3 entries"),
    "interval-geometric-empty": (
        {"family": "interval-geometric", "n": 0}, [],
        "ValueError: interval family needs n >= 1"),
}


@pytest.mark.parametrize("case", sorted(FAMILY_REJECTIONS))
def test_family_rejection_is_input_error(tmp_path, capsys, case):
    function, direction, message = FAMILY_REJECTIONS[case]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"n": function.get("n", 2),
                                "function": function,
                                "direction": direction}))
    code, out, err = run(capsys, "solve", "--instance", str(path))
    assert code == 1
    assert err == f"input error: {message}\n"
    assert "lambda_star" not in out


X0_OUTSIDE = {
    "outside-full-set": {"direction": [3, 4], "x0": [5, 5]},
    "outside-singleton": {"direction": [3, -4], "x0": [0, 5]},
}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("case", sorted(X0_OUTSIDE))
def test_x0_outside_polymatroid_is_input_error(tmp_path, capsys, case, method):
    # x0(S) > f(S) for S = {0, 1} (10 > 3), resp. S = {1} (5 > 2)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "n": 2,
        "function": {"family": "explicit", "values": [0, 2, 2, 3]},
        **X0_OUTSIDE[case],
    }))
    code, out, err = run(capsys, "solve", "--instance", str(path),
                         "--method", method)
    assert code == 1
    assert "input error: InvalidInstance: x0 lies outside P(f)" in err
    assert "Traceback" not in err
    assert "lambda_star" not in out


def test_declared_n_must_match_table(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "n": 3,
        "function": {"family": "explicit", "values": [0, 2, 2, 3]},
        "direction": [3, 4, 1],
    }))
    for cmd in ("solve", "verify"):
        code, out, err = run(capsys, cmd, "--instance", str(path))
        assert code == 1
        assert "input error: InvalidInstance" in err
        assert "lambda_star" not in out


def test_solve_default_method_is_newton(tmp_path, capsys):
    path = write_two_elem(tmp_path, [3, 4])
    code, out, _ = run(capsys, "solve", "--instance", path)
    assert code == 0
    assert "method = newton" in out
    assert "lambda_star = 3/7" in out


def test_solve_output_is_deterministic(tmp_path, capsys):
    path = write_two_elem(tmp_path, [3, 4])
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "solve", "--instance", path)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


@pytest.mark.parametrize("family", FAMILIES)
def test_binary_route_counts_every_read(tmp_path, capsys, monkeypatch, family):
    # the route reads upper_bound's singletons before it bisects, and
    # oracle_calls counts them along with the reads of its Newton step
    built = []
    build = Instance.build

    def build_spy(self):
        f, d = build(self)
        built.append((f, f.calls, d))
        return f, d

    monkeypatch.setattr(Instance, "build", build_spy)
    path = tmp_path / "inst.json"
    assert main(["gen", "--family", family, "--n", "8", "--seed", "7",
                 "--out", str(path)]) == 0
    code, out, _ = run(capsys, "solve", "--instance", str(path),
                       "--method", "binary")
    assert code == 0
    [(f, calls, d)] = built
    assert f"oracle_calls = {f.calls - calls}\n" in out
    singletons = sum(di > 0 for di in d.d)
    assert f.calls - calls > singletons


def test_unknown_flag_is_input_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--nope"])
    assert exc.value.code == 1


def test_gen_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--family", "coverage", "--n", "6", "--seed", "9",
                 "--out", str(a)]) == 0
    assert main(["gen", "--family", "coverage", "--n", "6", "--seed", "9",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "coverage", "--n", "3"],
    ["bench", "--suite", "worst-case"],
], ids=["gen", "bench"])
def test_unwritable_out_is_input_error(tmp_path, capsys, argv):
    out_path = tmp_path / "missing-dir" / "out"
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == 1
    assert err.startswith("input error: ")
    assert "Traceback" not in err
    assert out == ""
    assert not out_path.exists()


def test_gen_unknown_family(capsys):
    code, out, err = run(capsys, "gen", "--family", "martian", "--n", "3")
    assert code == 1
    assert err.startswith("input error: unknown family 'martian'; choose from ")
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (["verify", "--random", "martian", "3", "1", "1"],
     "unknown family 'martian'; choose from "),
    (["verify", "--random", "coverage", "x", "1", "1"],
     "verify --random needs FAMILY N COUNT SEED"),
    (["bench", "--suite", "nope"], "unknown suite 'nope'"),
], ids=["verify-family", "verify-number", "bench-suite"])
def test_bad_choice_is_input_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("input error: " + message)
    assert out == ""


def test_gen_solve_pipeline(tmp_path, capsys):
    path = tmp_path / "g.json"
    assert main(["gen", "--family", "interval-geometric", "--n", "2",
                 "--out", str(path)]) == 0
    code, out, _ = run(capsys, "solve", "--instance", str(path))
    assert code == 0
    assert "lambda_star = 1/25" in out  # 4/D at D = 100


def test_verify_random_agrees(capsys):
    code, out, _ = run(capsys, "verify", "--random", "coverage", "7", "12", "5")
    assert code == 0
    assert "12/12 agree" in out


def test_verify_instance(tmp_path, capsys):
    path = write_two_elem(tmp_path, [3, 4])
    code, out, _ = run(capsys, "verify", "--instance", path)
    assert code == 0
    assert "1/1 agree" in out


def test_verify_reports_a_mismatch(capsys, monkeypatch):
    # the second instance's dual answer is off by one: verify names it,
    # prints it back as a reproduction instance and exits 3
    solve_dual = cli.solve_dual
    calls = []

    def wrong_second(f, d):
        res = solve_dual(f, d)
        calls.append(res)
        if len(calls) == 2:
            res = dataclasses.replace(res, lambda_star=res.lambda_star + 1)
        return res

    monkeypatch.setattr(cli, "solve_dual", wrong_second)
    code, out, _ = run(capsys, "verify", "--random", "coverage", "4", "3", "5")
    assert code == 3 and len(calls) == 3
    right = format_fraction(calls[1].lambda_star)
    wrong = format_fraction(calls[1].lambda_star + 1)
    want = {"newton": right, "dualcut": wrong, "bruteforce": right}
    assert out == (f"MISMATCH coverage-n4-s6: {want}\n"
                   "reproduction instance:\n"
                   + instance_to_json(random_instance("coverage", 4, 6))
                   + "2/3 agree\n")


def test_verify_reports_a_solver_error(tmp_path, capsys, monkeypatch):
    def fail(f, d):
        raise errors.InvariantViolation("no tight set")

    monkeypatch.setattr(cli, "solve_dual", fail)
    path = write_two_elem(tmp_path, [3, 4])
    code, out, err = run(capsys, "verify", "--instance", path)
    assert code == 2
    assert err == "solver error: InvariantViolation: no tight set\n"
    assert out == ""


def test_verify_needs_exactly_one_source(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 1
    assert err == "input error: verify needs exactly one of --instance or --random\n"


def test_bench_cross_csv(capsys):
    code, out, _ = run(capsys, "bench", "--suite", "cross", "--count", "2",
                       "--seed", "3")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == CSV_HEADER
    assert len(rows) > 1
    by_inst = {}
    for row in rows[1:]:
        assert row[-1] == "bench-v1"
        by_inst.setdefault(row[0], {})[row[3]] = row
    assert len(by_inst) == 2 * len(FAMILIES)
    for methods in by_inst.values():
        # identical exact rationals across methods for every instance
        assert len({row[4] for row in methods.values()}) == 1
        # the dual warm start takes no more Newton steps than the cold start
        cold, warm = methods["newton"], methods["dualcut"]
        assert int(warm[8]) <= int(cold[8])


def test_bench_dual_warmstart(capsys):
    # the cold/warm Newton pairs are the newton and dualcut rows of cross
    code, out, _ = run(capsys, "bench", "--suite", "cross",
                       "--count", "1", "--seed", "1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == CSV_HEADER
    pairs = {}
    for row in rows[1:]:
        assert row[-1] == "bench-v1"
        if row[3] in ("newton", "dualcut"):
            pairs.setdefault(row[0], {})[row[3]] = row
    assert len(pairs) == len(FAMILIES) == 5
    for pair in pairs.values():
        cold, warm = pair["newton"], pair["dualcut"]
        assert cold[4] == warm[4]  # same exact lambda*
        assert int(warm[8]) <= int(cold[8])  # dual start not worse than cold


def test_each_instance_is_built_once(tmp_path, capsys, monkeypatch):
    # every method a command runs solves the one (f, d) its instance built
    built = []
    build = Instance.build

    def build_spy(self):
        built.append(self)
        return build(self)

    monkeypatch.setattr(Instance, "build", build_spy)
    path = write_two_elem(tmp_path, [3, 4])
    for argv in [("solve", "--instance", path, "--method", m) for m in METHODS] + [
            ("verify", "--instance", path)]:
        built.clear()
        assert run(capsys, *argv)[0] == 0
        assert len(built) == 1, argv
    built.clear()
    code, out, _ = run(capsys, "verify", "--random", "coverage", "5", "4", "1")
    assert code == 0 and "4/4 agree" in out
    assert len(built) == 4
    built.clear()
    code, out, _ = run(capsys, "bench", "--suite", "cross", "--count", "2",
                       "--seed", "1")
    assert code == 0 and len(built) == 2 * len(FAMILIES)
    # oracle_calls is a per-solve difference: each row's counters are those
    # of its method on a freshly built copy of the instance
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 4 * len(built)
    for row, inst in zip(rows, [i for i in built for _ in range(4)]):
        res, _ = cli._solve_one(*build(inst), row[3])
        assert row[4:9] == [format_fraction(res.lambda_star),
                            str(res.oracle_calls), str(res.sfm_calls),
                            str(res.engine_iterations),
                            str(res.newton_iterations)]
    for suite, count in (("ladder-sweep", 2 * len(FAMILIES)), ("worst-case", 4)):
        built.clear()
        assert run(capsys, "bench", "--suite", suite, "--count", "2")[0] == 0
        assert len(built) == count, suite


def test_bench_empty_suite(capsys):
    code, out, _ = run(capsys, "bench", "--suite", "cross", "--count", "0")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [CSV_HEADER]


def test_bench_worst_case(tmp_path, capsys):
    out_path = tmp_path / "w.csv"
    assert main(["bench", "--suite", "worst-case", "--out", str(out_path)]) == 0
    rows = list(csv.reader(out_path.open()))
    lam = {row[0]: row[4] for row in rows[1:]}
    assert lam["interval-D10"] == "2/5"
    assert lam["interval-D1000"] == "1/250"
    assert lam["interval-D10000"] == "1/2500"
    assert "first_breakpoint=12/299" in rows[3][11]
    big = [row for row in rows[1:] if row[0] == "interval-D10000"]
    assert [row[3] for row in big] == ["newton", "dualcut"]
    for row in big:
        assert row[11] == ("D=10000;first_breakpoint=12/29999;"
                           "minimizer_below={0};minimizer_above={0,1}")


def test_bench_ladder_sweep(capsys):
    code, out, _ = run(capsys, "bench", "--suite", "ladder-sweep",
                       "--count", "2", "--seed", "11")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    for row in rows[1:]:
        k = int(row[11].split("=")[1])
        assert int(row[8]) <= k  # warm-start bound visible in the CSV


# --- end-to-end fuzz of instance JSON through main -------------------------

# stand-ins for any JSON node: wrong shapes, non-integers, huge integers
_ANY_JSON = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-2**70, 2**70), st.sampled_from([2**63, 10**30, -10**30]),
    st.lists(st.integers(-3, 3), max_size=4),
    st.dictionaries(st.sampled_from(["n", "family", "values"]),
                    st.integers(-3, 3), max_size=2))
_INT = st.one_of(st.integers(-10, 10), st.integers(-2**70, 2**70),
                 st.sampled_from([-1, 0, 2**63, 10**30, -10**30]))


def _paths(node, path=()):
    """Every node of a JSON tree, as the path of keys and indices to it."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def fuzzed_instances(draw):
    """A valid instance (n <= 3, with or without x0) after up to three
    mutations: a node replaced by any JSON value, an integer replaced by a
    negative or huge one, an array cut short or made longer, a key dropped."""
    n = draw(st.integers(1, 3))
    inst = random_instance(draw(st.sampled_from(FAMILIES)), n,
                           draw(st.integers(0, 999)))
    obj = json.loads(instance_to_json(inst))
    if draw(st.booleans()):
        obj["x0"] = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(obj))))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]] if path else obj
        ops = ["replace"]
        if type(node) is int:
            ops.append("int")
        if isinstance(node, list):
            ops += ["shorten", "lengthen"]
        if path and isinstance(parent, dict):
            ops.append("drop")
        op = draw(st.sampled_from(ops))
        if op == "drop":
            del parent[path[-1]]
            continue
        if op == "replace":
            new = draw(_ANY_JSON)
        elif op == "int":
            new = draw(_INT)
        elif op == "shorten":
            new = node[:draw(st.integers(0, max(len(node) - 1, 0)))]
        else:
            new = node + draw(st.lists(_INT, min_size=1, max_size=3))
        if path:
            parent[path[-1]] = new
        else:
            obj = new
    return obj


def _main_quiet(argv):
    # capsys is function-scoped, so hypothesis examples capture by hand
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(fuzzed_instances())
@example({"n": 2, "function": {"family": "explicit", "values": [0, 2, 2, 3]},
          "direction": [3, 4], "x0": [5, 5]})
@example({"n": 2, "function": {"family": "explicit", "values": [0, 2, 2, 3]},
          "direction": [3, -4], "x0": [0, 5]})
@example(BIG_INSTANCE)
def test_fuzzed_instances_through_main(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("fuzz") / "inst.json"
    path.write_text(json.dumps(obj))
    solved = False
    for method in METHODS:
        # an exception escaping main fails the test with its traceback
        code, _, err = _main_quiet(["solve", "--instance", str(path),
                                    "--method", method])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        solved = solved or code == 0
    if solved:
        code, out, _ = _main_quiet(["verify", "--instance", str(path)])
        assert code == 0, out
