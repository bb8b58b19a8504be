import csv
import io
import json

import pytest

from polyls.cli import CSV_HEADER, main
from polyls.instances import instance_to_json, random_instance


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


def test_solve_output_is_deterministic(tmp_path, capsys):
    path = write_two_elem(tmp_path, [3, 4])
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "solve", "--instance", path)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


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


def test_gen_unknown_family(capsys):
    code, _, err = run(capsys, "gen", "--family", "martian", "--n", "3")
    assert code == 1


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


def test_verify_needs_exactly_one_source(capsys):
    code, _, _ = run(capsys, "verify")
    assert code == 1


def test_verify_parallel_workers(capsys, monkeypatch):
    monkeypatch.setenv("LINESEARCH_THREADS", "2")
    code, out, _ = run(capsys, "verify", "--random", "concave-modular",
                       "5", "6", "17")
    assert code == 0
    assert "6/6 agree" in out


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
        by_inst.setdefault(row[0], set()).add(row[4])
    # identical exact rationals across methods for every instance
    assert all(len(vals) == 1 for vals in by_inst.values())


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
    assert "first_breakpoint=12/299" in rows[3][11]


def test_bench_ladder_sweep(capsys):
    code, out, _ = run(capsys, "bench", "--suite", "ladder-sweep",
                       "--count", "2", "--seed", "11")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    for row in rows[1:]:
        k = int(row[11].split("=")[1])
        assert int(row[8]) <= k  # warm-start bound visible in the CSV
