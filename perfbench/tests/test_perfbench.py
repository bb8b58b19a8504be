"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests)."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bench  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from polyls import newton  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(w: bench.Workload) -> bench.Workload:
    sizes = (3, 4) if not w.reuse else (4,)
    return dataclasses.replace(w, sizes=sizes, items=12, reuse=min(w.reuse, 1))


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(name, trace, monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(bench.WORKLOADS, name, tiny(bench.WORKLOADS[name]))
    monkeypatch.setattr(run, "SPANS_DIR", tmp_path)
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.05",
                     "--trace", str(trace)])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 3
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        assert list(tmp_path.glob("spans-*.jsonl.gz"))


def test_gate_fires_on_corrupted_reference():
    def corrupted(f, d):
        res = newton.bruteforce_linesearch(f, d)
        return dataclasses.replace(res, lambda_star=res.lambda_star + 1)

    w = tiny(bench.WORKLOADS["oneshot-small"])
    good = bench.run(w, seed=5, seconds=0.05, trace=False)
    bad = bench.run(w, seed=5, seconds=0.05, trace=False, reference=corrupted)
    assert good.correct
    assert not bad.correct
    assert bad.failed == bad.attempted


def test_equal_results_are_kept_once():
    state = bench.setup(tiny(bench.WORKLOADS["oneshot-small"]), seed=2)
    first, again = (bench.run_op(state, 0, "dualcut") for _ in range(2))
    assert first.result is again.result
    assert first.result.trace is None


def test_wrapped_attributes_are_restored():
    before = tracer.originals()
    w = tiny(bench.WORKLOADS["reuse-directions"])
    bench.run(w, seed=1, seconds=0.05, trace=False)
    assert all(tracer.originals()[key] is obj for key, obj in before.items())
    bench.run(w, seed=1, seconds=0.05, trace=True)
    assert all(tracer.originals()[key] is obj for key, obj in before.items())


def test_exits_nonzero_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "oneshot-small",
                                             "--seed", "1", "--seconds", "1",
                                             "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2
    assert '"metrics"' not in proc.stdout
