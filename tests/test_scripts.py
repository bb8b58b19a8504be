"""Smoke runs of the scripts under scripts/, as subprocesses."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, last_line", [
    ("warmstart_experiment.py", ["--count", "1"],
     "dual start not worse than cold on 5/5 (100.0%)"),
    ("worstcase_sweep.py", ["--ds", "10,100"],
     "minimizer flips from {0} to {0,1} across every breakpoint"),
])
def test_script_runs(script, args, last_line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == last_line
