"""Exact-solve benchmark of polyls: per-route latency and throughput.

Run from the repository root:

    python3 perfbench/run.py --workload oneshot-small --seed 1 --seconds 20 --trace 0

It imports the library from ./src, prints what it measured line by line and,
as the last line, one JSON object {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics of
a traced run with --trace 1.  It exits 1 when any op failed or gave a wrong
answer, and 2 when the library sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# one process, one thread: pin BLAS/OpenMP before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPANS_DIR = HERE / "out"


def _import_library():
    """Import polyls from this checkout's sources, never from elsewhere."""
    if not (SRC / "polyls" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC}/polyls", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import polyls
    if Path(polyls.__file__).resolve().parent != SRC / "polyls":
        print(f"perfbench: imported polyls from {polyls.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    _import_library()
    import bench

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    out = bench.run(bench.WORKLOADS[args.workload], args.seed, args.seconds,
                    bool(args.trace), spans_dir=SPANS_DIR)
    for line in out.lines:
        print(line)
    for name, (value, unit) in out.metrics.items():
        print(f"metric {name} = {value} {unit}")
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    }))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
