"""Command-line front end: gen / solve / verify / bench.

Exit codes: 0 ok, 1 input error, 2 solver error, 3 verification mismatch.
LINESEARCH_THREADS > 1 parallelizes verify/bench across instances with a
process pool; output order stays deterministic either way.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from fractions import Fraction

from . import errors
from .dualcut import solve_dual, solve_dual_base
from .instances import (FAMILIES, Instance, dump_instance, format_fraction,
                        generate, instance_from_json, instance_to_json,
                        load_instance, random_instance)
from .newton import (binary_search, bruteforce_linesearch, discrete_newton,
                     ladder_spacing, upper_bound)
from .oracles import TABLE_N_CAP

CSV_SCHEMA = "bench-v1"
CSV_HEADER = ["instance_id", "family", "n", "method", "lambda_star",
              "oracle_calls", "sfm_calls", "engine_iterations",
              "newton_iterations", "wall_time_ns", "status", "extra", "schema"]

BRUTE_N_CAP = 12  # verify includes the brute-force reference up to here


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; inputs are exit 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _threads() -> int:
    raw = os.environ.get("LINESEARCH_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _solve_one(inst: Instance, method: str):
    """(result, wall_ns); module-level so a process pool can ship it."""
    f, d = inst.build()
    t0 = time.perf_counter_ns()
    if method == "newton":
        res = discrete_newton(f, d)
    elif method == "dualcut":
        res = solve_dual(f, d)
    elif method == "base":
        res = solve_dual_base(f, d)
    elif method == "bruteforce":
        res = bruteforce_linesearch(f, d)
    elif method == "binary":
        # bisection to the ladder spacing, then one Newton step rounds exactly
        eps = ladder_spacing(d)
        bs = binary_search(f, d, Fraction(0), upper_bound(f, d), eps)
        res = discrete_newton(f, d, bs.value + eps)
        res.method = "binary"
        res.sfm_calls += bs.membership_calls
    else:
        raise ValueError(f"unknown method {method!r}")
    return res, time.perf_counter_ns() - t0


def _verify_one(args):
    """Worker: returns (instance_id, instance_json, {method: lambda string})."""
    inst_id, text, methods = args
    inst = instance_from_json(text)
    values = {}
    for method in methods:
        res, _ = _solve_one(inst, method)
        values[method] = format_fraction(res.lambda_star)
    return inst_id, text, values


def _pool_map(fn, jobs, workers):
    if workers <= 1 or len(jobs) <= 1:
        return [fn(j) for j in jobs]
    import concurrent.futures as cf
    with cf.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def _size_error(n: int | None, count: int = 0) -> str | None:
    """Why `gen` / `verify --random` / `bench` cannot make these instances,
    or None; `bench` has no N."""
    if n is not None and not 1 <= n <= TABLE_N_CAP:
        return f"n = {n} is outside 1..{TABLE_N_CAP}"
    if count < 0:
        return f"COUNT = {count} is negative"
    return None


def cmd_gen(args) -> int:
    if args.family not in FAMILIES:
        print(f"unknown family {args.family!r}; choose from {FAMILIES}",
              file=sys.stderr)
        return 1
    err = _size_error(args.n)
    if err:
        print(f"input error: {err}", file=sys.stderr)
        return 1
    inst = generate(args.family, args.n, args.seed)
    if args.out:
        dump_instance(inst, args.out)
    else:
        sys.stdout.write(instance_to_json(inst))
    return 0


# instance data that fails eager family validation is bad input, not a
# solver failure
_INPUT_ERRORS = (errors.InvalidInstance, errors.NonSubmodular,
                 errors.EmptyNotZero, errors.NegativeValue,
                 errors.GroundSetTooLarge, ValueError, KeyError)


def cmd_solve(args) -> int:
    try:
        inst = load_instance(args.instance)
        inst.build()
    except (OSError, json.JSONDecodeError) + _INPUT_ERRORS as exc:
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    try:
        res, _ = _solve_one(inst, args.method)
    except errors.PolylsError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    # no timing in this report so identical inputs print identical bytes
    print(f"instance = {args.instance} (family={inst.spec.family} n={inst.n})")
    print(f"method = {res.method}")
    print(f"lambda_star = {format_fraction(res.lambda_star)}")
    print(f"lambda_star_decimal = {float(res.lambda_star)!r}")
    print(f"tight_set = {res.tight_set}")
    print(f"dual_optimum = [{', '.join(format_fraction(v) for v in res.dual_optimum)}]")
    print(f"oracle_calls = {res.oracle_calls}")
    print(f"sfm_calls = {res.sfm_calls}")
    print(f"engine_iterations = {res.engine_iterations}")
    print(f"newton_iterations = {res.newton_iterations}")
    return 0


def cmd_verify(args) -> int:
    if bool(args.instance) == bool(args.random):
        print("verify needs exactly one of --instance or --random", file=sys.stderr)
        return 1
    if args.instance:
        try:
            inst = load_instance(args.instance)
            inst.build()  # surface bad tables as input errors up front
            texts = [(args.instance, instance_to_json(inst))]
        except (OSError, json.JSONDecodeError) + _INPUT_ERRORS as exc:
            print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
    else:
        family, n_s, count_s, seed_s = args.random
        try:
            n, count, seed = int(n_s), int(count_s), int(seed_s)
        except ValueError:
            print("verify --random needs FAMILY N COUNT SEED", file=sys.stderr)
            return 1
        if family not in FAMILIES:
            print(f"unknown family {family!r}", file=sys.stderr)
            return 1
        err = _size_error(n, count)
        if err:
            print(f"input error: {err}", file=sys.stderr)
            return 1
        texts = [(f"{family}-n{n}-s{seed + i}",
                  instance_to_json(random_instance(family, n, seed + i)))
                 for i in range(count)]

    jobs = []
    for inst_id, text in texts:
        inst = instance_from_json(text)
        methods = ["newton", "dualcut"]
        if inst.n <= BRUTE_N_CAP:
            methods.append("bruteforce")
        jobs.append((inst_id, text, methods))

    try:
        results = _pool_map(_verify_one, jobs, _threads())
    except errors.PolylsError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    mismatches = 0
    for inst_id, text, values in results:
        uniq = set(values.values())
        if len(uniq) != 1:
            mismatches += 1
            print(f"MISMATCH {inst_id}: {values}")
            print("reproduction instance:")
            print(text, end="")
    print(f"{len(results) - mismatches}/{len(results)} agree")
    return 3 if mismatches else 0


def _bench_rows_cross(count: int, seed: int):
    rows = []
    for fam in FAMILIES:
        for i in range(count):
            n = 1 + i % 12
            inst = random_instance(fam, n, seed + i)
            inst_id = f"{fam}-n{n}-s{seed + i}"
            methods = ["newton", "binary", "dualcut"]
            if n <= BRUTE_N_CAP:
                methods.append("bruteforce")
            for method in methods:
                try:
                    res, wall = _solve_one(inst, method)
                    rows.append([inst_id, fam, n, method,
                                 format_fraction(res.lambda_star),
                                 res.oracle_calls, res.sfm_calls,
                                 res.engine_iterations, res.newton_iterations,
                                 wall, "ok", "", CSV_SCHEMA])
                except errors.PolylsError as exc:
                    rows.append([inst_id, fam, n, method, "", 0, 0, 0, 0, 0,
                                 f"error:{type(exc).__name__}", "", CSV_SCHEMA])
    return rows


def _bench_rows_ladder(count: int, seed: int):
    # Newton iteration counts when seeded k ladder steps above the optimum
    rows = []
    for fam in FAMILIES:
        for i in range(count):
            n = 1 + i % 10
            inst = random_instance(fam, n, seed + i)
            f, d = inst.build()
            star = bruteforce_linesearch(f, d).lambda_star
            eps = ladder_spacing(d)
            inst_id = f"{fam}-n{n}-s{seed + i}"
            for k in range(1, 6):
                t0 = time.perf_counter_ns()
                res = discrete_newton(f, d, star + k * eps - eps / 2)
                wall = time.perf_counter_ns() - t0
                rows.append([inst_id, fam, n, "newton",
                             format_fraction(res.lambda_star),
                             res.oracle_calls, res.sfm_calls, 0,
                             res.newton_iterations, wall, "ok",
                             f"warmstart_k={k}", CSV_SCHEMA])
    return rows


def _bench_rows_worstcase():
    from .instances import IntervalGeometric
    rows = []
    for big in (10, 100, 1000):
        inst = Instance(n=2, spec=IntervalGeometric(2),
                        direction=(big, 3 * big - 1))
        f, d = inst.build()
        from .newton import envelope
        bp = Fraction(12, 3 * big - 1)
        star = Fraction(4, big)
        below = envelope(f, d, (star + bp) / 2)[1]   # inside (lambda*, breakpoint)
        above = envelope(f, d, bp + (bp - star) / 2)[1]
        for method in ("newton", "dualcut"):
            res, wall = _solve_one(inst, method)
            extra = (f"D={big};first_breakpoint={format_fraction(bp)};"
                     f"minimizer_below={below};minimizer_above={above}")
            rows.append([f"interval-D{big}", "interval-geometric", 2, method,
                         format_fraction(res.lambda_star), res.oracle_calls,
                         res.sfm_calls, res.engine_iterations,
                         res.newton_iterations, wall, "ok", extra, CSV_SCHEMA])
    return rows


def _bench_rows_dual_warmstart(count: int, seed: int):
    rows = []
    for fam in FAMILIES:
        for i in range(count):
            n = 1 + i % 12
            inst = random_instance(fam, n, seed + i)
            f, d = inst.build()
            inst_id = f"{fam}-n{n}-s{seed + i}"
            t0 = time.perf_counter_ns()
            cold = discrete_newton(f, d)
            mid = time.perf_counter_ns()
            warm = solve_dual(f, d)
            t1 = time.perf_counter_ns()
            assert cold.lambda_star == warm.lambda_star
            rows.append([inst_id, fam, n, "newton",
                         format_fraction(cold.lambda_star), cold.oracle_calls,
                         cold.sfm_calls, 0, cold.newton_iterations, mid - t0,
                         "ok", "start=upper_bound", CSV_SCHEMA])
            rows.append([inst_id, fam, n, "dualcut",
                         format_fraction(warm.lambda_star), warm.oracle_calls,
                         warm.sfm_calls, warm.engine_iterations,
                         warm.newton_iterations, t1 - mid, "ok",
                         "start=dual", CSV_SCHEMA])
    return rows


def cmd_bench(args) -> int:
    err = _size_error(None, args.count)
    if err:
        print(f"input error: {err}", file=sys.stderr)
        return 1
    if args.suite == "cross":
        rows = _bench_rows_cross(args.count, args.seed)
    elif args.suite == "ladder-sweep":
        rows = _bench_rows_ladder(args.count, args.seed)
    elif args.suite == "worst-case":
        rows = _bench_rows_worstcase()
    elif args.suite == "dual-warmstart":
        rows = _bench_rows_dual_warmstart(args.count, args.seed)
    else:
        print(f"unknown suite {args.suite!r}", file=sys.stderr)
        return 1
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    return 0


def main(argv=None) -> int:
    parser = _Parser(prog="polyls",
                     description="Exact polymatroid line search: largest "
                                 "lambda with lambda*d inside P(f).")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("solve", help="solve one instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", default="dualcut",
                   choices=["newton", "binary", "dualcut", "base", "bruteforce"])
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="cross-method equality check")
    p.add_argument("--instance")
    p.add_argument("--random", nargs=4, metavar=("FAMILY", "N", "COUNT", "SEED"))
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="emit a CSV of per-method counters")
    p.add_argument("--suite", required=True,
                   help="cross | ladder-sweep | worst-case | dual-warmstart")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("gen", help="write a deterministic instance file")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gen)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
