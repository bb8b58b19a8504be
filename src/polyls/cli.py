"""Command-line front end: gen / solve / verify / bench.

Every command runs in this one process, and each experiment is a `bench`
suite: `cross` (all methods agree; its `newton` and `dualcut` rows compare
cold Newton with the dual warm start), `ladder-sweep` (Newton seeded k
ladder steps above the optimum) and `worst-case` (the geometric interval
family against directions (D, 3D-1)).  Exit codes: 0 ok, 1 input error,
2 solver error, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from fractions import Fraction

from . import errors
from .dualcut import solve_dual, solve_dual_base
from .instances import (FAMILIES, Instance, dump_instance, format_fraction,
                        generate, instance_to_json, load_instance,
                        random_instance)
from .newton import (binary_search, bruteforce_linesearch, discrete_newton,
                     envelope, ladder_spacing, upper_bound)
from .oracles import TABLE_N_CAP, IntervalGeometric

CSV_SCHEMA = "bench-v1"
CSV_HEADER = ["instance_id", "family", "n", "method", "lambda_star",
              "oracle_calls", "sfm_calls", "engine_iterations",
              "newton_iterations", "wall_time_ns", "status", "extra", "schema"]

BRUTE_N_CAP = 12  # verify includes the brute-force reference up to here
WORST_CASE_DS = (10, 100, 1000, 10000)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; inputs are exit 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _input_error(err: str | Exception) -> int:
    if isinstance(err, Exception):
        err = f"{type(err).__name__}: {err}"
    print(f"input error: {err}", file=sys.stderr)
    return 1


def _solve_one(f, d, method: str):
    """(result, wall_ns) of one method on one built instance (f, d); the
    oracle's read counter runs on, so `oracle_calls` is this solve's own."""
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
        # bisection to the ladder spacing, then one Newton step rounds
        # exactly; the reads of the route count, upper_bound's included
        before = f.calls
        eps = ladder_spacing(d)
        bs = binary_search(f, d, Fraction(0), upper_bound(f, d), eps)
        res = discrete_newton(f, d, bs.value + eps)
        res.method = "binary"
        res.sfm_calls += bs.membership_calls
        res.oracle_calls = f.calls - before
    else:
        raise ValueError(f"unknown method {method!r}")
    return res, time.perf_counter_ns() - t0


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
        return _input_error(f"unknown family {args.family!r}; choose from {FAMILIES}")
    err = _size_error(args.n)
    if err:
        return _input_error(err)
    inst = generate(args.family, args.n, args.seed)
    if args.out:
        try:
            dump_instance(inst, args.out)
        except OSError as exc:
            return _input_error(exc)
    else:
        sys.stdout.write(instance_to_json(inst))
    return 0


# an unreadable file, malformed JSON and instance data that fails eager
# family validation are bad input, not solver failures
_INPUT_ERRORS = (OSError, json.JSONDecodeError, errors.InvalidInstance,
                 errors.NonSubmodular, errors.EmptyNotZero,
                 errors.NegativeValue, errors.GroundSetTooLarge, ValueError,
                 KeyError)


def _load(path):
    """(instance, f, d) of the file at `path`, built once, so bad tables
    surface up front and every method solves the same (f, d)."""
    inst = load_instance(path)
    return (inst, *inst.build())


def _decimal(q: Fraction) -> str:
    """repr(float(q)) for q >= 0; past the float range, which `float`
    cannot reach, 17 significant digits in the same e+ notation."""
    try:
        return repr(float(q))
    except OverflowError:
        pass
    e = len(str(q.numerator // q.denominator)) - 1
    digits = str(round(q / 10 ** (e - 16)))
    if len(digits) > 17:  # rounded up to the next power of ten
        e += 1
        digits = digits[:17]
    digits = digits.rstrip("0")
    mantissa = digits[0] + ("." + digits[1:] if len(digits) > 1 else "")
    return f"{mantissa}e+{e}"


def cmd_solve(args) -> int:
    try:
        inst, f, d = _load(args.instance)
    except _INPUT_ERRORS as exc:
        return _input_error(exc)
    try:
        res, _ = _solve_one(f, d, args.method)
    except errors.PolylsError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    # no timing in this report so identical inputs print identical bytes
    print(f"instance = {args.instance} (family={inst.spec.family} n={inst.n})")
    print(f"method = {res.method}")
    print(f"lambda_star = {format_fraction(res.lambda_star)}")
    print(f"lambda_star_decimal = {_decimal(res.lambda_star)}")
    print(f"tight_set = {res.tight_set}")
    print(f"dual_optimum = [{', '.join(format_fraction(v) for v in res.dual_optimum)}]")
    print(f"oracle_calls = {res.oracle_calls}")
    print(f"sfm_calls = {res.sfm_calls}")
    print(f"engine_iterations = {res.engine_iterations}")
    print(f"newton_iterations = {res.newton_iterations}")
    return 0


def cmd_verify(args) -> int:
    if bool(args.instance) == bool(args.random):
        return _input_error("verify needs exactly one of --instance or --random")
    if args.instance:
        try:
            inst, f, d = _load(args.instance)
        except _INPUT_ERRORS as exc:
            return _input_error(exc)
        cases = [(args.instance, inst, (f, d))]
    else:
        family, n_s, count_s, seed_s = args.random
        try:
            n, count, seed = int(n_s), int(count_s), int(seed_s)
        except ValueError:
            return _input_error("verify --random needs FAMILY N COUNT SEED")
        if family not in FAMILIES:
            return _input_error(f"unknown family {family!r}; choose from {FAMILIES}")
        err = _size_error(n, count)
        if err:
            return _input_error(err)
        # each is built in the loop below, when its turn comes
        cases = [(f"{family}-n{n}-s{seed + i}",
                  random_instance(family, n, seed + i), None)
                 for i in range(count)]

    results = []
    try:
        for inst_id, inst, built in cases:
            f, d = built or inst.build()
            methods = ["newton", "dualcut"]
            if inst.n <= BRUTE_N_CAP:
                methods.append("bruteforce")
            values = {m: format_fraction(_solve_one(f, d, m)[0].lambda_star)
                      for m in methods}
            results.append((inst_id, inst, values))
    except errors.PolylsError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    mismatches = 0
    for inst_id, inst, values in results:
        if len(set(values.values())) != 1:
            mismatches += 1
            print(f"MISMATCH {inst_id}: {values}")
            print("reproduction instance:")
            print(instance_to_json(inst), end="")
    print(f"{len(results) - mismatches}/{len(results)} agree")
    return 3 if mismatches else 0


def _row(inst_id, fam, n, method, res=None, wall=0, status="ok", extra=""):
    """One CSV_HEADER row; without a result the counters read 0."""
    if res is None:
        return [inst_id, fam, n, method, "", 0, 0, 0, 0, wall, status, extra,
                CSV_SCHEMA]
    return [inst_id, fam, n, method, format_fraction(res.lambda_star),
            res.oracle_calls, res.sfm_calls, res.engine_iterations,
            res.newton_iterations, wall, status, extra, CSV_SCHEMA]


def _suite_instances(count: int, seed: int, n_cycle: int):
    """The random suites' stream: per family, `count` instances with
    n = 1 + i % n_cycle at seed + i, each built once, as
    (instance_id, family, n, f, d)."""
    for fam in FAMILIES:
        for i in range(count):
            n = 1 + i % n_cycle
            yield (f"{fam}-n{n}-s{seed + i}", fam, n,
                   *random_instance(fam, n, seed + i).build())


def _bench_rows_cross(count: int, seed: int):
    rows = []
    for inst_id, fam, n, f, d in _suite_instances(count, seed, 12):
        methods = ["newton", "binary", "dualcut"]
        if n <= BRUTE_N_CAP:
            methods.append("bruteforce")
        for method in methods:
            try:
                res, wall = _solve_one(f, d, method)
                rows.append(_row(inst_id, fam, n, method, res, wall))
            except errors.PolylsError as exc:
                rows.append(_row(inst_id, fam, n, method,
                                 status=f"error:{type(exc).__name__}"))
    return rows


def _bench_rows_ladder(count: int, seed: int):
    # Newton iteration counts when seeded k ladder steps above the optimum
    rows = []
    for inst_id, fam, n, f, d in _suite_instances(count, seed, 10):
        star = bruteforce_linesearch(f, d).lambda_star
        eps = ladder_spacing(d)
        for k in range(1, 6):
            t0 = time.perf_counter_ns()
            res = discrete_newton(f, d, star + k * eps - eps / 2)
            wall = time.perf_counter_ns() - t0
            rows.append(_row(inst_id, fam, n, "newton", res, wall,
                             extra=f"warmstart_k={k}"))
    return rows


def _bench_rows_worstcase():
    # lambda* = 4/D sits just below the envelope's first breakpoint
    # 12/(3D-1), where the minimizer flips from {0} to {0,1}
    rows = []
    for big in WORST_CASE_DS:
        inst = Instance(n=2, spec=IntervalGeometric(2),
                        direction=(big, 3 * big - 1))
        f, d = inst.build()
        bp = Fraction(12, 3 * big - 1)
        star = Fraction(4, big)
        below = envelope(f, d, (star + bp) / 2)[1]   # inside (lambda*, breakpoint)
        above = envelope(f, d, bp + (bp - star) / 2)[1]
        extra = (f"D={big};first_breakpoint={format_fraction(bp)};"
                 f"minimizer_below={below};minimizer_above={above}")
        for method in ("newton", "dualcut"):
            res, wall = _solve_one(f, d, method)
            rows.append(_row(f"interval-D{big}", "interval-geometric", 2,
                             method, res, wall, extra=extra))
    return rows


def cmd_bench(args) -> int:
    err = _size_error(None, args.count)
    if err:
        return _input_error(err)
    if args.suite == "cross":
        rows = _bench_rows_cross(args.count, args.seed)
    elif args.suite == "ladder-sweep":
        rows = _bench_rows_ladder(args.count, args.seed)
    elif args.suite == "worst-case":
        rows = _bench_rows_worstcase()
    else:
        return _input_error(f"unknown suite {args.suite!r}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    if not args.out:
        sys.stdout.write(buf.getvalue())
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
    except OSError as exc:
        return _input_error(exc)
    return 0


def main(argv=None) -> int:
    parser = _Parser(prog="polyls",
                     description="Exact polymatroid line search: largest "
                                 "lambda with lambda*d inside P(f).")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("solve", help="solve one instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", default="newton",
                   choices=["newton", "binary", "dualcut", "base", "bruteforce"])
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="cross-method equality check")
    p.add_argument("--instance")
    p.add_argument("--random", nargs=4, metavar=("FAMILY", "N", "COUNT", "SEED"))
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="emit a CSV of per-method counters")
    p.add_argument("--suite", required=True,
                   help="cross | ladder-sweep | worst-case")
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
