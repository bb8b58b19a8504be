"""Workloads, the closed loop, the correctness gate and the metrics.

Every workload is a closed loop with one client: one process, one thread,
and the next solve starts when the previous one returns.  An op is one solve
of one instance by one route.  Items (instances, or directions against a
prebuilt function) are visited in order and each item is solved by all three
routes in a rotating order, so every route sees the same inputs.
"""

from __future__ import annotations

import dataclasses
import os
import random
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from polyls import dualcut, instances, newton
from polyls.errors import PolylsError
from polyls.oracles import Direction

import tracer as tracing

ROUTES = ("newton", "dualcut", "binary")
SETUP_REPEATS = 5
# Claims are confirmed on a seed never used while a change is written.
HELD_OUT_OFFSET = 104729
# A reuse workload solves one fixed corpus of functions drawn from this seed,
# and --seed draws only the directions: when --seed drew the functions too,
# which functions it drew dominated the spread between runs.
CORPUS_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    families: tuple[str, ...]
    sizes: tuple[int, ...]
    # prebuilt functions per family, each solved against a stream of
    # directions; 0 means every op parses and builds its own instance
    reuse: int
    items: int  # items generated per set-up; the loop wraps around past them


WORKLOADS = {
    w.name: w for w in (
        Workload("oneshot-small", instances.FAMILIES, tuple(range(2, 13)),
                 reuse=0, items=1100),
        Workload("oneshot-dense", ("coverage", "digraph-cut", "concave-modular"),
                 (16, 17, 18), reuse=0, items=36),
        Workload("reuse-directions", instances.FAMILIES, (14,),
                 reuse=1, items=1000),
    )
}


def solve(route: str, f, d: Direction):
    """One route through the public solvers, called at module attributes so
    a traced run sees the calls."""
    if route == "newton":
        return newton.discrete_newton(f, d)
    if route == "dualcut":
        return dualcut.solve_dual(f, d)
    # as `polyls solve --method binary`: bisect to the ladder spacing, then
    # one Newton step from the upper end rounds to the exact optimum
    eps = newton.ladder_spacing(d)
    bs = newton.binary_search(f, d, Fraction(0), newton.upper_bound(f, d), eps)
    return newton.discrete_newton(f, d, bs.value + eps)


@dataclass
class State:
    workload: Workload
    items: list                   # JSON texts, or (function index, direction)
    specs: list = field(default_factory=list)      # reuse: spec per function
    functions: list = field(default_factory=list)  # reuse: prebuilt oracles
    rebuilt: dict = field(default_factory=dict)    # reuse: the gate's own copies
    kept: dict = field(default_factory=dict)       # distinct results of the run

    def item_n(self, k: int) -> int:
        w = self.workload
        if w.reuse:
            return w.sizes[0]
        return w.sizes[(k + k // len(w.families)) % len(w.sizes)]

    def build(self, k: int, fresh: bool = False):
        """(f, d) of item k; `fresh` rebuilds a reuse function from its spec."""
        item = self.items[k]
        if not self.workload.reuse:
            return instances.instance_from_json(item).build()
        fi, direction = item
        if not fresh:
            return self.functions[fi], Direction(direction)
        if fi not in self.rebuilt:
            self.rebuilt[fi] = instances.make_family(self.specs[fi])
        return self.rebuilt[fi], Direction(direction)

    def keep(self, res):
        """The result without its solver trace, held once per distinct value,
        so the record of a run grows by only a few bytes per op and peak RSS
        does not rise with the number of ops a run completes."""
        key = tuple(getattr(res, f.name) for f in dataclasses.fields(res)
                    if f.name != "trace")
        if key not in self.kept:
            self.kept[key] = dataclasses.replace(res, trace=None)
        return self.kept[key]


def setup(w: Workload, seed: int) -> State:
    """Generate the workload's inputs from the seed (and, for reuse, build
    the functions of the fixed corpus).  Family k % F meets size
    (k + k // F) % S, which visits every (family, size) pair within F * S
    items and keeps every prefix of the stream balanced over both."""
    rng = random.Random(seed)
    fams = w.families
    if w.reuse:
        n = w.sizes[0]
        corpus = random.Random(CORPUS_SEED)
        specs = [instances.random_spec(fam, n, corpus)
                 for _ in range(w.reuse) for fam in fams]
        functions = [instances.make_family(spec) for spec in specs]
        items = [(k % len(specs), instances.random_direction(n, rng))
                 for k in range(w.items)]
        return State(w, items, specs, functions)
    state = State(w, [])
    for k in range(w.items):
        inst = instances.random_instance(fams[k % len(fams)], state.item_n(k),
                                         rng.getrandbits(31))
        state.items.append(instances.instance_to_json(inst))
    return state


@dataclass(slots=True)
class Op:
    item: int
    route: str
    ns: int
    result: object = None   # LineSearchResult, None when the solve raised
    error: str = ""


def run_op(state: State, k: int, route: str) -> Op:
    t0 = time.perf_counter_ns()
    try:
        f, d = state.build(k)
        res = solve(route, f, d)
    except PolylsError as exc:
        return Op(k, route, time.perf_counter_ns() - t0, None,
                  f"{type(exc).__name__}: {exc}")
    ns = time.perf_counter_ns() - t0
    return Op(k, route, ns, state.keep(res))


def schedule(state: State, seconds: float):
    """(item, route) pairs in order until `seconds` of wall have passed; each
    item is solved by every route, so the routes get equal op counts."""
    deadline = time.perf_counter() + seconds
    c = 0
    while c == 0 or time.perf_counter() < deadline:
        r = c % len(ROUTES)
        for route in ROUTES[r:] + ROUTES[:r]:
            yield c % len(state.items), route
        c += 1


def warm_up(state: State):
    """Solve the first item of every (family, size) pair by every route,
    untimed, so first-call costs stay out of the timed loop."""
    w = state.workload
    for k in range(min(len(state.items), len(w.families) * len(w.sizes))):
        for route in ROUTES:
            run_op(state, k, route)


def closed_loop(state: State, seconds: float) -> list[Op]:
    return [run_op(state, k, route) for k, route in schedule(state, seconds)]


def paired_loop(state: State, seconds: float,
                tr: tracing.Tracer) -> tuple[list[Op], list[Op]]:
    """Every op runs twice back to back, untraced and traced, alternating
    which goes first, so machine drift cancels out of the overhead ratio."""
    plain, traced = [], []
    for i, (k, route) in enumerate(schedule(state, seconds)):
        for use_tracer in (i % 2 == 1, i % 2 == 0):
            if use_tracer:
                with tr.installed(), tr.op(i):
                    traced.append(run_op(state, k, route))
            else:
                plain.append(run_op(state, k, route))
    return plain, traced


def gate(state: State, ops: list[Op], reference=None) -> list[str]:
    """Check every op after the timed phase; returns one message per bad op.

    lambda* must equal the brute-force reference, the three routes must
    agree on each item, and the tight set and dual witness must hold
    exactly: f(S*) == lambda* d(S*) and dual == 1_{S*} / d(S*).
    """
    reference = reference or newton.bruteforce_linesearch
    by_item: dict[int, list[Op]] = {}
    for op in ops:
        by_item.setdefault(op.item, []).append(op)
    bad = []
    for k, group in by_item.items():
        # built one item at a time: n=18 tables are too big to keep around
        f, d = state.build(k, fresh=True)
        want = reference(f, d).lambda_star
        if len({op.result.lambda_star for op in group if op.result}) > 1:
            bad += [f"item {k} {op.route}: routes disagree" for op in group]
            continue
        for op in group:
            if op.result is None:
                bad.append(f"item {k} {op.route}: {op.error}")
                continue
            lam = op.result.lambda_star
            s = op.result.tight_set
            den = d.of(s)
            witness = tuple(Fraction(1, den) if i in s else Fraction(0)
                            for i in range(d.n)) if den > 0 else None
            if lam != want:
                bad.append(f"item {k} {op.route}: lambda* {lam} != reference {want}")
            elif f.eval(s) != lam * den:
                bad.append(f"item {k} {op.route}: f(S*) != lambda* d(S*)")
            elif op.result.dual_optimum != witness:
                bad.append(f"item {k} {op.route}: dual != 1_S*/d(S*)")
    return bad


def route_metrics(ops: list[Op]) -> tuple[dict, dict]:
    """End-to-end route metrics {name: (value, unit)} and the p90 lines that
    have at least 100 samples (so at least 10 lie beyond p90)."""
    metrics, p90 = {}, {}
    for route in ROUTES:
        ms = [op.ns / 1e6 for op in ops if op.route == route and op.result]
        metrics[f"{route}_ms_p50"] = (statistics.median(ms) if ms else None, "ms")
        # ops completed per second of this route's share of the timed wall
        metrics[f"{route}_per_s"] = (len(ms) / (sum(ms) / 1e3) if ms else None, "1/s")
        if len(ms) >= 100:
            p90[f"{route}_ms_p90"] = (statistics.quantiles(ms, n=10)[-1], len(ms))
        else:
            p90[f"{route}_ms_p90"] = (None, len(ms))
    return metrics, p90


def input_properties(state: State, ops: list[Op]) -> list[str]:
    """What the run exercised: lambda* = 0 share, n and Newton histograms,
    and how the dual warm start compares with cold Newton."""
    items = sorted({op.item for op in ops})
    lam = {op.item: op.result.lambda_star for op in ops if op.result}
    zero = sum(lam.get(k) == 0 for k in items)
    n_hist = Counter(state.item_n(k) for k in items)
    cold = [op.result.newton_iterations for op in ops
            if op.route == "newton" and op.result]
    warm = [op.result.newton_iterations for op in ops
            if op.route == "dualcut" and op.result]
    wall = {r: sum(op.ns for op in ops if op.route == r) for r in ROUTES}
    ratio = sum(warm) / sum(cold) if sum(cold) else None
    return [
        f"items = {len(items)}",
        f"lambda_zero_share = {zero / len(items):.4f}",
        "n_histogram = " + " ".join(f"{n}:{c}" for n, c in sorted(n_hist.items())),
        "cold_newton_iterations_histogram = "
        + " ".join(f"{i}:{c}" for i, c in sorted(Counter(cold).items())),
        "dual_newton_iterations_histogram = "
        + " ".join(f"{i}:{c}" for i, c in sorted(Counter(warm).items())),
        "dual_to_cold_newton_iterations = "
        + (f"{ratio:.4f}" if ratio is not None else "n/a (cold Newton took 0)"),
        f"dual_to_cold_newton_wall = {wall['dualcut'] / wall['newton']:.4f}",
    ]


def environment(seed: int) -> list[str]:
    return [
        f"python = {sys.version.split()[0]}",
        f"numpy = {np.__version__}",
        f"nproc = {len(os.sched_getaffinity(0))}",
        "threads_pinned = " + " ".join(
            f"{v}={os.environ.get(v)}" for v in ("OMP_NUM_THREADS",
                                                 "OPENBLAS_NUM_THREADS",
                                                 "MKL_NUM_THREADS")),
        f"seed = {seed}",
        f"held_out_seed = {seed + HELD_OUT_OFFSET}",
    ]


@dataclass
class Outcome:
    lines: list[str]
    metrics: dict
    attempted: int
    failed: int

    @property
    def correct(self) -> bool:
        return self.failed == 0


def run(w: Workload, seed: int, seconds: float, trace: bool,
        spans_dir: Path | None = None, reference=None) -> Outcome:
    lines = [f"workload = {w.name}", f"trace = {int(trace)}"] + environment(seed)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = setup(w, seed)
        setup_s.append(time.perf_counter() - t0)
    warm_up(state)

    if not trace:
        ops = timed = closed_loop(state, seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics, p90 = route_metrics(ops)
        metrics["setup_s"] = (statistics.median(setup_s), "s")
        metrics["peak_rss_mb"] = (rss_mb, "MB")
        for name, (value, count) in p90.items():
            lines.append(f"{name} = {value:.4f} ms (n={count})" if value is not None
                         else f"{name} = n/a (n={count} < 100 ops)")
    else:
        tr = tracing.Tracer()
        timed, traced = paired_loop(state, seconds, tr)
        ops = timed + traced
        metrics = tracing.layer_metrics(tr, traced, timed)
        lines += layer_table(tr, len(traced))
        if spans_dir is not None:
            spans_dir.mkdir(parents=True, exist_ok=True)
            path = spans_dir / f"spans-{w.name}-seed{seed}.jsonl.gz"
            tr.write(path)
            lines.append(f"spans_file = {path}")

    lines += input_properties(state, timed)
    bad = gate(state, ops, reference)
    lines.append(f"failed_frac = {len(bad) / len(ops):.4f} ({len(bad)}/{len(ops)})")
    lines += [f"FAILED {msg}" for msg in bad[:20]]
    return Outcome(lines, metrics, len(ops), len(bad))


def layer_table(tr: tracing.Tracer, ops: int) -> list[str]:
    """Self time per span name, per op; the rows sum to the op wall time."""
    self_ns, calls = tr.self_times()
    total = sum(self_ns.values())
    out = ["layer self time per op (span 'op' is the unattributed remainder):"]
    for name, ns in sorted(self_ns.items(), key=lambda kv: -kv[1]):
        out.append(f"  {name:<30} {ns / 1e6 / ops:10.4f} ms  {ns / total:7.2%}"
                   f"  calls/op {calls[name] / ops:9.2f}")
    return out
