"""Span tracing of polyls from outside the library.

`Tracer.installed()` replaces public functions at the module (or class)
attributes their callers look up at call time, so every call records a span
(op id, span id, parent span id, name, start ns, end ns).  Spans stay in
memory until the run ends.  On exit every attribute is restored to the
original object, and an untraced run installs nothing at all.

A span's self time is its duration minus the durations of its direct
children; summed over all spans of an op it equals the op's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter_ns

from polyls import dualcut, instances, lovasz, newton, oracles, sfm
from polyls.errors import IterationCapExceeded


def _sfm_result(tracer, args, kwargs, res):
    tracer.count(f"sfm.method.{res.method}")
    if res.certified:
        tracer.count("sfm.certified")


def _bisection(tracer, args, kwargs, res):
    tracer.count("newton.bisection_steps", res.membership_calls)


def _envelope(tracer, args, kwargs, res):
    # envelope() calls newton_scale exactly once per evaluation
    tracer.count("newton.envelope_calls")


def _engine(tracer, args, kwargs, state):
    tracer.count("dualcut.engine_runs")
    tracer.count("dualcut.engine_iterations", state.iterations)
    tracer.count("dualcut.feasibility_cuts", state.feasibility_cuts)
    tracer.count("dualcut.objective_cuts", state.objective_cuts)
    if state.converged:
        tracer.count("dualcut.engine_converged")
    elif state.stalled:
        tracer.count("dualcut.engine_stalled")


def _engine_capped(tracer, args, kwargs, exc):
    if isinstance(exc, IterationCapExceeded):
        tracer.count("dualcut.engine_capped")
        _engine(tracer, args, kwargs, exc.state)


def _rounding(tracer, args, kwargs, res):
    # the dual route's Newton rounding starts from the snapped bound lambda0
    f, d, lambda0 = args[:3]
    tracer.snap_gaps.append(float((lambda0 - res.lambda_star) * d.norm1 ** 2))


# (owner, attribute, span name, observer of the result, observer of a raised
# exception).  Each entry is the attribute a caller resolves at call time:
# the benchmark's own calls, then the library's internal call sites.
WRAPS = (
    (instances, "instance_from_json", "instances.instance_from_json", None, None),
    (instances.Instance, "build", "instances.build", None, None),
    (instances, "make_family", "oracles.make_family", None, None),
    (newton, "discrete_newton", "newton.discrete_newton", None, None),
    (newton, "binary_search", "newton.binary_search", _bisection, None),
    (dualcut, "solve_dual", "dualcut.solve_dual", None, None),
    (newton, "newton_scale", "oracles.rescale", _envelope, None),
    (newton, "minimize", "sfm.minimize", _sfm_result, None),
    (newton, "membership", "sfm.membership", None, None),
    (sfm, "minimize", "sfm.minimize", _sfm_result, None),
    (sfm, "scale_minus_modular", "oracles.rescale", None, None),
    (oracles, "subset_sums", "subsets.subset_sums", None, None),
    (dualcut, "perturb", "oracles.perturb", None, None),
    (dualcut, "cutting_plane_minimize", "dualcut.engine", _engine, _engine_capped),
    (dualcut, "evaluate", "lovasz.evaluate", None, None),
    (dualcut, "discrete_newton", "newton.discrete_newton", _rounding, None),
    (lovasz.DenseLovasz, "__init__", "lovasz.dense_init", None, None),
    (lovasz.DenseLovasz, "value_subgrad", "lovasz.value_subgrad", None, None),
)


def originals() -> dict:
    """The objects currently bound at every wrapped attribute."""
    return {(owner, attr): vars(owner)[attr] for owner, attr, *_ in WRAPS}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self.snap_gaps: list[float] = []  # ladder steps from snap to lambda*
        self._stack: list[int] = []
        self._op = -1
        self._next_id = 0

    def count(self, key: str, k: int = 1):
        self.counts[key] += k

    def _wrap(self, fn, name, on_result, on_error):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, args, kwargs, exc)
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans.append((self._op, sid, parent, name, t0, t1))
            if on_result is not None:
                on_result(self, args, kwargs, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = originals()
        try:
            for owner, attr, name, on_result, on_error in WRAPS:
                setattr(owner, attr,
                        self._wrap(saved[owner, attr], name, on_result, on_error))
            yield self
        finally:
            for (owner, attr), obj in saved.items():
                setattr(owner, attr, obj)

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one op; library spans inside it share its op id."""
        self._op = op_id
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.spans.append((op_id, sid, -1, "op", t0, t1))
            self._op = -1

    def self_times(self) -> tuple[dict, Counter]:
        """(total self ns by span name, span count by name)."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, parent, _, t0, t1 in self.spans:
            child_ns[parent] += t1 - t0
        self_ns: dict[str, int] = defaultdict(int)
        calls: Counter = Counter()
        for _, sid, _, name, t0, t1 in self.spans:
            self_ns[name] += (t1 - t0) - child_ns[sid]
            calls[name] += 1
        return self_ns, calls

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["op", "span", "parent", "name", "start_ns",
                                 "end_ns"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer, traced: list, plain: list) -> dict:
    """Per-layer metrics of the traced ops, as {name: (value, unit)}; `plain`
    holds the same ops run untraced.

    Times and counts are means per op over all routes (the route mix is
    1:1:1); ratios are shares of the attempts they name.
    """
    ops = len(traced)
    traced_ns = sum(op.ns for op in traced)
    self_ns, calls = tracer.self_times()
    counts = tracer.counts

    def ms(*names):
        return sum(self_ns.get(n, 0) for n in names) / 1e6 / ops

    def per_op(x):
        return x / ops

    def share(num, den):
        return num / den if den else 0.0

    by_route = defaultdict(list)
    for op in traced:
        if op.result is not None:
            by_route[op.route].append(op.result)
    cold = [r.newton_iterations for r in by_route["newton"]]
    dual = by_route["dualcut"]
    engine_runs = counts["dualcut.engine_runs"]
    binary_ops = len(by_route["binary"])
    dual_ops = len(dual)
    gaps = tracer.snap_gaps
    op_ms = traced_ns / 1e6 / ops
    return {
        "instances.parse_ms": (ms("instances.instance_from_json"), "ms"),
        "instances.build_ms": (ms("instances.build"), "ms"),
        "oracles.make_family_ms": (ms("oracles.make_family"), "ms"),
        "oracles.make_family_calls": (per_op(calls["oracles.make_family"]), "count"),
        "oracles.rescale_ms": (ms("oracles.rescale"), "ms"),
        "oracles.rescale_calls": (per_op(calls["oracles.rescale"]), "count"),
        "subsets.subset_sums_ms": (ms("subsets.subset_sums"), "ms"),
        "subsets.subset_sums_calls": (per_op(calls["subsets.subset_sums"]), "count"),
        "oracles.perturb_ms": (ms("oracles.perturb"), "ms"),
        "oracles.value_reads": (per_op(sum(r.oracle_calls for rs in by_route.values()
                                           for r in rs)), "count"),
        "sfm.minimize_ms": (ms("sfm.minimize"), "ms"),
        "sfm.minimize_calls": (per_op(calls["sfm.minimize"]), "count"),
        "sfm.bruteforce_calls": (per_op(counts["sfm.method.bruteforce"]), "count"),
        "sfm.mnp_calls": (per_op(counts["sfm.method.mnp"]), "count"),
        "sfm.mnp_fallback_calls": (per_op(counts["sfm.method.mnp+bruteforce"]), "count"),
        "sfm.certified_ratio": (share(counts["sfm.certified"],
                                      calls["sfm.minimize"]), "frac"),
        "sfm.membership_ms": (ms("sfm.membership"), "ms"),
        "lovasz.dense_init_ms": (ms("lovasz.dense_init"), "ms"),
        "lovasz.value_subgrad_ms": (ms("lovasz.value_subgrad"), "ms"),
        "lovasz.value_subgrad_calls": (per_op(calls["lovasz.value_subgrad"]), "count"),
        "lovasz.evaluate_ms": (ms("lovasz.evaluate"), "ms"),
        "dualcut.self_ms": (ms("dualcut.solve_dual"), "ms"),
        "dualcut.engine_self_ms": (ms("dualcut.engine"), "ms"),
        "dualcut.engine_iterations": (share(counts["dualcut.engine_iterations"],
                                            engine_runs), "count"),
        "dualcut.feasibility_cuts": (share(counts["dualcut.feasibility_cuts"],
                                           engine_runs), "count"),
        "dualcut.objective_cuts": (share(counts["dualcut.objective_cuts"],
                                         engine_runs), "count"),
        "dualcut.engine_converged_ratio": (share(counts["dualcut.engine_converged"],
                                                 engine_runs), "frac"),
        "dualcut.engine_stalled": (share(counts["dualcut.engine_stalled"],
                                         engine_runs), "frac"),
        "dualcut.engine_capped": (share(counts["dualcut.engine_capped"],
                                        engine_runs), "frac"),
        "dualcut.snap_gap_steps_p50": (statistics.median(gaps) if gaps else 0.0,
                                       "steps"),
        "dualcut.warm_hit_ratio": (share(sum(r.newton_iterations == 0 for r in dual),
                                         dual_ops), "frac"),
        "newton.self_ms": (ms("newton.discrete_newton", "newton.binary_search"), "ms"),
        "newton.envelope_calls": (per_op(counts["newton.envelope_calls"]), "count"),
        "newton.bisection_steps": (share(counts["newton.bisection_steps"],
                                         binary_ops), "count"),
        "newton.iterations_mean": (statistics.fmean(cold) if cold else 0.0, "count"),
        "newton.iterations_max": (max(cold, default=0), "count"),
        "trace.op_ms": (op_ms, "ms"),
        "trace.unattributed_ms": (ms("op"), "ms"),
        "trace.unattributed_share": (share(ms("op"), op_ms), "frac"),
        "trace.overhead_ratio": (traced_ns / sum(op.ns for op in plain), "ratio"),
    }
