"""Per-layer timing of faircluster, recorded from outside the program.

``installed(recorder)`` replaces each function in ``PATCHES`` with a wrapper
that records a span (name, start, end, parent) and updates counters, then
puts the originals back. A name is patched in every module that looks it up:
``from .lp import solve_lp`` copies the binding into ``fair``, so wrapping
only ``lp.solve_lp`` would miss the calls made from ``fair``.

``layer_metrics`` turns the spans of one traced run into the per-layer
metrics. A metric ``X.s`` is the inclusive time of the spans named ``X``;
``X.self_s`` subtracts the time covered by their child spans.
"""

from __future__ import annotations

import collections
import functools
import importlib
import math
import statistics
import time
from contextlib import contextmanager


class Recorder:
    """Spans and counters of one process.

    The open span is tracked on a plain stack, so the traced program must run
    on a single thread; the benchmark runs every workload with ``jobs=1``.
    """

    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent index]
        self.counts = collections.Counter()
        self._open: list[int] = []

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append([name, time.perf_counter(), None, parent])
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[idx][2] = time.perf_counter()
            if after is not None:
                after(self.counts, args, result)
            return result
        return traced


def _ingest(counts, _, res):
    counts["ingest.rows"] += res.rows_total


def _dist(counts, args, _):
    counts["instance.dist.bytes"] += len(args[0]) * len(args[1]) * 8


def _vanilla(counts, _, sol):
    counts["vanilla.lloyd_iters"] += len(sol.lloyd_costs or ())


def _round(counts, _, res):
    counts["fair.round.iters"] += res.rounding_iterations


def _feasible(counts, _, ok):
    counts["lp.feas.feasible"] += bool(ok)


def _solve(counts, args, _):
    counts["lp.vars"] += args[0].num_vars
    counts["lp.rows"] += args[0].num_constraints


def _highs(counts, _, res):
    counts["lp.highs.nit"] += int(res.nit)


def _match(counts, _, res):
    counts["lb.match.feasible"] += res is not None


def _lb(counts, _, res):
    counts["lb.subsets"] += res.subsets_evaluated


# (module of faircluster, attribute looked up there, span name, counter hook)
PATCHES = (
    ("ingest", "ingest", "ingest", _ingest),
    ("experiment", "ingest", "ingest", _ingest),
    ("experiment", "run_experiment", "experiment.run", None),
    ("experiment", "fair_clustering", "fair.clustering", None),
    ("experiment", "lb_clustering", "lb", _lb),
    ("instance", "cdist", "instance.dist", _dist),
    ("fair", "build_report", "instance.report", None),
    ("fair", "solve_vanilla", "vanilla", _vanilla),
    ("lower_bounded", "solve_vanilla", "vanilla", _vanilla),
    ("fair", "fair_assignment", "fair.assign", None),
    ("fair", "build_fair_lp", "fair.build", None),
    ("fair", "build_fair_feasibility_lp", "fair.build", None),
    ("fair", "fair_assign_k_center", "fair.radius", None),
    ("fair", "iterative_round", "fair.round", _round),
    ("fair", "check_feasible", "lp.feas", _feasible),
    ("lp", "check_feasible", "lp.feas", _feasible),
    ("fair", "solve_lp", "lp.solve", _solve),
    ("lp", "solve_lp", "lp.solve", _solve),
    ("lp", "linprog", "lp.highs", _highs),
    ("lower_bounded", "lb_clustering", "lb", _lb),
    ("lower_bounded", "min_cost_lb_matching", "lb.match", _match),
)

TIMED = ("ingest", "instance.dist", "instance.report", "vanilla", "fair.assign",
         "fair.build", "fair.radius", "fair.round", "lp.solve", "lp.highs",
         "lb", "lb.match")
COUNTED = ("ingest", "instance.dist", "vanilla", "fair.build", "lp.solve",
           "lp.highs", "lp.feas", "lb.match")
# spans whose own code, outside their children, is worth watching
SELF_TIMED = ("experiment.run", "fair.clustering", "fair.assign", "fair.radius",
              "fair.round", "lb")
HOOKED = ("ingest.rows", "instance.dist.bytes", "vanilla.lloyd_iters", "fair.round.iters",
          "lp.feas.feasible", "lp.vars", "lp.rows", "lp.highs.nit",
          "lb.match.feasible", "lb.subsets")


@contextmanager
def installed(recorder: Recorder):
    """Route every call in ``PATCHES`` through ``recorder`` while the block runs.

    A binding that no longer exists raises AttributeError here, and a binding
    that exists but is bypassed shows as a zero counter, which the benchmark
    reports as a failed check.
    """
    saved = []
    try:
        for module_name, attr, span, after in PATCHES:
            module = importlib.import_module(f"faircluster.{module_name}")
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, recorder.wrap(span, fn, after))
        yield recorder
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def tail_percentile(n: int) -> float:
    """Highest percentile (whole or tenth) with at least ten of ``n`` samples
    beyond it; the median when there are fewer than twenty samples."""
    return max(50.0, math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a nonempty sequence."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100.0)) - 1]


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced run (see the module docstring)."""
    spans = recorder.spans
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            child[parent] += dur[i]
    total = collections.Counter()
    own = collections.Counter()
    calls = collections.Counter()
    for i, (name, *_rest) in enumerate(spans):
        total[name] += dur[i]
        own[name] += dur[i] - child[i]
        calls[name] += 1

    def inside(i: int, ancestor: str) -> bool:
        parent = spans[i][3]
        while parent is not None:
            if spans[parent][0] == ancestor:
                return True
            parent = spans[parent][3]
        return False

    out: dict[str, float] = {}
    for name in TIMED:
        out[f"{name}.s"] = total[name]
    for name in COUNTED:
        out[f"{name}.calls"] = calls[name]
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = own[name]
    for name in HOOKED:
        out[name] = recorder.counts[name]
    out["lp.fallbacks"] = calls["lp.highs"] - calls["lp.solve"]
    out["lp.assemble.s"] = total["lp.solve"] - total["lp.highs"]
    out["fair.radius.probes"] = sum(
        1 for i, span in enumerate(spans) if span[0] == "lp.feas" and inside(i, "fair.radius"))
    return out


def solve_samples_ms(recorder: Recorder) -> list[float]:
    return [(end - start) * 1e3 for name, start, end, _ in recorder.spans if name == "lp.solve"]


def summarize_solves(samples_ms: list[float]) -> dict[str, float]:
    """Median and tail of the pooled ``lp.solve`` durations, with the sample count."""
    if not samples_ms:
        return {"lp.solve.p50_ms": 0.0, "lp.solve.ptail_ms": 0.0,
                "lp.solve.ptail_pct": 0.0, "lp.solve.samples": 0}
    q = tail_percentile(len(samples_ms))
    return {"lp.solve.p50_ms": statistics.median(samples_ms),
            "lp.solve.ptail_ms": percentile(samples_ms, q),
            "lp.solve.ptail_pct": q, "lp.solve.samples": len(samples_ms)}
