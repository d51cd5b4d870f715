"""Which groundplan calls the traced run wraps, and the per-layer metrics.

Every wrapped attribute is one the program looks up at call time: module
globals that executor, datasets and evaluate imported (so the wrapper sits
where the call is made), and methods of Simulation, ViewSet and
ReplayPlanner. Planners are wrapped per instance, through the factory that
builds them, so a corrupted planner around a noisy planner around the
oracle is still one `planners.plan` span.

Metric names are `<span>.<stat>`; `share` is self time divided by the
traced wall time, the time spent inside the workload's program calls.
"""

from __future__ import annotations

import os
from collections import defaultdict

from groundplan import datasets, evaluate, executor, masks, planners, scene, simulate

from tracer import Patcher, Span, Tracer, percentile, root_of, self_times

# Entry points of a workload; their self time is loop glue that no named
# layer accounts for, so it does not count as covered.
ENTRY_SPANS = ("executor.run_episode", "datasets.gen_plan_dataset", "evaluate.eval_offline")
SCORING_ROOTS = ("datasets.read_dataset", "planners.ReplayPlanner.from_records",
                 "evaluate.eval_offline")


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(base, f))
               for base, _, files in os.walk(path) for f in files)


def _points_out(args, kwargs, out):
    return {"points_out": len(out)}


def _fused(args, kwargs, out):
    return {"points_in": sum(len(p) for p in args[0]), "points_out": len(out)}


def _filtered(args, kwargs, out):
    return {"points_in": len(args[0]), "points_out": len(out)}


def _dir_bytes(index):
    def observe(args, kwargs, out):
        return {"bytes": _tree_bytes(args[index])}

    return observe


def targets():
    """(owner, attribute, span name, observer) for every wrapped call."""
    sim = simulate.Simulation
    return [
        (executor, "run_episode", "executor.run_episode", None),
        (datasets, "run_episode", "executor.run_episode", None),
        (executor, "render_views", "render.render_views", None),
        (executor, "ground_plan", "executor.ground_plan", None),
        (executor, "unproject", "geometry.unproject", _points_out),
        (executor, "fuse_views", "geometry.fuse_views", _fused),
        (executor, "dbscan_filter", "geometry.dbscan_filter", _filtered),
        (executor, "categorize", "geometry.categorize", None),
        (executor, "parse_plan", "planlang.parse_plan", None),
        (evaluate, "parse_plan", "planlang.parse_plan", None),
        (executor, "motion_policy", "executor.motion_policy", None),
        (sim, "sample", "simulate.sample", None),
        (sim, "step", "simulate.step", None),
        (sim, "success", "simulate.success", None),
        (datasets, "gen_plan_dataset", "datasets.gen_plan_dataset", None),
        (datasets, "write_dataset", "datasets.write_dataset", _dir_bytes(2)),
        (datasets, "read_dataset", "datasets.read_dataset", _dir_bytes(0)),
        (datasets, "rle_encode", "masks.rle_encode", None),
        (datasets, "rle_decode", "masks.rle_decode", None),
        (masks, "rle_encode", "masks.rle_encode", None),
        (masks, "rle_decode", "masks.rle_decode", None),
        (scene.ViewSet, "digest", "scene.ViewSet.digest", None),
        (planners.ReplayPlanner, "from_records", "planners.ReplayPlanner.from_records", None),
        (evaluate, "eval_offline", "evaluate.eval_offline", None),
        (evaluate, "score_keystep", "evaluate.score_keystep", None),
        (evaluate, "iou", "objectives.iou", None),
    ]


class TracedPlanner:
    """One `planners.plan` span per call of the outermost planner."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def plan(self, *args):
        return self.tracer.call("planners.plan", self.inner.plan, args, {})


def install(patcher: Patcher, tracer: Tracer) -> None:
    for owner, attr, name, observe in targets():
        patcher.patch(owner, attr, lambda fn, n=name, o=observe: tracer.wrap(n, fn, o))
    # gen_plan_dataset builds its oracle planners from this module global.
    patcher.patch(datasets, "oracle_factory",
                  lambda factory: lambda ctx: TracedPlanner(factory(ctx), tracer))


# (metric, unit, better); the same list is the per_layer section of
# BENCHMARK.json.
LAYER_METRICS = [
    ("render.render_views.calls", "count", "lower"),
    ("render.render_views.ms_p50", "ms", "lower"),
    ("render.render_views.ms_p90", "ms", "lower"),
    ("render.render_views.share", "ratio", "lower"),
    ("render.render_views.scoring_calls", "count", "lower"),
    ("geometry.unproject.calls", "count", "lower"),
    ("geometry.unproject.ms_p50", "ms", "lower"),
    ("geometry.unproject.share", "ratio", "lower"),
    ("geometry.unproject.points_out", "count", "lower"),
    ("geometry.fuse_views.ms_p50", "ms", "lower"),
    ("geometry.fuse_views.share", "ratio", "lower"),
    ("geometry.fuse_views.points_in", "count", "lower"),
    ("geometry.fuse_views.points_out", "count", "lower"),
    ("geometry.categorize.ms_p50", "ms", "lower"),
    ("geometry.categorize.share", "ratio", "lower"),
    ("geometry.dbscan_filter.calls", "count", "lower"),
    ("geometry.dbscan_filter.ms_p50", "ms", "lower"),
    ("geometry.dbscan_filter.ms_p90", "ms", "lower"),
    ("geometry.dbscan_filter.share", "ratio", "lower"),
    ("geometry.dbscan_filter.points_in", "count", "lower"),
    ("geometry.dbscan_filter.kept_ratio", "ratio", "higher"),
    ("executor.ground_plan.self_ms_p50", "ms", "lower"),
    ("executor.ground_plan.share", "ratio", "lower"),
    ("executor.motion_policy.ms_p50", "ms", "lower"),
    ("executor.motion_policy.share", "ratio", "lower"),
    ("executor.motion_policy.no_target_retries", "count", "lower"),
    ("executor.run_episode.share", "ratio", "lower"),
    ("planlang.parse_plan.calls", "count", "lower"),
    ("planlang.parse_plan.ms_p50", "ms", "lower"),
    ("planlang.parse_plan.fail_ratio", "ratio", "lower"),
    ("planners.plan.calls", "count", "lower"),
    ("planners.plan.ms_p50", "ms", "lower"),
    ("planners.plan.share", "ratio", "lower"),
    ("simulate.step.calls", "count", "lower"),
    ("simulate.step.ms_p50", "ms", "lower"),
    ("simulate.step.share", "ratio", "lower"),
    ("simulate.success.calls", "count", "lower"),
    ("simulate.success.share", "ratio", "lower"),
    ("simulate.sample.ms_p50", "ms", "lower"),
    ("datasets.write_dataset.share", "ratio", "lower"),
    ("datasets.write_dataset.mb_per_s", "MB/s", "higher"),
    ("datasets.bytes_written", "B", "lower"),
    ("masks.rle_encode.share", "ratio", "lower"),
    ("datasets.read_dataset.share", "ratio", "lower"),
    ("datasets.read_dataset.mb_per_s", "MB/s", "higher"),
    ("masks.rle_decode.share", "ratio", "lower"),
    ("scene.ViewSet.digest.calls", "count", "lower"),
    ("scene.ViewSet.digest.share", "ratio", "lower"),
    ("evaluate.score_keystep.ms_p50", "ms", "lower"),
    ("objectives.iou.share", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

# Stats that are exact counts of work at a layer boundary; for equal seeds
# they must repeat between traced passes.
COUNT_STATS = ("calls", "scoring_calls", "points_in", "points_out", "no_target_retries",
               "fail_ratio", "kept_ratio", "bytes_written")


def span_stats(spans: list[Span], wall: float) -> dict[str, float]:
    """Every per-layer metric except the trace.* overhead figures."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def total(name, key):  # a call that raised has no counts
        return sum((spans[i].counts or {}).get(key, 0) for i in by_name[name])

    def stat(name: str, what: str) -> float:
        idx = by_name[name]
        if what == "calls":
            return len(idx)
        if what in ("ms_p50", "ms_p90"):
            return percentile([1000.0 * spans[i].seconds for i in idx], float(what[4:]))
        if what == "self_ms_p50":
            return percentile([1000.0 * selfs[i] for i in idx], 50)
        if what == "share":
            return sum(selfs[i] for i in idx) / wall
        if what in ("points_in", "points_out"):
            return total(name, what)
        if what == "kept_ratio":
            points_in = total(name, "points_in")
            return total(name, "points_out") / points_in if points_in else 0.0
        if what == "fail_ratio":
            return sum(spans[i].error is not None for i in idx) / len(idx) if idx else 0.0
        if what == "no_target_retries":
            return sum(spans[i].error == "NoTargetPointsError" for i in idx)
        if what == "mb_per_s":
            busy = sum(spans[i].seconds for i in idx)
            return total(name, "bytes") / busy / 1e6 if busy else 0.0
        if what == "scoring_calls":
            return sum(spans[root_of(spans, i)].name in SCORING_ROOTS for i in idx)
        raise ValueError(f"unknown stat {what!r}")

    out = {}
    for metric, _, _ in LAYER_METRICS:
        if metric == "datasets.bytes_written":
            out[metric] = total("datasets.write_dataset", "bytes")
        elif not metric.startswith("trace."):
            name, what = metric.rsplit(".", 1)
            out[metric] = stat(name, what)
    covered = sum(t for s, t in zip(spans, selfs) if s.name not in ENTRY_SPANS)
    out["trace.coverage"] = covered / wall
    return out
