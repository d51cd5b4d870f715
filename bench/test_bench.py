"""Tests of the benchmark's own code: python3 -m pytest bench -q"""

import json
from pathlib import Path

import pytest

import layers
import workloads
from groundplan import datasets
from tracer import Patcher, Span, Tracer, root_of, self_times

ROOT = Path(__file__).resolve().parent.parent


def _ticks():
    t = iter(range(100))
    return lambda: float(next(t))


def test_self_time_on_a_nested_call_tree():
    # root(a(b()), c()) with one clock tick per clock read.
    tracer = Tracer(clock=_ticks())
    b = tracer.wrap("b", lambda: tracer.clock())
    a = tracer.wrap("a", lambda: b())
    c = tracer.wrap("c", lambda: [tracer.clock(), tracer.clock()])

    def body():
        a()
        tracer.clock()
        c()

    tracer.wrap("root", body)()
    names = [s.name for s in tracer.spans]
    assert names == ["root", "a", "b", "c"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    assert [s.seconds for s in tracer.spans] == [11.0, 4.0, 2.0, 3.0]
    assert self_times(tracer.spans) == [4.0, 2.0, 2.0, 3.0]
    assert [root_of(tracer.spans, i) for i in range(4)] == [0, 0, 0, 0]


def test_layer_stats_on_a_synthetic_tree():
    spans = [
        Span("executor.run_episode", 0.0, 10.0, -1, 0),
        Span("executor.ground_plan", 1.0, 7.0, 0, 0),
        Span("geometry.fuse_views", 2.0, 4.0, 1, 0, counts={"points_in": 10, "points_out": 4}),
        Span("geometry.dbscan_filter", 4.0, 5.0, 1, 0, counts={"points_in": 4, "points_out": 3}),
        Span("planlang.parse_plan", 7.0, 8.0, 0, 0, error="MalformedMarkup"),
        Span("planlang.parse_plan", 8.0, 9.0, 0, 0),
    ]
    stats = layers.span_stats(spans, wall=10.0)
    assert stats["executor.ground_plan.self_ms_p50"] == 3000.0
    assert stats["executor.ground_plan.share"] == 0.3
    assert stats["geometry.fuse_views.share"] == 0.2
    assert stats["geometry.fuse_views.points_in"] == 10
    assert stats["geometry.dbscan_filter.kept_ratio"] == 0.75
    assert stats["planlang.parse_plan.calls"] == 2
    assert stats["planlang.parse_plan.fail_ratio"] == 0.5
    assert stats["geometry.categorize.ms_p50"] == 0.0
    # run_episode's own 2 s are loop glue, not covered by a named layer.
    assert stats["trace.coverage"] == pytest.approx(0.8)


def test_wrapped_call_that_raises_closes_its_span():
    tracer = Tracer(clock=_ticks())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("outer", tracer.wrap("inner", boom))()
    assert [s.error for s in tracer.spans] == ["KeyError", "KeyError"]
    assert all(s.end > s.start for s in tracer.spans)
    tracer.wrap("after", lambda: None)()
    assert tracer.spans[-1].parent == -1


class _Owner:
    def method(self):
        return "method"

    @classmethod
    def make(cls):
        return cls


def test_patcher_restores_every_attribute_when_an_exception_is_raised():
    originals = {attr: vars(_Owner)[attr] for attr in ("method", "make")}
    with pytest.raises(RuntimeError):
        with Patcher() as p:
            p.patch(_Owner, "method", lambda fn: lambda self: "patched")
            p.patch(_Owner, "make", lambda fn: lambda cls: ("patched", fn(cls)))
            assert _Owner().method() == "patched"
            assert _Owner.make() == ("patched", _Owner)
            raise RuntimeError
    assert {attr: vars(_Owner)[attr] for attr in originals} == originals
    assert _Owner().method() == "method"


def test_installed_layer_wrappers_are_all_removed_after_an_exception():
    owners = [(owner, attr) for owner, attr, _, _ in layers.targets()]
    owners.append((datasets, "oracle_factory"))
    before = [vars(owner)[attr] for owner, attr in owners]
    with pytest.raises(RuntimeError):
        with Patcher() as p:
            layers.install(p, Tracer())
            assert all(vars(o)[a] is not b for (o, a), b in zip(owners, before))
            raise RuntimeError
    assert all(vars(o)[a] is b for (o, a), b in zip(owners, before))


@pytest.mark.parametrize("name", ["closed_loop_oracle", "closed_loop_noisy", "dataset_roundtrip"])
def test_workload_inputs_are_a_pure_function_of_the_seed(name, tmp_path):
    refs = {name: {}}
    wl, again = (workloads.build(name, refs, str(tmp_path)) for _ in range(2))
    for seed in (0, 1, 12345):
        assert wl.units(seed) == again.units(seed)
        assert sorted(wl.units(seed)) == list(range(len(wl.units(seed))))
    assert len({tuple(wl.units(seed)) for seed in range(5)}) > 1
    inputs = "episodes" if name.startswith("closed_loop") else "ops"
    for unit in wl.units(7):
        assert getattr(wl, inputs)(unit) == getattr(again, inputs)(unit)


def test_references_cover_every_pool_entry():
    refs = json.loads((ROOT / "bench" / "references.json").read_text())
    for name in ("closed_loop_oracle", "closed_loop_noisy"):
        wl = workloads.build(name, refs, "")
        for block in range(wl.blocks):
            assert len(refs[name][str(block)]["episodes"]) == len(wl.episodes(block))
    wl = workloads.build("dataset_roundtrip", refs, "")
    keys = {f"{vi}:{seed}" for rnd in range(wl.rounds) for vi, seed in wl.ops(rnd)}
    assert keys == set(refs["dataset_roundtrip"])


def test_benchmark_manifest_and_routing_match_the_code():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    routing = json.loads((ROOT / "bench" / "routing.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        tuple(m) for m in layers.LAYER_METRICS
    ]
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == workloads.END_TO_END_UNITS
    names = [w["name"] for w in manifest["workloads"]]
    assert set(routing["workloads"]) == set(names)
    assert set(routing["per_layer"]) == {m["name"] for m in manifest["per_layer"]}
    for metric, routes in routing["per_layer"].items():
        for route in routes["moves"]:
            assert route["metric"] in workloads.END_TO_END_UNITS, metric
            assert route["workload"] in names, metric
