"""groundplan benchmark: one workload, timed or traced, outputs checked.

    python3 bench/run.py --workload closed_loop_oracle --seed 1 --seconds 35 --trace 0

Run it from a checkout of the repository; it imports groundplan from the
checkout's src/ and writes only inside the checkout: datasets under
.bench_work/, which it removes again, and traced spans under .bench_spans/.

--trace 0 runs whole units of the workload, untraced, until --seconds have
passed and the whole pool has run at least once, and reports the end-to-end
metrics. --trace 1 runs a fixed number of units (so that boundary counts
repeat exactly) three times untraced and three times traced, alternately,
and reports the per-layer metrics of the last traced pass plus the tracing
overhead; that pass's spans are written to
.bench_spans/<workload>_seed<seed>.jsonl. Both modes check every output
against references.json and count mismatches and exceptions as failed
operations.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
run's metadata and sample counts.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("closed_loop_oracle", "closed_loop_noisy", "dataset_roundtrip")
SETUP_REPEATS = 5
TRACE_UNITS = {"closed_loop_oracle": 2, "closed_loop_noisy": 1, "dataset_roundtrip": 2}
TRACE_ROUNDS = 3


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the CPUs this process may use (before numpy loads)."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None  # not a git checkout
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """Identifies the program under test where no git metadata exists."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def metadata(args, nproc: int, numpy_version: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": nproc,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def run_units(wl, units, **kw):
    return [r for u in units for r in wl.run_unit(u, **kw)]


def timed(wl, args, setup_s):
    import workloads

    units = wl.units(args.seed)
    results = []
    start = time.perf_counter()
    n = 0
    # At least one full pass over the pool, so every run does the same work
    # apart from the units that fill the remaining seconds.
    while n < len(units) or time.perf_counter() - start < args.seconds:
        results += wl.run_unit(units[n % len(units)])
        n += 1
    elapsed = time.perf_counter() - start
    metrics = wl.end_to_end(results)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {"samples": {"operations": len(results), "units": n,
                          "setup_repeats": SETUP_REPEATS},
              "elapsed_s": elapsed}
    if args.workload == "dataset_roundtrip":
        detail["records_written_per_s"] = (
            sum(r.records for r in results) / sum(r.seconds for r in results))
        detail["records_scored_per_s"] = metrics["planner_calls_per_s"]
    ok = all(r.ok for r in results)
    units_of = workloads.END_TO_END_UNITS
    return results, ok, {k: (metrics[k], units_of[k]) for k in units_of}, detail


def traced(wl, args):
    """Alternate untraced and traced passes over the same fixed units."""
    import layers
    from tracer import Patcher, Tracer

    units = wl.units(args.seed)[:TRACE_UNITS[args.workload]]
    results, untraced_walls, traced_walls, counts = [], [], [], []
    for _ in range(TRACE_ROUNDS):
        plain = run_units(wl, units)
        untraced_walls.append(sum(r.busy for r in plain))
        tracer = Tracer()
        with Patcher() as patcher:
            layers.install(patcher, tracer)
            passed = run_units(wl, units, tracer=tracer,
                               planner_wrap=lambda p: layers.TracedPlanner(p, tracer))
        wall = sum(r.busy for r in passed)
        traced_walls.append(wall)
        stats = layers.span_stats(tracer.spans, wall)
        counts.append({k: v for k, v in stats.items()
                       if k.rsplit(".", 1)[1] in layers.COUNT_STATS})
        results += plain + passed
    overhead = statistics.median(traced_walls) - statistics.median(untraced_walls)
    stats["trace.wall_s"] = wall
    stats["trace.overhead_s"] = overhead
    stats["trace.overhead_ratio"] = overhead / statistics.median(untraced_walls)
    spans_file = ROOT / ".bench_spans" / f"{args.workload}_seed{args.seed}.jsonl"
    spans_file.parent.mkdir(exist_ok=True)
    with open(spans_file, "w") as f:
        for span in tracer.spans:
            f.write(json.dumps(dataclasses.asdict(span)) + "\n")
    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        print("bench: boundary counts differ between traced passes", file=sys.stderr)
    ok = repeat and all(r.ok for r in results)
    units_of = {m: u for m, u, _ in layers.LAYER_METRICS}
    detail = {"samples": {"operations_per_pass": len(passed), "units": len(units),
                          "passes": 2 * TRACE_ROUNDS, "spans": len(tracer.spans)},
              "untraced_wall_s": untraced_walls, "traced_wall_s": traced_walls,
              "counts_repeat": repeat, "spans_file": str(spans_file.relative_to(ROOT))}
    return results, ok, {k: (stats[k], units_of[k]) for k in units_of}, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_threads()  # before numpy is imported
    src = ROOT / "src"
    if not (src / "groundplan" / "__init__.py").is_file():
        print(f"bench: no groundplan sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy

    import layers  # noqa: F401  (imported here so that import time counts as set-up)
    import workloads
    from groundplan import render

    import_s = time.perf_counter() - START
    refs = json.loads((BENCH / "references.json").read_text())
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=scratch)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            getattr(render, "_RAY_CACHE", {}).clear()  # each set-up pays the warm-up again
            wl = workloads.build(args.workload, refs, work_dir)
            wl.warm_up()
            setups.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setups)
        if args.trace:
            results, ok, metrics, detail = traced(wl, args)
        else:
            results, ok, metrics, detail = timed(wl, args, setup_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it
    failed = sum(not r.ok for r in results)
    print(json.dumps({"meta": metadata(args, nproc, numpy.__version__), **detail}))
    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
