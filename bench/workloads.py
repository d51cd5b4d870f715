"""The benchmark's workloads and the checks on their outputs.

Every workload draws its operations from a fixed pool, so each output can
be checked against a digest recorded from the seed code
(`references.json`, written by `record_references.py`). The workload seed
only chooses the order in which the pool is visited. Operations are grouped
into units (a block of closed-loop episodes, or one dataset round over the
eight task variations) that always run to the end, so every timed run has
the same mix of variations and every block-level result can be checked.

All workloads use the builtin suite and the default 4-camera 256x256 rig,
and run one client in a closed loop: the next operation starts when the
previous one has finished.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import sys
import time
import traceback
from dataclasses import dataclass

from groundplan import datasets, evaluate, executor
from groundplan.evaluate import OnlineResult, VariationResult
from groundplan.executor import GroundingConfig
from groundplan.geometry import DbscanParams
from groundplan.planners import (
    CorruptedPlanner,
    CorruptionConfig,
    ReplayPlanner,
    corrupt,
    oracle_factory,
    with_mask_noise,
)
from groundplan.scene import default_rig
from groundplan.tasks import builtin_suite

from tracer import percentile

END_TO_END_UNITS = {
    "setup_s": "s",
    "episodes_per_s": "1/s",
    "planner_calls_per_s": "1/s",
    "episode_ms_p50": "ms",
    "episode_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
CHUNK = 5
POOL_SEED = 1000  # block b runs eval_online's episode seeds for seed POOL_SEED + b
GEN_SEED = 2000  # dataset round g generates with seed GEN_SEED + g
NOISY_GROUNDING = GroundingConfig(dbscan_enabled=True, dbscan=DbscanParams(eps=0.008, min_pts=5))
# Offline evaluations per generated dataset: the replay oracle, then one
# corrupted replay per seed.
SCORING_CORRUPTIONS = tuple(
    CorruptionConfig(p_wrong_object=0.3, p_wrong_action=0.1, p_malformed=0.1,
                     transient=True, seed=s)
    for s in (21, 22, 23)
)


def noisy_factory():
    return corrupt(
        with_mask_noise(oracle_factory, 0.2, seed=3),
        CorruptionConfig(p_wrong_object=0.3, p_malformed=0.1, transient=True, seed=11),
    )


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def episode_digest(trace) -> str:
    return digest([trace.terminal, trace.planner_calls, trace.motion_steps, trace.history])


def dir_digest(path: str) -> str:
    """Hash of every file's relative path and bytes under path."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(base, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


@dataclass
class OpResult:
    """One operation: a closed-loop episode, or one dataset round trip."""

    seconds: float  # time inside program calls; checks are not timed
    ok: bool
    planner_calls: int = 0
    records: int = 0  # dataset records written
    scored: int = 0  # dataset records scored, one replay planner call each
    score_seconds: float = 0.0

    @property
    def busy(self) -> float:
        return self.seconds + self.score_seconds


def _report(what: str) -> None:
    print(f"bench: {what} failed", file=sys.stderr)
    traceback.print_exc(limit=3, file=sys.stderr)


def shuffled(n: int, seed: int) -> list[int]:
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order


class ClosedLoop:
    """Blocks of seeded episodes, each block equal to one eval_online call."""

    def __init__(self, name, factory, grounding, blocks, runs, episodes, refs,
                 require_success=False):
        self.name = name
        self.factory = factory
        self.grounding = grounding
        self.blocks = blocks
        self.runs = runs
        self.episodes_per_run = episodes
        self.refs = refs
        self.require_success = require_success
        self.suite = builtin_suite()
        self.rig = default_rig()

    def units(self, seed: int) -> list[int]:
        return shuffled(self.blocks, seed)

    def episodes(self, block: int) -> list[tuple[int, int, int, int]]:
        """(variation, run, episode, episode seed), one variation after another."""
        seed = POOL_SEED + block
        return [
            (vi, run, ep, evaluate.episode_seed(seed, vi, run, ep))
            for run in range(self.runs)
            for ep in range(self.episodes_per_run)
            for vi in range(len(self.suite))
        ]

    def online_result(self, successes: dict[tuple[int, int], int]) -> OnlineResult:
        """The OnlineResult eval_online reports for the same block."""
        return OnlineResult(variations={
            task.key: VariationResult(runs=[
                successes.get((vi, run), 0) / self.episodes_per_run
                for run in range(self.runs)
            ])
            for vi, task in enumerate(self.suite)
        })

    def run_episode(self, vi, seed, factory):
        return executor.run_episode(
            self.suite[vi], seed, factory, chunk=CHUNK, rig=self.rig,
            grounding=self.grounding,
        )

    def warm_up(self) -> None:
        vi, _, _, seed = self.episodes(0)[0]
        self.run_episode(vi, seed, self.factory)

    def run_unit(self, block: int, tracer=None, planner_wrap=None) -> list[OpResult]:
        factory = self.factory
        if planner_wrap is not None:
            base = self.factory
            factory = lambda ctx: planner_wrap(base(ctx))  # noqa: E731
        ref = self.refs[str(block)]
        results: list[OpResult] = []
        successes: dict[tuple[int, int], int] = {}
        for n, (vi, run, _, seed) in enumerate(self.episodes(block)):
            if tracer is not None:
                tracer.episode = n
            start = time.perf_counter()
            try:
                trace = self.run_episode(vi, seed, factory)
            except Exception:
                results.append(OpResult(time.perf_counter() - start, ok=False))
                _report(f"{self.name} block {block} episode {n}")
                continue
            seconds = time.perf_counter() - start
            ok = episode_digest(trace) == ref["episodes"][n]
            if self.require_success:
                ok = ok and trace.success
            successes[(vi, run)] = successes.get((vi, run), 0) + int(trace.success)
            results.append(OpResult(seconds, ok, trace.planner_calls))
        if digest(self.online_result(successes).to_json()) != ref["online"]:
            for r in results:
                r.ok = False
        return results

    @staticmethod
    def end_to_end(results: list[OpResult]) -> dict[str, float]:
        busy = sum(r.seconds for r in results)
        ms = [1000.0 * r.seconds for r in results]
        return {
            "episodes_per_s": len(results) / busy,
            "planner_calls_per_s": sum(r.planner_calls for r in results) / busy,
            "episode_ms_p50": percentile(ms, 50),
            "episode_ms_p90": percentile(ms, 90),
        }


class DatasetRoundtrip:
    """Generate a one-episode plan dataset, then read and score it repeatedly.

    One operation writes the dataset of one oracle episode with
    gen_plan_dataset, then runs read_dataset -> ReplayPlanner.from_records ->
    eval_offline once with the replay oracle and once per corrupted replay,
    as one generated dataset serves many offline evaluations.
    """

    name = "dataset_roundtrip"

    def __init__(self, rounds, refs, work_dir):
        self.rounds = rounds
        self.refs = refs
        self.work_dir = work_dir
        self.suite = builtin_suite()
        self.rig = default_rig()

    def units(self, seed: int) -> list[int]:
        return shuffled(self.rounds, seed)

    def ops(self, rnd: int) -> list[tuple[int, int]]:
        return [(vi, GEN_SEED + rnd) for vi in range(len(self.suite))]

    def warm_up(self) -> None:
        vi, gen_seed = self.ops(0)[0]
        self.roundtrip(vi, gen_seed, None)

    def roundtrip(self, vi, gen_seed, planner_wrap):
        """Returns (gen seconds, score seconds, dir digest, offline digests, records)."""
        out = os.path.join(self.work_dir, "dataset")
        try:
            start = time.perf_counter()
            manifest = datasets.gen_plan_dataset([self.suite[vi]], 1, gen_seed, out, rig=self.rig)
            gen_seconds = time.perf_counter() - start
            written = dir_digest(out)
            score_seconds = 0.0
            offline = []
            for cfg in (None,) + SCORING_CORRUPTIONS:
                start = time.perf_counter()
                _, records = datasets.read_dataset(out)
                planner = ReplayPlanner.from_records(records)
                if cfg is not None:
                    planner = CorruptedPlanner(planner, cfg)
                if planner_wrap is not None:
                    planner = planner_wrap(planner)
                result = evaluate.eval_offline(records, planner)
                score_seconds += time.perf_counter() - start
                offline.append(digest(result.to_json()))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return gen_seconds, score_seconds, written, offline, manifest.total_records

    def run_unit(self, rnd: int, tracer=None, planner_wrap=None) -> list[OpResult]:
        results = []
        for n, (vi, gen_seed) in enumerate(self.ops(rnd)):
            if tracer is not None:
                tracer.episode = n
            ref = self.refs[f"{vi}:{gen_seed}"]
            try:
                gen_s, score_s, written, offline, records = self.roundtrip(vi, gen_seed, planner_wrap)
            except Exception:
                results.append(OpResult(0.0, ok=False))
                _report(f"{self.name} round {rnd} variation {vi}")
                continue
            ok = written == ref["dir"] and offline == ref["offline"]
            passes = 1 + len(SCORING_CORRUPTIONS)
            results.append(OpResult(gen_s, ok, records=records, scored=passes * records,
                                    score_seconds=score_s))
        return results

    @staticmethod
    def end_to_end(results: list[OpResult]) -> dict[str, float]:
        # Episode figures describe generation (oracle episode + writing its
        # records); planner calls are the replay calls of offline scoring.
        gen = sum(r.seconds for r in results)
        ms = [1000.0 * r.seconds for r in results]
        return {
            "episodes_per_s": len(results) / gen,
            "planner_calls_per_s": sum(r.scored for r in results)
            / sum(r.score_seconds for r in results),
            "episode_ms_p50": percentile(ms, 50),
            "episode_ms_p90": percentile(ms, 90),
        }


def build(name: str, refs: dict, work_dir: str):
    if name == "closed_loop_oracle":
        return ClosedLoop(name, oracle_factory, GroundingConfig(), blocks=16, runs=2,
                          episodes=2, refs=refs[name], require_success=True)
    if name == "closed_loop_noisy":
        return ClosedLoop(name, noisy_factory(), NOISY_GROUNDING, blocks=8, runs=2,
                          episodes=1, refs=refs[name])
    if name == "dataset_roundtrip":
        return DatasetRoundtrip(rounds=16, refs=refs[name], work_dir=work_dir)
    raise ValueError(f"unknown workload {name!r}")

