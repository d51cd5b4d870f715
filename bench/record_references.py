"""Record the digests the benchmark checks outputs against.

    python3 bench/record_references.py

Run it on the code whose outputs are the reference; it rewrites
bench/references.json. A block's OnlineResult comes from eval_online
itself, so the benchmark's per-episode loop is checked against eval_online.
Record again only in a change that means to alter outputs, and say why.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from groundplan.evaluate import eval_online  # noqa: E402

import workloads  # noqa: E402


def closed_loop(wl) -> dict:
    out = {}
    for block in range(wl.blocks):
        online = eval_online(
            wl.suite, wl.factory, chunk=workloads.CHUNK, episodes=wl.episodes_per_run,
            runs=wl.runs, seed=workloads.POOL_SEED + block, rig=wl.rig,
            grounding=wl.grounding,
        )
        episodes = [
            workloads.episode_digest(wl.run_episode(vi, seed, wl.factory))
            for vi, _, _, seed in wl.episodes(block)
        ]
        out[str(block)] = {"online": workloads.digest(online.to_json()), "episodes": episodes}
    return out


def dataset(wl) -> dict:
    out = {}
    for rnd in range(wl.rounds):
        for vi, gen_seed in wl.ops(rnd):
            _, _, written, offline, _ = wl.roundtrip(vi, gen_seed, None)
            out[f"{vi}:{gen_seed}"] = {"dir": written, "offline": offline}
    return out


def main() -> None:
    names = ("closed_loop_oracle", "closed_loop_noisy", "dataset_roundtrip")
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=scratch)
    refs = {}
    try:
        for name in names:
            wl = workloads.build(name, {n: {} for n in names}, work_dir)
            refs[name] = dataset(wl) if name == "dataset_roundtrip" else closed_loop(wl)
            print(f"{name}: {len(refs[name])} entries", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        scratch.rmdir()
    (BENCH / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
