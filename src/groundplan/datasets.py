"""Dataset synthesis and the on-disk formats.

Three dataset kinds are generated from oracle episodes:

* ``plan``   - one record per keystep: views, instruction, ground-truth
  history and the ground-truth grounded plan.
* ``refexp`` - one record per (keystep, visible object): a segmentation
  query plus the K ground-truth masks.
* ``long``   - two episodes of different variations concatenated under a
  joint instruction, with histories telescoping across the seam.

On disk a dataset is `manifest.json` plus one JSON record per keystep under
records/ and raw depth under depth/ (8-byte width/height header, then
row-major little-endian float32). Masks and id maps are RLE-encoded in the
record JSON. Generation is byte-deterministic for a fixed (suite, counts,
seed).
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .executor import EpisodeTrace, run_episode
from .masks import mask_from_json, mask_to_json, rle_decode, rle_encode
from .planlang import GroundedPlan, history_text, plan_from_json, plan_to_json
from .planners import oracle_factory
from .scene import CameraModel, CameraRig, View, ViewSet, default_rig
from .seeds import dataset_episode_seed
from .tasks import TaskScript, suite_digest

REFEXP_QUERY = "Please segment one of the {name}"


def joiner_templates() -> list[str]:
    raw = resources.files("groundplan.data").joinpath("joiner_templates.json").read_text()
    return json.loads(raw)


class DatasetReadError(RuntimeError):
    """A dataset file failed to parse; carries file and byte offset."""

    def __init__(self, path: str, offset: int, message: str):
        super().__init__(f"{path} @ byte {offset}: {message}")
        self.path = path
        self.offset = offset


# -- records ----------------------------------------------------------------


@dataclass
class KeystepRecord:
    episode: str
    keystep: int
    task: str
    group: str
    instruction: str
    history: tuple[str, ...]
    plan_text: str
    gt_plan: GroundedPlan
    views: ViewSet
    cameras: list[CameraModel]
    inventory: list[tuple[int, str]]
    kind: str = "plan"
    pair: tuple[str, str] | None = None

    def __post_init__(self):
        if len(self.history) != self.keystep:
            raise ValueError("history length must equal the keystep index")


@dataclass
class RefExpRecord:
    episode: str
    keystep: int
    task: str
    group: str
    query: str
    object_id: int
    gt_masks: list[np.ndarray]
    views: ViewSet
    cameras: list[CameraModel]
    inventory: list[tuple[int, str]]
    kind: str = "refexp"


@dataclass
class DatasetManifest:
    kind: str
    suite_hash: str
    seed: int
    episodes_per_variation: int
    counts: dict[str, int]
    total_records: int
    total_episodes: int
    mean_keysteps_per_episode: float
    files: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "suite_hash": self.suite_hash,
            "seed": self.seed,
            "episodes_per_variation": self.episodes_per_variation,
            "counts": self.counts,
            "total_records": self.total_records,
            "total_episodes": self.total_episodes,
            "mean_keysteps_per_episode": self.mean_keysteps_per_episode,
            "files": sorted(self.files),
        }

    @classmethod
    def from_json(cls, d: dict) -> "DatasetManifest":
        return cls(
            kind=d["kind"],
            suite_hash=d["suite_hash"],
            seed=d["seed"],
            episodes_per_variation=d["episodes_per_variation"],
            counts=dict(d["counts"]),
            total_records=d["total_records"],
            total_episodes=d["total_episodes"],
            mean_keysteps_per_episode=d["mean_keysteps_per_episode"],
            files=list(d["files"]),
        )


# -- keystep extraction -------------------------------------------------------


def extract_keysteps(trace: EpisodeTrace) -> list[int]:
    """Trace step indices at which a new subplan was issued and executed."""
    if not trace.steps:
        raise ValueError("cannot extract keysteps from an empty trace")
    return trace.keystep_indices()


def _records_from_trace(trace: EpisodeTrace, episode_id: str) -> list[KeystepRecord]:
    indices = extract_keysteps(trace)
    gt_plans = [trace.steps[i].plan for i in indices]
    records = []
    for t, idx in enumerate(indices):
        step = trace.steps[idx]
        if step.views is None or step.cameras is None:
            raise ValueError("trace must be run with store_views=True")
        history = tuple(history_text(p) for p in gt_plans[:t])
        records.append(KeystepRecord(
            episode=episode_id,
            keystep=t,
            task=trace.task_key,
            group=trace.group,
            instruction=trace.instruction,
            history=history,
            plan_text=step.raw_text,
            gt_plan=step.plan,
            views=step.views,
            cameras=step.cameras,
            inventory=list(trace.inventory),
        ))
    return records


# -- depth binary -------------------------------------------------------------


def write_depth(path: str, depth: np.ndarray) -> None:
    depth = np.asarray(depth, dtype=np.float32)
    with open(path, "wb") as f:
        h, w = depth.shape
        f.write(struct.pack("<II", w, h))
        f.write(depth.astype("<f4").tobytes())


def read_depth(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        header = f.read(8)
        if len(header) != 8:
            raise DatasetReadError(path, 0, "truncated header")
        w, h = struct.unpack("<II", header)
        body = f.read()
    expected = w * h * 4
    if len(body) != expected:
        raise DatasetReadError(path, 8 + len(body), f"expected {expected} payload bytes")
    return np.frombuffer(body, dtype="<f4").reshape(h, w)


# -- record (de)serialization ---------------------------------------------------


def _camera_to_json(cam: CameraModel) -> dict:
    return {
        "fx": cam.fx, "fy": cam.fy, "cx": cam.cx, "cy": cam.cy,
        "width": cam.width, "height": cam.height,
        "rotation": cam.rotation.reshape(-1).tolist(),
        "translation": cam.translation.tolist(),
        "role": cam.role,
    }


def _camera_from_json(d: dict) -> CameraModel:
    return CameraModel(
        fx=d["fx"], fy=d["fy"], cx=d["cx"], cy=d["cy"],
        width=d["width"], height=d["height"],
        rotation=np.asarray(d["rotation"]).reshape(3, 3),
        translation=np.asarray(d["translation"]),
        role=d["role"],
    )


def _id_maps_to_json(views: ViewSet) -> list:
    out = []
    for v in views:
        per_cam = []
        for oid in sorted(int(i) for i in np.unique(v.ids) if i != 0):
            per_cam.append([oid, rle_encode(v.ids == oid)])
        out.append(per_cam)
    return out


def _views_from_json(id_maps: list, depth_files: list[str], root: str,
                     shape: tuple[int, int]) -> ViewSet:
    views = []
    for per_cam, depth_file in zip(id_maps, depth_files):
        depth = read_depth(os.path.join(root, depth_file))
        ids = np.zeros(shape, dtype=np.int32)
        for oid, runs in per_cam:
            ids[rle_decode(runs, shape)] = oid
        views.append(View(depth=depth, ids=ids))
    return ViewSet(views)


def _depth_names(episode: str, keystep: int, cameras: list[CameraModel]) -> list[str]:
    return [f"depth/{episode}_{keystep}_{cam.role}.bin" for cam in cameras]


def _record_to_json(rec) -> dict:
    base = {
        "kind": rec.kind,
        "episode": rec.episode,
        "keystep": rec.keystep,
        "task": rec.task,
        "group": rec.group,
        "cameras": [_camera_to_json(c) for c in rec.cameras],
        "depth_files": _depth_names(rec.episode, rec.keystep, rec.cameras),
        "id_maps": _id_maps_to_json(rec.views),
        "inventory": [[oid, name] for oid, name in rec.inventory],
    }
    if isinstance(rec, KeystepRecord):
        base.update({
            "instruction": rec.instruction,
            "history": list(rec.history),
            "plan_text": rec.plan_text,
            "gt_plan": plan_to_json(rec.gt_plan),
            "pair": list(rec.pair) if rec.pair else None,
        })
    else:
        base.update({
            "query": rec.query,
            "object_id": rec.object_id,
            "gt_masks": [mask_to_json(m) for m in rec.gt_masks],
        })
    return base


def _record_from_json(d: dict, root: str):
    cameras = [_camera_from_json(c) for c in d["cameras"]]
    shape = (cameras[0].height, cameras[0].width)
    views = _views_from_json(d["id_maps"], d["depth_files"], root, shape)
    inventory = [(int(oid), name) for oid, name in d["inventory"]]
    if d["kind"] in ("plan", "long"):
        return KeystepRecord(
            episode=d["episode"],
            keystep=d["keystep"],
            task=d["task"],
            group=d["group"],
            instruction=d["instruction"],
            history=tuple(d["history"]),
            plan_text=d["plan_text"],
            gt_plan=plan_from_json(d["gt_plan"]),
            views=views,
            cameras=cameras,
            inventory=inventory,
            kind=d["kind"],
            pair=tuple(d["pair"]) if d.get("pair") else None,
        )
    return RefExpRecord(
        episode=d["episode"],
        keystep=d["keystep"],
        task=d["task"],
        group=d["group"],
        query=d["query"],
        object_id=d["object_id"],
        gt_masks=[mask_from_json(m) for m in d["gt_masks"]],
        views=views,
        cameras=cameras,
        inventory=inventory,
    )


def _record_filename(rec) -> str:
    if isinstance(rec, KeystepRecord):
        return f"records/{rec.episode}_{rec.keystep}.json"
    return f"records/{rec.episode}_{rec.keystep}_obj{rec.object_id}.json"


# -- dataset writing / reading ---------------------------------------------------


def write_dataset(manifest: DatasetManifest, records: list, out_dir: str) -> DatasetManifest:
    """Write records plus manifest; returns the manifest with its file index."""
    os.makedirs(os.path.join(out_dir, "records"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "depth"), exist_ok=True)
    files = []
    depth_written: set[str] = set()
    for rec in records:
        name = _record_filename(rec)
        payload = json.dumps(_record_to_json(rec), sort_keys=True,
                             separators=(",", ":"))
        with open(os.path.join(out_dir, name), "w") as f:
            f.write(payload)
            f.write("\n")
        files.append(name)
        for depth_name, view in zip(
            _depth_names(rec.episode, rec.keystep, rec.cameras), rec.views
        ):
            if depth_name not in depth_written:
                write_depth(os.path.join(out_dir, depth_name), view.depth)
                depth_written.add(depth_name)
                files.append(depth_name)
    manifest.files = sorted(files)
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest.to_json(), f, sort_keys=True, indent=2)
        f.write("\n")
    return manifest


def _read_json(path: str, parse):
    """parse() of the JSON in path; bad JSON or a missing field is a DatasetReadError."""
    try:
        with open(path) as f:
            payload = json.load(f)
        return parse(payload)
    except json.JSONDecodeError as e:
        raise DatasetReadError(path, e.pos, e.msg) from e
    except KeyError as e:
        raise DatasetReadError(path, 0, f"missing field {e.args[0]!r}") from e


def read_dataset(data_dir: str) -> tuple[DatasetManifest, list]:
    manifest_path = os.path.join(data_dir, "manifest.json")
    manifest = _read_json(manifest_path, DatasetManifest.from_json)
    records = [
        _read_json(os.path.join(data_dir, name), lambda d: _record_from_json(d, data_dir))
        for name in manifest.files
        if name.startswith("records/")
    ]
    counted = sum(manifest.counts.values())
    if counted != len(records):
        raise DatasetReadError(
            manifest_path, 0,
            f"manifest counts {counted} records, found {len(records)}",
        )
    records.sort(key=lambda r: (r.episode, r.keystep, getattr(r, "object_id", -1)))
    return manifest, records


# -- generators -------------------------------------------------------------------


def _run_oracle_episodes(
    suite: list[TaskScript],
    episodes_per_variation: int,
    seed: int,
    rig: CameraRig | None,
    chunk: int = 5,
) -> dict[str, list[EpisodeTrace]]:
    rig = default_rig() if rig is None else rig
    traces: dict[str, list[EpisodeTrace]] = {}
    for vi, task in enumerate(suite):
        per = []
        for ei in range(episodes_per_variation):
            ep_seed = dataset_episode_seed(seed, vi, ei)
            trace = run_episode(
                task, ep_seed, oracle_factory, chunk=chunk, rig=rig, store_views=True
            )
            if not trace.success:
                raise RuntimeError(
                    f"oracle episode failed: task {task.key} seed {ep_seed} "
                    f"({trace.terminal})"
                )
            per.append(trace)
        traces[task.key] = per
    return traces


def _generate(kind, suite, episodes_per_variation, seed, out_dir, groups, id_prefix,
              extract) -> DatasetManifest:
    """Number the episodes, collect their records, write the dataset.

    groups lists (manifest count key, per-episode items); extract(episode id,
    item) returns that episode's records and its keystep count.
    """
    records: list = []
    counts: dict[str, int] = {}
    episodes = keysteps = 0
    for key, items in groups:
        n = 0
        for item in items:
            recs, ks = extract(f"{id_prefix}{episodes:05d}", item)
            episodes += 1
            keysteps += ks
            n += len(recs)
            records.extend(recs)
        counts[key] = n
    manifest = DatasetManifest(
        kind=kind,
        suite_hash=suite_digest(suite),
        seed=seed,
        episodes_per_variation=episodes_per_variation,
        counts=counts,
        total_records=len(records),
        total_episodes=episodes,
        mean_keysteps_per_episode=(keysteps / episodes) if episodes else 0.0,
    )
    return write_dataset(manifest, records, out_dir)


def _plan_records(episode_id: str, trace: EpisodeTrace) -> tuple[list[KeystepRecord], int]:
    recs = _records_from_trace(trace, episode_id)
    return recs, len(recs)


def gen_plan_dataset(
    suite: list[TaskScript],
    episodes_per_variation: int,
    seed: int,
    out_dir: str,
    rig: CameraRig | None = None,
) -> DatasetManifest:
    """Grounded-planning tuples from oracle episodes, one per keystep."""
    traces = _run_oracle_episodes(suite, episodes_per_variation, seed, rig)
    groups = [(task.key, traces[task.key]) for task in suite]
    return _generate("plan", suite, episodes_per_variation, seed, out_dir, groups, "e",
                     _plan_records)


def _refexp_records(episode_id: str, trace: EpisodeTrace) -> tuple[list[RefExpRecord], int]:
    indices = extract_keysteps(trace)
    records = []
    for t, idx in enumerate(indices):
        step = trace.steps[idx]
        visible = step.views.visible_ids()
        records.extend(
            RefExpRecord(
                episode=episode_id,
                keystep=t,
                task=trace.task_key,
                group=trace.group,
                query=REFEXP_QUERY.format(name=name),
                object_id=oid,
                gt_masks=step.views.masks_for(oid),
                views=step.views,
                cameras=step.cameras,
                inventory=list(trace.inventory),
            )
            for oid, name in trace.inventory
            if oid in visible
        )
    return records, len(indices)


def gen_refexp_dataset(
    suite: list[TaskScript],
    episodes_per_variation: int,
    seed: int,
    out_dir: str,
    rig: CameraRig | None = None,
) -> DatasetManifest:
    """Referring-expression records: every visible inventory object per keystep."""
    traces = _run_oracle_episodes(suite, episodes_per_variation, seed, rig)
    groups = [(task.key, traces[task.key]) for task in suite]
    return _generate("refexp", suite, episodes_per_variation, seed, out_dir, groups, "e",
                     _refexp_records)


def joint_instruction(instruction_a: str, instruction_b: str, seed: int) -> str:
    """Join two instructions with a seed-selected template."""
    templates = joiner_templates()
    return templates[seed % len(templates)].format(a=instruction_a, b=instruction_b)


def gen_long_horizon(
    trace_a: EpisodeTrace, trace_b: EpisodeTrace, seed: int, episode_id: str = "p00000"
) -> list[KeystepRecord]:
    """Concatenate two episodes of different variations into one record list.

    Records keep their source imagery; histories for the second episode are
    prefixed with all of the first episode's plan texts.
    """
    if trace_a.task_key == trace_b.task_key:
        raise ValueError("pseudo long-horizon pairs need different task variations")
    instruction = joint_instruction(trace_a.instruction, trace_b.instruction, seed)
    recs_a = _records_from_trace(trace_a, episode_id)
    recs_b = _records_from_trace(trace_b, episode_id)
    prefix = tuple(
        history_text(trace_a.steps[i].plan) for i in extract_keysteps(trace_a)
    )
    out = []
    for rec in recs_a:
        rec.kind = "long"
        rec.instruction = instruction
        rec.pair = (trace_a.task_key, trace_b.task_key)
        out.append(rec)
    for rec in recs_b:
        rec.kind = "long"
        rec.instruction = instruction
        rec.history = prefix + rec.history
        rec.keystep = len(prefix) + rec.keystep
        rec.pair = (trace_a.task_key, trace_b.task_key)
        out.append(rec)
    return out


def _long_records(episode_id: str, pair: tuple) -> tuple[list[KeystepRecord], int]:
    trace_a, trace_b, pair_seed = pair
    recs = gen_long_horizon(trace_a, trace_b, seed=pair_seed, episode_id=episode_id)
    return recs, len(recs)


def gen_long_dataset(
    suite: list[TaskScript],
    episodes_per_variation: int,
    seed: int,
    out_dir: str,
    rig: CameraRig | None = None,
) -> DatasetManifest:
    """Pair episode i of each variation with episode i of the next variation."""
    if len(suite) < 2:
        raise ValueError("long-horizon generation needs at least two variations")
    traces = _run_oracle_episodes(suite, episodes_per_variation, seed, rig)
    groups = []
    for vi, task_a in enumerate(suite):
        task_b = suite[(vi + 1) % len(suite)]
        if task_a.key == task_b.key:
            continue
        pairs = [
            (traces[task_a.key][ei], traces[task_b.key][ei], dataset_episode_seed(seed, vi, ei))
            for ei in range(episodes_per_variation)
        ]
        groups.append((f"{task_a.key}|{task_b.key}", pairs))
    return _generate("long", suite, episodes_per_variation, seed, out_dir, groups, "p",
                     _long_records)
