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

What is read when. ``read_dataset`` parses every record and checks it
whole: field types, every id-map entry, each depth file's path, its 8-byte
header against the record's camera and its size against the header. So a
malformed dataset fails there, never later during scoring. It reads no depth
payload and decodes no id map. A view read from a dataset keeps its id map as
the record's runs and decodes it into the int32 frame the first time ``.ids``
is read, and it reads its depth file the first time ``.depth`` is read; a file
that has vanished or changed size by then is a `DatasetReadError` naming it.
Offline replay scoring keys records on id-map pixel counts (`View.id_counts`),
taken from the runs in the walk that checks them, matches views by identity and
scores against the ground-truth masks, so it opens no depth file and rarely
decodes an id map. Records of one dataset share one `CameraModel` per camera.

What is held when. Generation holds one episode at a time: the episode runs,
its records and depth files are written, and it is dropped before the next
one runs, so memory does not grow with the episode count. Its trace keeps
views and masks at keysteps only (`TraceStep`). ``long`` holds each
variation's traces until its groups are built, and variation 0's until the
last variation pairs back to it. Files are written into a staging directory
beside the output and moved into it, the manifest last, once every record
is written; a failed episode removes only the staging directory, so the
output directory is left as it was.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import struct
import tempfile
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from itertools import accumulate
from operator import le

import numpy as np

from .executor import EpisodeTrace, run_episode
from .jsonfile import JsonFileError, fields, invalid, read_json, typed
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


class DatasetReadError(JsonFileError):
    """A dataset file failed to parse; carries file and byte offset."""


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
        return {**vars(self), "files": sorted(self.files)}

    @classmethod
    def from_json(cls, d: dict) -> "DatasetManifest":
        manifest = fields(d, _MANIFEST)
        for key, n in manifest["counts"].items():
            typed(n, int, f"counts.{key}")
        return cls(**manifest)


_MANIFEST = {"kind": ("plan", "refexp", "long"), "suite_hash": str, "seed": int,
             "episodes_per_variation": int, "counts": dict, "total_records": int,
             "total_episodes": int, "mean_keysteps_per_episode": float, "files": [str]}


# -- keystep extraction -------------------------------------------------------


def extract_keysteps(trace: EpisodeTrace) -> list[int]:
    """Trace step indices at which a new subplan was issued and executed."""
    if not trace.steps:
        raise ValueError("cannot extract keysteps from an empty trace")
    return [s.index for s in trace.steps if s.keystep]


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


def _depth_shape(f, path: str) -> tuple[int, int]:
    """(height, width) from the header of open depth file `f`, checked against the
    file size, so that the payload need not be read to know it is whole."""
    header = f.read(8)
    if len(header) != 8:
        raise DatasetReadError(path, 0, "truncated header")
    w, h = struct.unpack("<II", header)
    size = os.fstat(f.fileno()).st_size
    if size != 8 + w * h * 4:
        raise DatasetReadError(path, size, f"expected {w * h * 4} payload bytes")
    return h, w


def read_depth(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        h, w = _depth_shape(f, path)
        body = f.read()
    return np.frombuffer(body, dtype="<f4").reshape(h, w)


# -- record (de)serialization ---------------------------------------------------


def _camera_to_json(cam: CameraModel) -> dict:
    return {**vars(cam), "rotation": cam.rotation.reshape(-1).tolist(),
            "translation": cam.translation.tolist()}


_CAMERA = {"fx": float, "fy": float, "cx": float, "cy": float, "width": int, "height": int,
           "rotation": [float], "translation": [float], "role": str}


def _camera_from_json(d: dict, path: str) -> CameraModel:
    try:
        return CameraModel(**fields(d, _CAMERA, path))
    except ValueError as e:  # a rotation or translation of the wrong size, or a bad focal length
        raise ValueError(f"field '{path}': {e}") from e


def _camera_reader():
    """_camera_from_json, building one CameraModel per distinct camera JSON:
    every record of a dataset repeats its static cameras. The key is the pickle
    of the JSON, which keeps float bits and types, so -0.0, 1 and True never
    share 0.0's or 1.0's model; it costs a tenth of repr's float formatting."""
    built: dict[bytes, CameraModel] = {}

    def camera(d: dict, path: str) -> CameraModel:
        key = pickle.dumps(d)
        if key not in built:
            built[key] = _camera_from_json(d, path)
        return built[key]

    return camera


def _id_maps_to_json(views: ViewSet) -> list:
    return [[[oid, rle_encode(v.ids == oid)] for oid in v.object_ids()] for v in views]


def _resolver(data_dir: str):
    """inside(name, json_path, field) -> data_dir/name, or a DatasetReadError if
    os.path.realpath of it is not below data_dir. It resolves each directory once
    and a file only if it is a symlink; realpath per file walks the whole path."""
    root = os.path.realpath(data_dir)
    below = os.path.join(root, "")
    real_dirs: dict[str, str] = {}

    def inside(name: str, json_path: str, field: str) -> str:
        path = os.path.join(root, name)
        head, tail = os.path.split(path)
        if head not in real_dirs:
            real_dirs[head] = os.path.realpath(head)
        real = os.path.normpath(os.path.join(real_dirs[head], tail))
        if os.path.islink(real):
            real = os.path.realpath(real)
        if not real.startswith(below):
            raise DatasetReadError(json_path, 0, f"{field} {name!r} escapes the dataset directory")
        return path

    return inside


class _RunsView(View):
    """A view read from a dataset. Its id map stays as the record's [oid, runs]
    entries until .ids is first read, which decodes it once (later entries win),
    and its depth stays in its file until .depth is first read. Both frames are
    read-only, as every View's are. `id_counts` is the counts the runs gave when
    read, or else the decoded frame's."""

    def __init__(self, path: str, shape: tuple[int, int], id_runs: list, counts: tuple | None):
        self._path = path
        self._shape = shape
        self._id_runs = id_runs
        if counts is not None:
            self.id_counts = shape, counts

    @cached_property
    def depth(self) -> np.ndarray:
        try:
            depth = read_depth(self._path)
        except OSError as e:
            raise DatasetReadError(self._path, 0, f"cannot read depth: {e.strerror}") from e
        if depth.shape != self._shape:
            raise DatasetReadError(
                self._path, 0, f"is {depth.shape[1]}x{depth.shape[0]} now, "
                f"{self._shape[1]}x{self._shape[0]} when the dataset was read")
        return depth

    @cached_property
    def ids(self) -> np.ndarray:
        ids = np.zeros(self._shape, dtype=np.int32)
        for oid, runs in self._id_runs:
            ids[rle_decode(runs, ids.shape)] = oid
        ids.flags.writeable = False
        return ids


def _id_map_counts(per_cam, pixels: int, field: str) -> tuple | None:
    """Check a view's id map at field path `field`, [oid, runs] entries with int32
    oids and non-negative runs that sum to pixels, so that _RunsView.ids decodes it
    without error. In the same walk, return its View.id_counts pairs if no two
    entries' on-intervals overlap, so that each nonzero pixel's oid is its one
    covering entry's; else None. Sorted, the ends never pass the next start iff no
    point is covered twice."""
    starts: list[int] = []
    ends: list[int] = []
    counts: dict[int, int] = {}
    for j, entry in enumerate(typed(per_cam, [list], field)):
        if len(entry) != 2:
            raise invalid(f"{field}[{j}]", "an [oid, runs] pair", entry)
        oid, runs = entry
        if not -2**31 <= typed(oid, int, f"{field}[{j}][0]") < 2**31:
            raise invalid(f"{field}[{j}][0]", "an int32", oid)
        edges = list(accumulate(typed(runs, [int], f"{field}[{j}][1]")))
        if runs and min(runs) < 0:
            raise invalid(f"{field}[{j}][1]", "non-negative run lengths", runs)
        total = edges[-1] if edges else 0
        if total != pixels:
            raise ValueError(f"field '{field}[{j}][1]' must sum to {pixels}, got {total}")
        n = len(runs) & ~1
        starts += edges[0:n:2]
        ends += edges[1:n:2]
        if oid:
            counts[oid] = counts.get(oid, 0) + sum(runs[1::2])
    starts.sort()
    ends.sort()
    if not all(map(le, ends, starts[1:])):
        return None
    return tuple(sorted((oid, n) for oid, n in counts.items() if n))


def _views_from_json(id_maps: list, depth_files: list[str], cameras: list[CameraModel],
                     inside, json_path: str) -> ViewSet:
    for field, entries in (("depth_files", depth_files), ("id_maps", id_maps)):
        if len(entries) != len(cameras):
            raise DatasetReadError(
                json_path, 0, f"{field} has {len(entries)} entries for {len(cameras)} cameras")
    views = []
    for i, (per_cam, depth_file, cam) in enumerate(zip(id_maps, depth_files, cameras)):
        path = inside(depth_file, json_path, f"depth_files[{i}]")
        with open(path, "rb") as f:
            h, w = _depth_shape(f, path)
        if (h, w) != (cam.height, cam.width):
            raise DatasetReadError(
                json_path, 0, f"depth_files[{i}] {depth_file!r} is {w}x{h}, "
                f"its camera {cam.width}x{cam.height}")
        counts = _id_map_counts(per_cam, h * w, f"id_maps[{i}]")
        views.append(_RunsView(path, (h, w), per_cam, counts))
    return ViewSet(views)


def _depth_names(episode: str, keystep: int, cameras: list[CameraModel]) -> list[str]:
    return [f"depth/{episode}_{keystep}_{cam.role}.bin" for cam in cameras]


_RECORD = {"kind": ("plan", "long", "refexp"), "episode": str, "keystep": int, "task": str,
           "group": str, "cameras": [dict], "depth_files": [str], "id_maps": [list],
           "inventory": [list]}
_KEYSTEP = {"instruction": str, "history": [str], "plan_text": str, "gt_plan": dict,
            "pair": ([str], None)}
_REFEXP = {"query": str, "object_id": int, "gt_masks": [dict]}


def _record_to_json(rec) -> dict:
    """The record's JSON: each field of its tables, read from the record or encoded."""
    plan = isinstance(rec, KeystepRecord)
    d = {name: getattr(rec, name, None) for name in (*_RECORD, *(_KEYSTEP if plan else _REFEXP))}
    d.update(cameras=[_camera_to_json(c) for c in rec.cameras],
             depth_files=_depth_names(rec.episode, rec.keystep, rec.cameras),
             id_maps=_id_maps_to_json(rec.views))
    if plan:
        d["gt_plan"] = plan_to_json(rec.gt_plan)
    else:
        d["gt_masks"] = [mask_to_json(m) for m in rec.gt_masks]
    return d


def _record_from_json(d: dict, inside, camera, path: str):
    rec = fields(d, _RECORD)
    plan = rec["kind"] != "refexp"
    rec.update(fields(d, _KEYSTEP if plan else _REFEXP, "", {"pair": None}))
    rec["cameras"] = [camera(c, f"cameras[{i}]") for i, c in enumerate(rec["cameras"])]
    rec["views"] = _views_from_json(rec.pop("id_maps"), rec.pop("depth_files"), rec["cameras"],
                                    inside, path)
    rec["inventory"] = [(typed(oid, int, f"inventory[{j}][0]"),
                         typed(name, str, f"inventory[{j}][1]"))
                        for j, (oid, name) in enumerate(rec["inventory"])]
    if not plan:
        rec["gt_masks"] = [mask_from_json(m, f"gt_masks[{i}]")
                           for i, m in enumerate(rec["gt_masks"])]
        return RefExpRecord(**rec)
    rec.update(history=tuple(rec["history"]), gt_plan=plan_from_json(rec["gt_plan"], "gt_plan"),
               pair=tuple(rec["pair"]) if rec["pair"] else None)
    return KeystepRecord(**rec)


def _record_filename(rec) -> str:
    if isinstance(rec, KeystepRecord):
        return f"records/{rec.episode}_{rec.keystep}.json"
    return f"records/{rec.episode}_{rec.keystep}_obj{rec.object_id}.json"


# -- dataset writing / reading ---------------------------------------------------


def write_dataset(manifest: DatasetManifest, records: Iterable, out_dir: str) -> DatasetManifest:
    """Write records plus manifest; returns the manifest with its file index.

    records is read once, in order, and may be lazy: each record's files are
    written as it is read, into a staging directory beside out_dir. After the
    last record the staged dataset becomes out_dir in one rename, or, where
    out_dir exists already, its files are moved in, the manifest last. If reading or writing a record raises, only the staging
    directory is removed, so out_dir is left as it was."""
    parent, base = os.path.split(os.path.abspath(out_dir))
    os.makedirs(parent, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f".{base}-", dir=parent)
    stage = os.path.join(work, base)
    try:
        for d in (stage, os.path.join(stage, "records"), os.path.join(stage, "depth")):
            os.mkdir(d)
        files: list[str] = []
        depth_written: set[str] = set()
        for rec in records:
            name = _record_filename(rec)
            payload = json.dumps(_record_to_json(rec), sort_keys=True, separators=(",", ":"))
            with open(os.path.join(stage, name), "w") as f:
                f.write(payload)
                f.write("\n")
            files.append(name)
            for depth_name, view in zip(
                _depth_names(rec.episode, rec.keystep, rec.cameras), rec.views
            ):
                if depth_name not in depth_written:
                    write_depth(os.path.join(stage, depth_name), view.depth)
                    depth_written.add(depth_name)
                    files.append(depth_name)
            rec = view = None  # the next record's episode may run before the loop rebinds them
        manifest.files = sorted(files)
        with open(os.path.join(stage, "manifest.json"), "w") as f:
            json.dump(manifest.to_json(), f, sort_keys=True, indent=2)
            f.write("\n")
        if os.path.exists(out_dir):
            for sub in ("records", "depth"):
                os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
            for name in files + ["manifest.json"]:
                os.replace(os.path.join(stage, name), os.path.join(out_dir, name))
        else:
            os.replace(stage, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return manifest


def read_dataset(data_dir: str) -> tuple[DatasetManifest, list]:
    manifest_path = os.path.join(data_dir, "manifest.json")
    manifest = read_json(manifest_path, DatasetManifest.from_json, DatasetReadError)
    inside = _resolver(data_dir)
    camera = _camera_reader()
    records = []
    for i, name in enumerate(manifest.files):
        if name.startswith("records/"):
            path = inside(name, manifest_path, f"files[{i}]")
            records.append(read_json(path, lambda d: _record_from_json(d, inside, camera, path),
                                     DatasetReadError))
    counted = sum(manifest.counts.values())
    if counted != len(records):
        raise DatasetReadError(
            manifest_path, 0,
            f"manifest counts {counted} records, found {len(records)}",
        )
    records.sort(key=lambda r: (r.episode, r.keystep, getattr(r, "object_id", -1)))
    return manifest, records


# -- generators -------------------------------------------------------------------


def _oracle_traces(task: TaskScript, vi: int, episodes_per_variation: int, seed: int,
                   rig: CameraRig):
    """Variation vi's oracle traces, each episode run when the trace is read."""
    for ei in range(episodes_per_variation):
        ep_seed = dataset_episode_seed(seed, vi, ei)
        trace = run_episode(task, ep_seed, oracle_factory, chunk=5, rig=rig, store_views=True)
        if not trace.success:
            sizes = sorted({f"{cam.width}x{cam.height}" for cam in rig.cameras})
            raise RuntimeError(
                f"oracle episode failed: task {task.key} seed {ep_seed} "
                f"({trace.terminal}) at camera resolution {', '.join(sizes)}"
            )
        yield trace
        del trace  # the next episode runs without this one


def _generate(kind, suite, episodes_per_variation, seed, out_dir, groups, id_prefix,
              extract) -> DatasetManifest:
    """Number the episodes and stream their records to `write_dataset`.

    groups yields (manifest count key, per-episode items), each read lazily;
    extract(episode id, item) returns that episode's records and its keystep
    count. write_dataset reads the records one episode at a time, so an
    episode runs, is written and is dropped before the next one runs. The
    manifest's totals are filled in as the records are read, and a key that
    repeats adds up its groups' records.
    """
    manifest = DatasetManifest(
        kind=kind, suite_hash=suite_digest(suite), seed=seed,
        episodes_per_variation=episodes_per_variation, counts={}, total_records=0,
        total_episodes=0, mean_keysteps_per_episode=0.0,
    )

    def records():
        keysteps = 0
        for key, items in groups:
            manifest.counts.setdefault(key, 0)
            for item in items:
                recs, ks = extract(f"{id_prefix}{manifest.total_episodes:05d}", item)
                del item
                manifest.total_episodes += 1
                manifest.counts[key] += len(recs)
                manifest.total_records += len(recs)
                keysteps += ks
                yield from recs
                del recs  # the next episode runs without this one
        if manifest.total_episodes:
            manifest.mean_keysteps_per_episode = keysteps / manifest.total_episodes

    return write_dataset(manifest, records(), out_dir)


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
    rig = default_rig() if rig is None else rig
    groups = ((task.key, _oracle_traces(task, vi, episodes_per_variation, seed, rig))
              for vi, task in enumerate(suite))
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
    rig = default_rig() if rig is None else rig
    groups = ((task.key, _oracle_traces(task, vi, episodes_per_variation, seed, rig))
              for vi, task in enumerate(suite))
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
    prefix = recs_a[-1].history + (history_text(recs_a[-1].gt_plan),) if recs_a else ()
    for rec in recs_b:
        rec.history = prefix + rec.history
        rec.keystep = len(prefix) + rec.keystep
    out = recs_a + recs_b
    for rec in out:
        rec.kind = "long"
        rec.instruction = instruction
        rec.pair = (trace_a.task_key, trace_b.task_key)
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
    groups = _long_groups(suite, episodes_per_variation, seed,
                          default_rig() if rig is None else rig)
    return _generate("long", suite, episodes_per_variation, seed, out_dir, groups, "p",
                     _long_records)


def _long_groups(suite, episodes_per_variation, seed, rig):
    """(count key, pairs) for each variation vi and the next one, unless they
    share a key. A pair is episode ei of both and the pair's seed. Every
    variation's episodes run once, in suite order, even where no pair uses
    them; variation 0's traces are kept for the last variation's pairs."""
    prev = first = list(_oracle_traces(suite[0], 0, episodes_per_variation, seed, rig))
    for vi, task_a in enumerate(suite):
        wi = (vi + 1) % len(suite)
        nxt = first if wi == 0 else list(
            _oracle_traces(suite[wi], wi, episodes_per_variation, seed, rig))
        if task_a.key != suite[wi].key:
            yield f"{task_a.key}|{suite[wi].key}", [
                (a, b, dataset_episode_seed(seed, vi, ei)) for ei, (a, b) in enumerate(zip(prev, nxt))
            ]
        prev = nxt
