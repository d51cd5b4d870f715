"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see them
on success). The oracle planner defines the upper bound everywhere; all
panels are seeded and deterministic.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from groundplan.datasets import (
    extract_keysteps,
    gen_long_horizon,
    gen_plan_dataset,
    gen_refexp_dataset,
    read_dataset,
    write_dataset,
)
from groundplan.evaluate import eval_offline, eval_online
from groundplan.executor import GroundingConfig, run_episode
from groundplan.geometry import DbscanParams, categorize, dbscan_filter, unproject
from groundplan.objectives import (
    SoftMask,
    TokenDistributionSequence,
    bce_mask,
    cross_entropy,
    dice_loss,
    iou,
)
from groundplan.planlang import (
    DEFAULT_SCHEMA,
    ACTIONS,
    GroundedPlan,
    GroundedReference,
    MalformedMarkup,
    MaskCountMismatch,
    PromptSpec,
    SlotMismatch,
    UnknownAction,
    build_prompt,
    history_text,
    normalize_text,
    parse_plan,
    serialize_plan,
)
from groundplan.planners import (
    CorruptionConfig,
    ReplayPlanner,
    corrupt,
    oracle_factory,
    with_mask_noise,
)
from groundplan.scene import CameraModel, default_rig, look_at
from groundplan.tasks import builtin_suite


def _report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion} {name}: {status}{suffix}")


@pytest.fixture(scope="module")
def suite():
    return builtin_suite()


@pytest.fixture(scope="module")
def reactive_tasks(suite):
    tasks = [t for t in suite if "reactive" in t.tags]
    assert tasks, "shipped suite must tag a reactive subset"
    return tasks


@pytest.fixture(scope="module")
def offline_dataset(tmp_path_factory, suite):
    """Plan dataset at the evaluation protocol scale: full suite x 20 episodes."""
    out = tmp_path_factory.mktemp("acceptance_plan_ds")
    manifest = gen_plan_dataset(
        suite, episodes_per_variation=20, seed=2024, out_dir=str(out)
    )
    assert len(manifest.counts) >= 5
    return str(out)


# -- criterion 1: oracle upper bound, offline ---------------------------------------


def test_criterion_1_offline_oracle_upper_bound(offline_dataset):
    start = time.perf_counter()
    _, records = read_dataset(offline_dataset)
    planner = ReplayPlanner.from_records(records)
    result = eval_offline(records, planner)
    elapsed = time.perf_counter() - start
    exact = all(
        m.act == 100.0 and m.obj == 100.0 and m.grd == 100.0
        for m in result.groups.values()
    )
    ok = exact and elapsed < 60.0
    detail = (
        f"groups={{{', '.join(f'{g}: {m.act:.1f}/{m.obj:.1f}/{m.grd:.1f}' for g, m in sorted(result.groups.items()))}}}"
        f", {elapsed:.1f}s"
    )
    _report(1, "offline oracle upper bound", ok, detail)
    assert exact, detail
    assert elapsed < 60.0, detail


# -- criterion 2: oracle upper bound, online ----------------------------------------


def test_criterion_2_online_oracle_upper_bound(suite):
    start = time.perf_counter()
    result = eval_online(
        suite, oracle_factory, chunk=5, episodes=20, runs=5, seed=77
    )
    elapsed = time.perf_counter() - start
    perfect = all(
        v.mean == 1.0 and v.std == 0.0 for v in result.variations.values()
    )
    ok = perfect and elapsed < 120.0
    worst = min(v.mean for v in result.variations.values())
    detail = f"{len(result.variations)} variations, min mean SR {worst:.2f}, {elapsed:.1f}s"
    _report(2, "online oracle upper bound", ok, detail)
    assert perfect, detail
    assert elapsed < 120.0, detail


# -- criterion 3: gradient suite ------------------------------------------------------


def _central_difference(fn, pred, gt, h=1e-6):
    grad = np.zeros_like(pred)
    for i in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            hi = pred.copy()
            lo = pred.copy()
            hi[i, j] += h
            lo[i, j] -= h
            grad[i, j] = (fn(SoftMask(hi, gt))[0] - fn(SoftMask(lo, gt))[0]) / (2 * h)
    return grad


def test_criterion_3_gradient_suite():
    rng = np.random.default_rng(31)
    worst = {"bce": 0.0, "dice": 0.0}
    for _ in range(100):
        pred = rng.uniform(0.01, 0.99, size=(8, 8))
        gt = (rng.random((8, 8)) < 0.5).astype(float)
        for name, fn in (("bce", bce_mask), ("dice", dice_loss)):
            _, grad = fn(SoftMask(pred, gt))
            num = _central_difference(fn, pred, gt)
            rel = np.abs(grad - num) / np.maximum(np.abs(num), 1e-8)
            worst[name] = max(worst[name], float(rel.max()))
    grads_ok = all(err < 1e-4 for err in worst.values())

    ce_err = 0.0
    for n, vocab in ((1, 2), (5, 7), (12, 31)):
        seq = TokenDistributionSequence(
            probs=np.full((n, vocab), 1.0 / vocab),
            targets=np.zeros(n, dtype=int),
        )
        ce_err = max(ce_err, abs(cross_entropy(seq) - n * math.log(vocab)))
    ce_ok = ce_err < 1e-12

    ok = grads_ok and ce_ok
    detail = (
        f"max rel err bce={worst['bce']:.2e} dice={worst['dice']:.2e}, "
        f"uniform CE err={ce_err:.1e}"
    )
    _report(3, "gradient suite", ok, detail)
    assert grads_ok, detail
    assert ce_ok, detail


# -- criterion 4: geometry suite ------------------------------------------------------


def _random_camera(rng):
    eye = rng.uniform(-1, 1, size=3) + np.array([0.0, 0.0, 1.5])
    rot, t = look_at(eye, rng.uniform(-0.2, 0.2, size=3))
    f = float(rng.uniform(60, 400))
    return CameraModel(
        fx=f, fy=f * float(rng.uniform(0.8, 1.25)),
        cx=float(rng.uniform(24, 40)), cy=float(rng.uniform(24, 40)),
        width=64, height=64, rotation=rot, translation=t, role="r",
    )


def _brute_dbscan_keep(points, eps, min_pts):
    n = len(points)
    neighbors = [
        {j for j in range(n) if np.linalg.norm(points[i] - points[j]) <= eps}
        for i in range(n)
    ]
    core = [len(neighbors[i]) >= min_pts for i in range(n)]
    keep = set()
    for i in range(n):
        if core[i] or any(core[j] for j in neighbors[i]):
            keep.add(i)
    return keep


def test_criterion_4_geometry_suite():
    rng = np.random.default_rng(41)
    # Unproject/project roundtrip over 1000 random (camera, pixel, depth).
    worst_px = 0.0
    samples = 0
    while samples < 1000:
        cam = _random_camera(rng)
        k = min(25, 1000 - samples)
        depth = np.zeros((64, 64), dtype=np.float32)
        mask = np.zeros((64, 64), dtype=bool)
        vs = rng.integers(0, 64, size=k)
        us = rng.integers(0, 64, size=k)
        depth[vs, us] = rng.uniform(0.2, 3.0, size=k).astype(np.float32)
        mask[vs, us] = True
        pts = unproject(depth, mask, cam)
        pixels = sorted(set(zip(vs.tolist(), us.tolist())))
        samples += len(pixels)
        for (v, u), p in zip(pixels, pts):
            q = cam.rotation @ p + cam.translation  # independent projection
            u2 = cam.fx * q[0] / q[2] + cam.cx
            v2 = cam.fy * q[1] / q[2] + cam.cy
            worst_px = max(worst_px, abs(u2 - u), abs(v2 - v))
    roundtrip_ok = worst_px < 0.5

    # DBSCAN vs brute force on 100 random clouds of <= 100 points.
    dbscan_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 101))
        pts = rng.uniform(-0.1, 0.1, size=(n, 3))
        eps = float(rng.uniform(0.01, 0.06))
        min_pts = int(rng.integers(1, 8))
        keep = _brute_dbscan_keep(pts, eps, min_pts)
        got = dbscan_filter(pts, DbscanParams(eps=eps, min_pts=min_pts))
        expected = {tuple(pts[i]) for i in keep}
        dbscan_ok &= {tuple(p) for p in got} == expected

    # categorize partitions every cloud.
    partition_ok = True
    for _ in range(50):
        obj = rng.uniform(-0.1, 0.1, size=(int(rng.integers(0, 20)), 3))
        loc = rng.uniform(-0.1, 0.1, size=(int(rng.integers(0, 20)), 3))
        scene = rng.uniform(-0.1, 0.1, size=(int(rng.integers(0, 40)), 3))
        cloud = categorize(
            {"object": obj, "location": loc}, scene,
            gripper_position=rng.uniform(-0.1, 0.1, size=3),
        )
        total = len(obj) + len(loc) + len(scene)
        partition_ok &= len(cloud) == total
        partition_ok &= bool(np.all((cloud.labels >= 0) & (cloud.labels <= 3)))

    ok = roundtrip_ok and dbscan_ok and partition_ok
    detail = f"roundtrip worst {worst_px:.3f}px, dbscan={dbscan_ok}, partition={partition_ok}"
    _report(4, "geometry suite", ok, detail)
    assert roundtrip_ok and dbscan_ok and partition_ok, detail


# -- criterion 5: parser suite ---------------------------------------------------------


REFERENCE_PROMPT = (
    "<image>\n<image>\n<image>\n<image>\n"
    "You are a skilled assistant for robot task planning in tabletop "
    "environments. You can perform the following actions: grasp, "
    "move grasped object, rotate grasped object, push down, push forward, "
    "and release."
    " Task: screw the light bulb from the rose holder into the lamp."
    " You have completed the following action plans: grasp the rose light bulb."
    " Please generate the next action plan."
)


def test_criterion_5_parser_suite():
    rng = np.random.default_rng(51)
    words = ("red", "navy", "block", "cup", "lamp", "holder", "light bulb")

    roundtrip_ok = True
    for _ in range(1000):
        action = ACTIONS[rng.integers(0, len(ACTIONS))]
        spec = DEFAULT_SCHEMA[action]
        slots = list(spec.required)
        if spec.optional and rng.random() < 0.5:
            slots += list(spec.optional)
        plan = GroundedPlan(action)
        for slot in slots:
            text = words[rng.integers(0, len(words))]
            masks = [rng.random((5, 5)) < 0.4 for _ in range(4)]
            setattr(plan, slot, GroundedReference(text, masks))
        back = parse_plan(
            serialize_plan(plan), [r.masks for _, r in plan.references()]
        )
        roundtrip_ok &= back.action == plan.action
        for (sa, ra), (sb, rb) in zip(back.references(), plan.references()):
            roundtrip_ok &= sa == sb
            roundtrip_ok &= normalize_text(ra.text) == normalize_text(rb.text)
            roundtrip_ok &= all(
                np.array_equal(ma, mb) for ma, mb in zip(ra.masks, rb.masks)
            )

    example = parse_plan(
        "Move the grasped object to <p> lamp </p><seg>.",
        [[np.zeros((4, 4), dtype=bool)] * 4],
    )
    example_ok = (
        example.action == "move grasped object"
        and example.location is not None
        and example.location.text == "lamp"
        and example.object is None
    )

    errors_ok = True
    cases = (
        ("Pick up <p> a </p><seg>.", 1, UnknownAction),
        ("Grasp <p> a </p>.", 1, MalformedMarkup),
        ("Grasp.", 0, SlotMismatch),
        ("Grasp <p> a </p><seg>.", 0, MaskCountMismatch),
    )
    for text, stacks, expected in cases:
        try:
            parse_plan(text, [[np.zeros((2, 2), dtype=bool)]] * stacks)
            errors_ok = False
        except expected:
            pass
        except Exception:
            errors_ok = False

    prompt = build_prompt(PromptSpec(
        num_views=4,
        instruction="screw the light bulb from the rose holder into the lamp",
        history=("grasp the rose light bulb",),
    ))
    prompt_ok = prompt == REFERENCE_PROMPT

    ok = roundtrip_ok and example_ok and errors_ok and prompt_ok
    detail = (
        f"roundtrip={roundtrip_ok}, example={example_ok}, "
        f"errors={errors_ok}, prompt={prompt_ok}"
    )
    _report(5, "parser suite", ok, detail)
    assert ok, detail


# -- criterion 6: dataset suite ---------------------------------------------------------


def test_criterion_6_dataset_suite(tmp_path_factory, suite):
    import hashlib
    import os

    rig = default_rig(resolution=96)
    sub = suite[:3]

    def digest(root):
        h = hashlib.sha256()
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                h.update(open(path, "rb").read())
        return h.hexdigest()

    a = tmp_path_factory.mktemp("det_a")
    b = tmp_path_factory.mktemp("det_b")
    gen_plan_dataset(sub, 3, 99, str(a), rig=rig)
    gen_plan_dataset(sub, 3, 99, str(b), rig=rig)
    determinism_ok = digest(a) == digest(b)

    # Tuple counts match an independent recount of keysteps per episode.
    manifest, records = read_dataset(str(a))
    per_episode = {}
    for rec in records:
        per_episode.setdefault(rec.episode, set()).add(rec.keystep)
    counts_ok = manifest.total_records == sum(len(v) for v in per_episode.values())
    plan_counts_ok = all(
        sorted(v) == list(range(len(v))) for v in per_episode.values()
    )

    refexp_dir = tmp_path_factory.mktemp("refexp")
    refexp_manifest = gen_refexp_dataset(sub, 2, 5, str(refexp_dir), rig=rig)
    _, refexp_records = read_dataset(str(refexp_dir))
    recount = {}
    for rec in refexp_records:
        key = (rec.episode, rec.keystep)
        if key not in recount:
            visible = set()
            for view in rec.views:
                visible |= {int(i) for i in np.unique(view.ids) if i != 0}
            recount[key] = len(visible & {oid for oid, _ in rec.inventory})
    refexp_ok = refexp_manifest.total_records == sum(recount.values())

    telescope_ok = True
    by_episode = {}
    for rec in records:
        by_episode.setdefault(rec.episode, []).append(rec)
    for recs in by_episode.values():
        recs.sort(key=lambda r: r.keystep)
        for prev, cur in zip(recs, recs[1:]):
            telescope_ok &= list(cur.history) == list(prev.history) + [
                history_text(prev.gt_plan)
            ]

    rt_dir = tmp_path_factory.mktemp("roundtrip")
    write_dataset(manifest, records, str(rt_dir))
    manifest2, records2 = read_dataset(str(rt_dir))
    roundtrip_ok = manifest2.to_json() == manifest.to_json()
    for x, y in zip(records, records2):
        roundtrip_ok &= x.plan_text == y.plan_text and x.history == y.history
        roundtrip_ok &= all(
            np.array_equal(vx.depth, vy.depth) and np.array_equal(vx.ids, vy.ids)
            for vx, vy in zip(x.views, y.views)
        )

    trace_a = run_episode(suite[0], 1, oracle_factory, chunk=5, rig=rig,
                          store_views=True)
    trace_b = run_episode(suite[2], 1, oracle_factory, chunk=5, rig=rig,
                          store_views=True)
    n_a = len(extract_keysteps(trace_a))
    n_b = len(extract_keysteps(trace_b))
    long_records = gen_long_horizon(trace_a, trace_b, seed=3)
    long_ok = len(long_records) == n_a + n_b
    long_ok &= len(long_records[n_a].history) == n_a
    long_ok &= all(r.keystep == i for i, r in enumerate(long_records))
    long_ok &= all(len(r.history) == r.keystep for r in long_records)

    ok = (determinism_ok and counts_ok and plan_counts_ok and refexp_ok
          and telescope_ok and roundtrip_ok and long_ok)
    detail = (
        f"determinism={determinism_ok}, counts={counts_ok and plan_counts_ok}, "
        f"refexp={refexp_ok}, telescope={telescope_ok}, "
        f"roundtrip={roundtrip_ok}, long={long_ok}"
    )
    _report(6, "dataset suite", ok, detail)
    assert ok, detail


# -- criterion 7: chunking behavior -----------------------------------------------------


PANEL_SEEDS = range(100)


def test_criterion_7_chunking_behavior(reactive_tasks):
    cfg = CorruptionConfig(p_wrong_object=0.3, transient=True, seed=11)
    corrupted = corrupt(oracle_factory, cfg)

    results = {}
    corrupted_calls = {1: 0, 5: 0}
    corrupted_c5 = {}  # (task, seed) -> success; the planner is seeded per episode
    for chunk in (1, 5):
        wins = total = 0
        for task in reactive_tasks:
            for seed in PANEL_SEEDS:
                trace = run_episode(task, seed, corrupted, chunk=chunk)
                wins += trace.success
                total += 1
                corrupted_calls[chunk] += trace.planner_calls
                if chunk == 5:
                    corrupted_c5[task.key, seed] = trace.success
        results[chunk] = wins / total

    # Per-paired-episode call comparison on oracle episodes, where both
    # chunk settings walk the same subplan sequence (loop arithmetic);
    # corrupted trajectories diverge, so there the aggregate is compared.
    calls_ok = True
    oracle_sr = {}
    corrupted_sr = {}
    for task in reactive_tasks:
        o_wins = c_wins = 0
        for seed in PANEL_SEEDS:
            o1 = run_episode(task, seed, oracle_factory, chunk=1)
            o5 = run_episode(task, seed, oracle_factory, chunk=5)
            calls_ok &= o1.planner_calls >= o5.planner_calls
            o_wins += o5.success
            c_wins += corrupted_c5[task.key, seed]
        oracle_sr[task.key] = o_wins / len(PANEL_SEEDS)
        corrupted_sr[task.key] = c_wins / len(PANEL_SEEDS)

    sr_ok = results[1] >= results[5]
    calls_ok = calls_ok and corrupted_calls[1] > corrupted_calls[5]
    pairwise_ok = all(
        corrupted_sr[key] < oracle_sr[key] for key in oracle_sr
    )
    ok = sr_ok and calls_ok and pairwise_ok
    detail = (
        f"SR c1={results[1]:.3f} >= c5={results[5]:.3f}: {sr_ok}, "
        f"paired calls: {calls_ok}, corrupted<oracle per task: {pairwise_ok}"
    )
    _report(7, "chunking behavior", ok, detail)
    assert sr_ok, detail
    assert calls_ok, detail
    assert pairwise_ok, detail


# -- criterion 8: 3D filtering ablation ---------------------------------------------------


def test_criterion_8_filter_ablation(reactive_tasks):
    # Filter parameters matched to the 5 mm fusion voxel pitch; identical in
    # both noise arms, only the enable flag varies.
    params = DbscanParams(eps=0.008, min_pts=5)
    seeds = range(12)

    def panel_sr(noise, enabled):
        factory = with_mask_noise(oracle_factory, noise, seed=3)
        grounding = GroundingConfig(dbscan_enabled=enabled, dbscan=params)
        wins = total = 0
        for task in reactive_tasks:
            for seed in seeds:
                trace = run_episode(task, seed, factory, chunk=5,
                                    grounding=grounding)
                wins += trace.success
                total += 1
        return wins / total

    benefit_low = panel_sr(0.02, True) - panel_sr(0.02, False)
    benefit_high = panel_sr(0.20, True) - panel_sr(0.20, False)
    ok = benefit_low < benefit_high
    detail = f"filter benefit at 2%: {benefit_low:+.3f}, at 20%: {benefit_high:+.3f}"
    _report(8, "3d filtering ablation", ok, detail)
    assert ok, detail
