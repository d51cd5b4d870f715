"""Offline and online evaluation protocols plus report rendering.

Offline: replay a plan dataset through a planner with ground-truth history
and score action accuracy, object-name accuracy (exact match after
normalization) and grounding mean-IoU, aggregated per generalization group.

Online: run seeded closed-loop episodes per task variation, several runs of
several episodes each, and report mean success rate with the population
standard deviation across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .executor import GroundingConfig, run_episode
from .jsonfile import fields
from .objectives import iou
from .planlang import PlanParseError, normalize_text, parse_plan
from .planners import Planner, PlannerFactory
from .scene import CameraRig
from .seeds import episode_seed
from .tasks import TaskScript


@dataclass
class KeystepScore:
    episode: str
    keystep: int
    task: str
    group: str
    act: float
    obj: float
    grd: float
    error: str | None = None


@dataclass
class GroupMetrics:
    act: float
    obj: float
    grd: float
    keysteps: int


@dataclass
class OfflineResult:
    groups: dict[str, GroupMetrics]
    rows: list[KeystepScore] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "type": "offline",
            "groups": {g: dict(vars(m)) for g, m in sorted(self.groups.items())},
            "rows": [dict(vars(r)) for r in self.rows],
        }

    @classmethod
    def from_json(cls, d: dict) -> "OfflineResult":
        d = fields(d, {"groups": dict, "rows": [dict]})
        groups = {g: GroupMetrics(**fields(m, _GROUP, f"groups.{g}"))
                  for g, m in d["groups"].items()}
        rows = [KeystepScore(**fields(r, _ROW, f"rows[{i}]", {"error": None}))
                for i, r in enumerate(d["rows"])]
        return cls(groups=groups, rows=rows)


_GROUP = {"act": float, "obj": float, "grd": float, "keysteps": int}
_VARIATION = {"runs": [float], "mean": float, "std": float}
_ROW = {"episode": str, "keystep": int, "task": str, "group": str, "act": float, "obj": float,
        "grd": float, "error": (str, None)}


@dataclass
class VariationResult:
    runs: list[float]

    @property
    def mean(self) -> float:
        return float(np.mean(self.runs))

    @property
    def std(self) -> float:
        return float(np.std(self.runs))  # population std across runs


@dataclass
class OnlineResult:
    variations: dict[str, VariationResult]

    def to_json(self) -> dict:
        return {
            "type": "online",
            "variations": {
                k: {"runs": v.runs, "mean": v.mean, "std": v.std}
                for k, v in sorted(self.variations.items())
            },
        }

    @classmethod
    def from_json(cls, d: dict) -> "OnlineResult":
        return cls(variations={
            k: VariationResult(fields(v, _VARIATION, f"variations.{k}")["runs"])
            for k, v in fields(d, {"variations": dict})["variations"].items()
        })


def score_keystep(rec, planner: Planner) -> KeystepScore:
    """Score one keystep record against a planner's output."""
    zero = dict(episode=rec.episode, keystep=rec.keystep, task=rec.task,
                group=rec.group, act=0.0, obj=0.0, grd=0.0)
    try:
        text, stacks = planner.plan(
            rec.instruction, rec.views, list(rec.history), rec.inventory
        )
    except Exception as e:  # a crashing planner scores zero, like a failed run
        return KeystepScore(**zero, error=f"{type(e).__name__}: {e}")
    try:
        pred = parse_plan(text, stacks)
    except PlanParseError as e:
        return KeystepScore(**zero, error=f"{type(e).__name__}: {e}")

    gt = rec.gt_plan
    act = 100.0 if normalize_text(pred.action) == normalize_text(gt.action) else 0.0

    obj_ok = True
    ious: list[float] = []
    for slot, gt_ref in gt.references():
        pred_ref = getattr(pred, slot)
        if pred_ref is None:
            obj_ok = False
            ious.extend(0.0 for _ in gt_ref.masks)
            continue
        if normalize_text(pred_ref.text) != normalize_text(gt_ref.text):
            obj_ok = False
        for gt_mask, pred_mask in zip(gt_ref.masks, pred_ref.masks):
            try:
                ious.append(iou(pred_mask, gt_mask))
            except ValueError:
                ious.append(0.0)
    grd = 100.0 * float(np.mean(ious)) if ious else 100.0
    return KeystepScore(
        episode=rec.episode, keystep=rec.keystep, task=rec.task, group=rec.group,
        act=act, obj=100.0 if obj_ok else 0.0, grd=grd,
    )


def eval_offline(records, planner: Planner) -> OfflineResult:
    """Evaluate a planner over the records of a plan dataset."""
    rows = [score_keystep(rec, planner) for rec in records]
    rows.sort(key=lambda r: (r.episode, r.keystep))
    groups: dict[str, GroupMetrics] = {}
    for g in sorted({r.group for r in rows}):
        sub = [r for r in rows if r.group == g]
        groups[g] = GroupMetrics(
            act=float(np.mean([r.act for r in sub])),
            obj=float(np.mean([r.obj for r in sub])),
            grd=float(np.mean([r.grd for r in sub])),
            keysteps=len(sub),
        )
    return OfflineResult(groups=groups, rows=rows)


# -- online -------------------------------------------------------------------


def eval_online(
    suite: list[TaskScript],
    planner_factory: PlannerFactory,
    chunk: int = 5,
    episodes: int = 20,
    runs: int = 5,
    seed: int = 0,
    rig: CameraRig | None = None,
    grounding: GroundingConfig = GroundingConfig(),
) -> OnlineResult:
    """Seeded task-completion evaluation; bit-reproducible for fixed inputs."""
    for name, count in (("episodes", episodes), ("runs", runs)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    variations: dict[str, VariationResult] = {}
    for vi, task in enumerate(suite):
        run_srs = []
        for run in range(runs):
            successes = 0
            for ep in range(episodes):
                trace = run_episode(
                    task,
                    episode_seed(seed, vi, run, ep),
                    planner_factory,
                    chunk=chunk,
                    rig=rig,
                    grounding=grounding,
                )
                successes += int(trace.success)
            run_srs.append(successes / episodes)
        variations[task.key] = VariationResult(runs=run_srs)
    return OnlineResult(variations=variations)


# -- reports --------------------------------------------------------------------


def _offline_table(result: OfflineResult) -> str:
    lines = [f"{'group':<8}{'keysteps':>9}{'Act':>8}{'Obj':>8}{'Grd':>8}"]
    for g, m in sorted(result.groups.items()):
        lines.append(
            f"{g:<8}{m.keysteps:>9}{m.act:>8.1f}{m.obj:>8.1f}{m.grd:>8.1f}"
        )
    return "\n".join(lines)


def _online_table(result: OnlineResult) -> str:
    lines = [f"{'variation':<24}{'SR':>12}"]
    for key, v in sorted(result.variations.items()):
        cell = f"{v.mean * 100:.1f}±{v.std * 100:.1f}"
        lines.append(f"{key:<24}{cell:>12}")
    return "\n".join(lines)


def _offline_csv(result: OfflineResult) -> str:
    lines = ["group,keysteps,act,obj,grd"]
    for g, m in sorted(result.groups.items()):
        lines.append(f"{g},{m.keysteps},{m.act:.6f},{m.obj:.6f},{m.grd:.6f}")
    return "\n".join(lines)


def _online_csv(result: OnlineResult) -> str:
    lines = ["variation,mean,std,runs"]
    for key, v in sorted(result.variations.items()):
        runs = ";".join(f"{r:.6f}" for r in v.runs)
        lines.append(f"{key},{v.mean:.6f},{v.std:.6f},{runs}")
    return "\n".join(lines)


def render_report(result, fmt: str = "table") -> str:
    """Render an Offline/OnlineResult as a table, JSON, or CSV."""
    if fmt == "json":
        return json.dumps(result.to_json(), indent=2, sort_keys=True, allow_nan=False)
    if fmt == "csv":
        return (_offline_csv if isinstance(result, OfflineResult) else _online_csv)(result)
    if fmt == "table":
        return (_offline_table if isinstance(result, OfflineResult) else _online_table)(result)
    raise ValueError(f"unknown report format {fmt!r}")


def result_from_json(d: dict):
    kind = fields(d, {"type": ("offline", "online")})["type"]
    return (OfflineResult if kind == "offline" else OnlineResult).from_json(d)
