"""Planners: the ground-truth oracle, dataset replay, and stress wrappers.

Every planner exposes one capability::

    plan(instruction, views, history, inventory) -> (text, mask_stacks)

returning the raw plan surface form plus one stack of K per-view masks per
``<seg>`` token, exactly what the parser consumes. Planners are constructed
per episode through a factory receiving the episode context, so stateful
ground-truth access stays episode-private.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .planlang import (
    DEFAULT_SCHEMA,
    SEG,
    GroundedPlan,
    GroundedReference,
    parse_plan,
    serialize_plan,
)
from .scene import View, ViewSet
from .simulate import Simulation
from .tasks import PlanSlot, TaskScript, predicate_terms

MaskStack = list[np.ndarray]
PlannerOutput = tuple[str, list[MaskStack]]


def _output(plan: GroundedPlan) -> PlannerOutput:
    """A plan as planner output: its text and each reference's mask stack."""
    return serialize_plan(plan), [ref.masks for _, ref in plan.references()]


class Planner(Protocol):
    def plan(
        self,
        instruction: str,
        views: ViewSet,
        history: list[str],
        inventory: list[tuple[int, str]],
    ) -> PlannerOutput: ...


@dataclass
class EpisodeContext:
    """What a planner factory may look at when starting an episode."""

    sim: Simulation | None
    task: TaskScript | None
    seed: int


PlannerFactory = Callable[[EpisodeContext], Planner]


class OraclePlanner:
    """Reads ground truth from the simulator; the performance ceiling.

    Subplan selection is state-driven rather than history-driven: the next
    plan is the first scripted subplan whose effect is not yet observed in
    the scene, so the oracle recovers from partial execution and from
    corrupted steps executed in between.
    """

    def __init__(self, sim: Simulation, task: TaskScript):
        self.sim = sim
        self.task = task

    # -- subplan completion predicates ------------------------------------

    def _downstream_location(self, idx: int) -> str | None:
        for slot in self.task.plan[idx + 1:]:
            if slot.action == "grasp":
                break
            if slot.action == "move grasped object" and slot.location_role:
                return slot.location_role
        return None

    def _rests_on(self, obj, loc_role: str) -> bool:
        loc = self.sim.scene.role_object(loc_role)
        horiz = float(np.linalg.norm((obj.position - loc.position)[:2]))
        return horiz <= 0.05 and abs(obj.bottom_z() - loc.top_z()) <= 0.02

    def _placed(self, obj_role: str, loc_role: str) -> bool:
        scene = self.sim.scene
        obj = scene.role_object(obj_role)
        near3d = float(np.linalg.norm(obj.position - scene.role_object(loc_role).position))
        return self._rests_on(obj, loc_role) or near3d <= 0.05

    def _joint_target(self, role: str) -> float:
        for term in predicate_terms(self.task.success):
            if term["kind"] in ("joint_at_least", "joint_at_most") and term["object"] == role:
                return float(term["threshold"])
        return 0.99

    def _subplan_done(self, idx: int, history: list[str]) -> bool:
        slot = self.task.plan[idx]
        scene, gripper = self.sim.scene, self.sim.gripper
        if slot.action == "grasp":
            target_id = scene.roles[slot.object_role]
            if gripper.held == target_id:
                return True
            loc_role = self._downstream_location(idx)
            return loc_role is not None and self._placed(slot.object_role, loc_role)
        if slot.action == "move grasped object":
            held = gripper.held
            if held is None:
                # Nothing in hand: done only if the moved object already rests
                # at the location (a later release happened or never needed).
                for prev in reversed(self.task.plan[:idx]):
                    if prev.action == "grasp" and prev.object_role:
                        return self._placed(prev.object_role, slot.location_role)
                return False
            obj = scene.object_by_id(held)
            loc = scene.role_object(slot.location_role)
            if loc.bottom_z() > 0.05:  # floating marker: hover at its center
                return float(np.linalg.norm(obj.position - loc.position)) <= 0.06
            horiz = float(np.linalg.norm((obj.position - loc.position)[:2]))
            drop = obj.bottom_z() - loc.top_z()
            # Done once a release would settle the object onto the location.
            over = horiz <= 0.035 and -0.02 <= drop <= 0.06
            return over or self._rests_on(obj, slot.location_role)
        if slot.action == "rotate grasped object":
            text = DEFAULT_SCHEMA["rotate grasped object"].history
            return text in history
        if slot.action == "release":
            for prev in reversed(self.task.plan[:idx]):
                if prev.action == "grasp" and prev.object_role:
                    return gripper.held != scene.roles[prev.object_role]
            return gripper.open
        if slot.action in ("push down", "push forward"):
            obj = scene.role_object(slot.object_role)
            if not hasattr(obj.shape, "fraction"):
                return False
            return obj.shape.fraction >= self._joint_target(slot.object_role)
        return False

    def _next_slot(self, history: list[str]) -> PlanSlot:
        gripper = self.sim.gripper
        for idx, slot in enumerate(self.task.plan):
            if self._subplan_done(idx, history):
                continue
            # Recovery: grasping X while holding something else needs a
            # release first.
            if (
                slot.action == "grasp"
                and gripper.held is not None
                and gripper.held != self.sim.scene.roles[slot.object_role]
            ):
                return PlanSlot(action="release")
            return slot
        return self.task.plan[-1]

    def plan(self, instruction, views, history, inventory) -> PlannerOutput:
        slot = self._next_slot(list(history))
        scene = self.sim.scene
        plan = GroundedPlan(action=slot.action)
        for attr, role in (("object", slot.object_role), ("location", slot.location_role)):
            if role is None:
                continue
            obj = scene.role_object(role)
            setattr(plan, attr, GroundedReference(text=obj.display_name(),
                                                  masks=views.masks_for(obj.id)))
        return _output(plan)


def oracle_factory(ctx: EpisodeContext) -> OraclePlanner:
    return OraclePlanner(ctx.sim, ctx.task)


# -- dataset replay -------------------------------------------------------------


class ReplayPlanner:
    """Replays ground-truth outputs keyed purely on the call inputs.

    Built from a generated plan dataset, this is the offline analog of the
    oracle: on records it was built from it reproduces ground truth exactly,
    which makes it the upper-bound planner for offline evaluation.

    Outputs are bucketed by ``(instruction, tuple(history), counts)``, where
    ``counts`` is each view's `View.id_counts`: its shape and the pixel count
    of each object in its id map. That tells apart the episodes of a variation
    (they repeat its instruction and histories), and a view read from a
    dataset takes it from its id-map runs, so building the planner and
    replaying its records open no depth file and decode no id map. A call
    returns the newest record in its bucket whose views are the same object or
    have byte-equal id and depth frames, so a later record with equal frames
    replaces an earlier one. Frames are read-only, so identity implies equal
    bytes.
    """

    def __init__(self, outputs: dict[tuple, list[tuple[ViewSet, PlannerOutput]]]):
        self._outputs = outputs

    @staticmethod
    def _key(instruction, views, history) -> tuple:
        return instruction, tuple(history), tuple(v.id_counts for v in views)

    @classmethod
    def from_records(cls, records) -> "ReplayPlanner":
        outputs: dict[tuple, list[tuple[ViewSet, PlannerOutput]]] = {}
        for rec in records:
            stacks = [ref.masks for _, ref in rec.gt_plan.references()]
            key = cls._key(rec.instruction, rec.views, rec.history)
            outputs.setdefault(key, []).append((rec.views, (rec.plan_text, stacks)))
        return cls(outputs)

    def plan(self, instruction, views, history, inventory) -> PlannerOutput:
        bucket = self._outputs.get(self._key(instruction, views, history), [])
        for kept, output in reversed(bucket):
            if kept is views or _same_frames(kept, views):
                return output
        raise KeyError(
            "replay planner has no output for this (instruction, history, views) call")


def _same_frames(a: ViewSet, b: ViewSet) -> bool:
    """Whether every id and depth frame of `a` and `b` has equal shape, dtype and
    bytes. Every id map first: a depth frame read from a dataset is a file read."""
    return len(a) == len(b) and all(
        x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for frame in ("ids", "depth")
        for x, y in ((getattr(va, frame), getattr(vb, frame)) for va, vb in zip(a, b))
    )


# -- corruption ------------------------------------------------------------------


@dataclass(frozen=True)
class CorruptionConfig:
    """Independent failure modes injected on top of a base planner."""

    p_wrong_object: float = 0.0
    p_wrong_action: float = 0.0
    p_malformed: float = 0.0
    transient: bool = True
    seed: int = 0

    def __post_init__(self):
        probs = (self.p_wrong_object, self.p_wrong_action, self.p_malformed)
        if any(not 0.0 <= p <= 1.0 for p in probs):
            raise ValueError("probabilities must lie in [0, 1]")
        if sum(probs) > 1.0 + 1e-12:
            raise ValueError("probabilities must sum to at most 1")


_SAME_ARITY = {
    "grasp": ("push down", "push forward", "move grasped object"),
    "push down": ("grasp", "push forward", "move grasped object"),
    "push forward": ("grasp", "push down", "move grasped object"),
    "move grasped object": ("grasp", "push down", "push forward"),
    "release": ("rotate grasped object",),
    "rotate grasped object": ("release",),
}


class CorruptedPlanner:
    """Wraps a planner and randomly degrades its outputs.

    Sticky mode draws the failure mode once per episode; transient mode
    draws independently per call. All randomness flows from the config seed
    plus the episode seed, so corrupted episodes replay bit-identically.
    """

    def __init__(self, base: Planner, cfg: CorruptionConfig, episode_seed: int = 0):
        self.base = base
        self.cfg = cfg
        self.rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed & (2**64 - 1), episode_seed & (2**64 - 1)])
        )
        self._sticky_mode: str | None = None if cfg.transient else self._draw_mode()

    def _draw_mode(self) -> str:
        u = float(self.rng.random())
        if u < self.cfg.p_wrong_object:
            return "wrong_object"
        u -= self.cfg.p_wrong_object
        if u < self.cfg.p_wrong_action:
            return "wrong_action"
        u -= self.cfg.p_wrong_action
        if u < self.cfg.p_malformed:
            return "malformed"
        return "clean"

    def plan(self, instruction, views, history, inventory) -> PlannerOutput:
        text, stacks = self.base.plan(instruction, views, history, inventory)
        mode = self._sticky_mode if self._sticky_mode is not None else self._draw_mode()
        if mode == "clean":
            return text, stacks
        if mode == "malformed":
            return self._malform(text), stacks
        try:
            plan = parse_plan(text, stacks)
        except ValueError:
            return text, stacks  # base output already broken; pass through
        if mode == "wrong_object":
            return self._swap_reference(plan, views, inventory)
        return self._swap_action(plan)

    def _malform(self, text: str) -> str:
        idx = text.rfind(SEG)
        if idx >= 0:
            return text[:idx] + text[idx + len(SEG):]
        return text + " <p> dangling"

    def _swap_reference(self, plan: GroundedPlan, views, inventory) -> PlannerOutput:
        slot = "object" if plan.object is not None else "location"
        ref = getattr(plan, slot)
        candidates = [] if ref is None else [
            (oid, name) for oid, name in inventory if name != ref.text]
        if candidates:
            oid, name = candidates[int(self.rng.integers(0, len(candidates)))]
            setattr(plan, slot, GroundedReference(text=name, masks=views.masks_for(oid)))
        return _output(plan)

    def _swap_action(self, plan: GroundedPlan) -> PlannerOutput:
        options = _SAME_ARITY[plan.action]
        new_action = options[int(self.rng.integers(0, len(options)))]
        refs = [ref for _, ref in plan.references()]
        new_plan = GroundedPlan(action=new_action)
        slots = DEFAULT_SCHEMA[new_action].required
        for slot_name, ref in zip(slots, refs):
            setattr(new_plan, slot_name, ref)
        return _output(new_plan)


def corrupt(base_factory: PlannerFactory, cfg: CorruptionConfig) -> PlannerFactory:
    """Wrap a planner factory with corruption; reproducible per episode."""

    def factory(ctx: EpisodeContext) -> CorruptedPlanner:
        return CorruptedPlanner(base_factory(ctx), cfg, episode_seed=ctx.seed)

    return factory


# -- mask speckle noise ----------------------------------------------------------


class MaskNoisePlanner:
    """Speckles emitted masks in proportion to their area.

    With noise level p, each mask loses a p fraction of its own pixels and
    gains an equal expected number of spurious pixels scattered over the
    view's valid-depth pixels (segmentation spill onto other surfaces).
    Empty masks stay empty.

    Spurious pixels are drawn by inverse-CDF sampling, as
    ``Generator.choice(candidates, p=w)`` does: k uniforms looked up in the
    float64 CDF of the normalised weights, with choice's picks and generator
    state. A view's CDF is built once and shared by every reference. The
    planner holds it weakly keyed on the view, so it lives exactly as long as
    its view: a view the render memo returns again reuses its CDF, and a view
    no one holds takes its CDF with it.
    """

    def __init__(self, base: Planner, noise: float, episode_seed: int = 0, seed: int = 0):
        if not 0.0 <= noise <= 1.0:
            raise ValueError("noise must lie in [0, 1]")
        self.base = base
        self.noise = noise
        # Extra constant keeps this stream distinct from corruption draws.
        self.rng = np.random.default_rng(
            np.random.SeedSequence([seed & (2**64 - 1), episode_seed & (2**64 - 1), 1451])
        )
        self._cdfs: weakref.WeakKeyDictionary[View, np.ndarray] = weakref.WeakKeyDictionary()

    def _cdf(self, view: View, candidates: np.ndarray) -> np.ndarray:
        cdf = self._cdfs.get(view)
        if cdf is not None:
            return cdf
        # Weight by the surface area a pixel covers (~depth^2) so spurious
        # pixels scatter uniformly over scene surfaces instead of piling onto
        # foreshortened nearby objects. choice casts p to float64 before its
        # cumsum, and so does this: a float32 CDF would pick other pixels.
        w = view.depth.ravel()[candidates] ** 2
        w = w / w.sum()
        cdf = np.cumsum(w, dtype=np.float64)
        if not np.isfinite(cdf[-1]):
            raise ValueError("speckle weights must have a finite, positive total")
        cdf /= cdf[-1]
        self._cdfs[view] = cdf
        return cdf

    def _speckle(self, mask: np.ndarray, view: View) -> np.ndarray:
        on = np.flatnonzero(mask)
        if len(on) == 0 or self.noise == 0.0:
            return mask
        out = np.asarray(mask, dtype=bool).copy()
        flat = out.ravel()
        flat[on[self.rng.random(len(on)) < self.noise]] = False
        candidates = view.valid_pixels
        if len(candidates):
            k = int(self.rng.binomial(len(on), self.noise))
            if k:
                cdf = self._cdf(view, candidates)
                flat[candidates[cdf.searchsorted(self.rng.random(k), side="right")]] = True
        return out

    def plan(self, instruction, views, history, inventory) -> PlannerOutput:
        text, stacks = self.base.plan(instruction, views, history, inventory)
        return text, [[self._speckle(m, v) for m, v in zip(stack, views)] for stack in stacks]


def with_mask_noise(base_factory: PlannerFactory, noise: float, seed: int = 0) -> PlannerFactory:
    def factory(ctx: EpisodeContext) -> MaskNoisePlanner:
        return MaskNoisePlanner(base_factory(ctx), noise, episode_seed=ctx.seed, seed=seed)

    return factory
