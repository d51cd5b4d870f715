"""The interleaved plan language.

A plan is a short imperative sentence whose object/location references are
wrapped in ``<p> ... </p>`` delimiters, each immediately followed by a
``<seg>`` token that pairs the reference with a stack of per-view binary
masks. This module owns prompt construction, strict parsing of planner
output into structured plans, the inverse serialization, and the text
normalization used for exact-match scoring.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .jsonfile import fields
from .masks import mask_from_json, mask_to_json

SEG = "<seg>"
P_OPEN = "<p>"
P_CLOSE = "</p>"
_SPECIAL_TOKENS = (P_OPEN, P_CLOSE, SEG)

ACTIONS = (
    "grasp",
    "move grasped object",
    "rotate grasped object",
    "push down",
    "push forward",
    "release",
)

_SYSTEM_SENTENCE = (
    "You are a skilled assistant for robot task planning in tabletop "
    "environments. You can perform the following actions: grasp, "
    "move grasped object, rotate grasped object, push down, push forward, "
    "and release."
)

_ARTICLES = frozenset({"the", "a", "an"})
_CONNECTIVES = frozenset({"to", "at", "onto", "into", "on", "in"})


class PlanParseError(ValueError):
    """Base class for all plan parsing failures."""


class UnknownAction(PlanParseError):
    pass


class MalformedMarkup(PlanParseError):
    pass


class SlotMismatch(PlanParseError):
    pass


class MaskCountMismatch(PlanParseError):
    pass


@dataclass
class GroundedReference:
    """An object or location description plus one binary mask per camera."""

    text: str
    masks: list[np.ndarray] = field(default_factory=list)


@dataclass
class GroundedPlan:
    """One planning step: an action with optional grounded references."""

    action: str
    object: GroundedReference | None = None
    location: GroundedReference | None = None

    def references(self) -> list[tuple[str, GroundedReference]]:
        out = []
        if self.object is not None:
            out.append(("object", self.object))
        if self.location is not None:
            out.append(("location", self.location))
        return out


@dataclass(frozen=True)
class ActionSpec:
    """Slot layout and surface templates for one action."""

    required: tuple[str, ...]
    optional: tuple[str, ...] = ()
    surface: str = ""
    surface_optional: str | None = None
    history: str = ""
    history_optional: str | None = None


# Slot assignment per action. The object slot always binds before the
# location slot; editing this table redefines the plan grammar.
DEFAULT_SCHEMA: dict[str, ActionSpec] = {
    "grasp": ActionSpec(
        required=("object",),
        surface="Grasp <p> {object} </p><seg>.",
        history="grasp the {object}",
    ),
    "move grasped object": ActionSpec(
        required=("location",),
        surface="Move the grasped object to <p> {location} </p><seg>.",
        history="move the grasped object to {location}",
    ),
    "rotate grasped object": ActionSpec(
        required=(),
        surface="Rotate the grasped object.",
        history="rotate the grasped object",
    ),
    "push down": ActionSpec(
        required=("object",),
        surface="Push down <p> {object} </p><seg>.",
        history="push down the {object}",
    ),
    "push forward": ActionSpec(
        required=("object",),
        surface="Push forward <p> {object} </p><seg>.",
        history="push forward the {object}",
    ),
    "release": ActionSpec(
        required=(),
        optional=("location",),
        surface="Release.",
        surface_optional="Release at <p> {location} </p><seg>.",
        history="release",
        history_optional="release at {location}",
    ),
}


@dataclass(frozen=True)
class PromptSpec:
    """Inputs for one planner prompt: view count, instruction, history."""

    num_views: int
    instruction: str
    history: tuple[str, ...] = ()

    def __post_init__(self):
        if self.num_views < 1:
            raise ValueError("num_views must be >= 1")
        for h in self.history:
            if any(tok in h for tok in _SPECIAL_TOKENS):
                raise ValueError(f"history entry contains special tokens: {h!r}")


def build_prompt(spec: PromptSpec) -> str:
    """Render the byte-deterministic planner prompt."""
    parts = ["<image>\n" * spec.num_views, _SYSTEM_SENTENCE]
    parts.append(f" Task: {spec.instruction}.")
    if spec.history:
        joined = " ".join(f"{h}." for h in spec.history)
        parts.append(f" You have completed the following action plans: {joined}")
    parts.append(" Please generate the next action plan.")
    return "".join(parts)


def normalize_text(s: str) -> str:
    """Normalization applied to both sides of exact-match comparisons.

    Lowercases, collapses whitespace, strips leading articles and trailing
    periods. Idempotent.
    """
    s = " ".join(s.lower().split())
    while s.endswith("."):
        s = s[:-1].rstrip()
    tokens = s.split()
    while tokens and tokens[0] in _ARTICLES:
        tokens.pop(0)
    return " ".join(tokens)


def _match_action(head: str) -> str:
    tokens = [t for t in head.lower().split() if t not in _ARTICLES]
    while tokens and tokens[-1] in _CONNECTIVES:
        tokens.pop()
    action = " ".join(tokens)
    if action not in DEFAULT_SCHEMA:
        raise UnknownAction(f"unrecognized action text: {head!r}")
    return action


_TOKEN_RE = re.compile("|".join(re.escape(t) for t in (P_CLOSE, P_OPEN, SEG)))


def _scan_markup(text: str) -> tuple[str, list[str]]:
    """Validate markup structure; return (head text, reference spans)."""
    spans: list[str] = []
    head: str | None = None
    pos = 0
    state = "text"  # text | span | need_seg
    span_start = 0
    for m in _TOKEN_RE.finditer(text):
        tok = m.group(0)
        if state == "text":
            if tok == P_OPEN:
                if head is None:
                    head = text[:m.start()]
                elif text[pos:m.start()].strip():
                    raise MalformedMarkup(
                        f"unexpected text between references: {text[pos:m.start()]!r}"
                    )
                state = "span"
                span_start = m.end()
            else:
                raise MalformedMarkup(f"{tok!r} without preceding {P_OPEN!r}")
        elif state == "span":
            if tok == P_CLOSE:
                spans.append(text[span_start:m.start()].strip())
                state = "need_seg"
            else:
                raise MalformedMarkup(f"{tok!r} inside an open reference span")
        elif state == "need_seg":
            if tok == SEG and not text[pos:m.start()].strip():
                state = "text"
            else:
                raise MalformedMarkup(f"{P_CLOSE!r} must be followed by {SEG!r}")
        pos = m.end()
    if state == "span":
        raise MalformedMarkup(f"{P_OPEN!r} without closing {P_CLOSE!r}")
    if state == "need_seg":
        raise MalformedMarkup(f"{P_CLOSE!r} must be followed by {SEG!r}")
    tail = text[pos:] if head is not None else ""
    if head is None:
        head = text
    if tail.strip() not in ("", "."):
        raise MalformedMarkup(f"trailing text after references: {tail!r}")
    return head, spans


def parse_plan(text: str, mask_stacks: list[list[np.ndarray]]) -> GroundedPlan:
    """Parse a raw plan string plus its per-``<seg>`` mask stacks.

    Raises UnknownAction, MalformedMarkup, SlotMismatch or
    MaskCountMismatch; never returns a partial plan.
    """
    head, spans = _scan_markup(text)
    head = head.strip()
    if not spans:
        # A refless plan may end with a period that belongs to the sentence.
        if head.endswith("."):
            head = head[:-1].rstrip()
    action = _match_action(head)
    spec = DEFAULT_SCHEMA[action]
    n_req, n_opt = len(spec.required), len(spec.optional)
    if not (n_req <= len(spans) <= n_req + n_opt):
        raise SlotMismatch(
            f"action {action!r} takes {n_req}"
            + (f"..{n_req + n_opt}" if n_opt else "")
            + f" references, got {len(spans)}"
        )
    if len(mask_stacks) != len(spans):
        raise MaskCountMismatch(
            f"{len(spans)} {SEG!r} tokens but {len(mask_stacks)} mask stacks"
        )
    slots = (spec.required + spec.optional)[: len(spans)]
    plan = GroundedPlan(action=action)
    for slot, span, stack in zip(slots, spans, mask_stacks):
        ref = GroundedReference(text=span, masks=list(stack))
        setattr(plan, slot, ref)
    return plan


def serialize_plan(plan: GroundedPlan) -> str:
    """Canonical surface form; parse_plan inverts it up to normalization."""
    spec = DEFAULT_SCHEMA[plan.action]
    _check_slots(plan, spec)
    fields = {slot: ref.text for slot, ref in plan.references()}
    if spec.surface_optional is not None and len(fields) > len(spec.required):
        return spec.surface_optional.format(**fields)
    return spec.surface.format(**fields)


def history_text(plan: GroundedPlan) -> str:
    """Plain-text rendering of an executed plan for prompt history."""
    spec = DEFAULT_SCHEMA[plan.action]
    _check_slots(plan, spec)
    fields = {slot: ref.text for slot, ref in plan.references()}
    if spec.history_optional is not None and len(fields) > len(spec.required):
        template = spec.history_optional
    else:
        template = spec.history
    return template.format(**fields).lower()


def _check_slots(plan: GroundedPlan, spec: ActionSpec) -> None:
    present = {slot for slot, _ in plan.references()}
    required = set(spec.required)
    allowed = required | set(spec.optional)
    if not required <= present or not present <= allowed:
        raise SlotMismatch(
            f"action {plan.action!r} requires slots {sorted(required)}, "
            f"allows {sorted(allowed)}, got {sorted(present)}"
        )


def plan_to_json(plan: GroundedPlan) -> dict:
    """JSON-friendly plan with RLE-encoded masks."""

    def ref_json(ref: GroundedReference | None):
        if ref is None:
            return None
        return {"text": ref.text, "masks": [mask_to_json(m) for m in ref.masks]}

    return {
        "action": plan.action,
        "object": ref_json(plan.object),
        "location": ref_json(plan.location),
    }


_PLAN = {"action": str, "object": (dict, None), "location": (dict, None)}
_REFERENCE = {"text": str, "masks": [dict]}


def plan_from_json(obj: dict, path: str = "plan") -> GroundedPlan:
    """The plan in JSON object obj at field path `path`; errors name the field."""
    plan = fields(obj, _PLAN, path, {"object": None, "location": None})
    for slot in ("object", "location"):
        if plan[slot] is not None:
            at = f"{path}.{slot}"
            ref = fields(plan[slot], _REFERENCE, at)
            plan[slot] = GroundedReference(ref["text"], [
                mask_from_json(m, f"{at}.masks[{i}]") for i, m in enumerate(ref["masks"])])
    return GroundedPlan(**plan)
