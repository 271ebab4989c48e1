"""Typed orchestrator actions, research tasks, agent reports, and their wire format."""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Union

from biokgr.agents.plan import PlanStep
from biokgr.evidence import EntityRef, MergeBatch, Observation, RelationEdge

MAX_REPORT_LINES = 10
_MAX_LISTED_FILES = 5


class BudgetExhausted(Exception):
    pass


@dataclass(frozen=True)
class ResearchTask:
    """A delegated search target for one subagent invocation."""

    description: str
    entities: tuple[str, ...] = ()
    knowledge_bases: tuple[str, ...] = ()
    budget: int = 3                 # max federation invocations
    mode: str = "breadth"           # breadth | depth
    seeds: tuple[str, ...] = ()     # depth mode starting points
    entity_kind: str = "gene"

    def validate(self) -> None:
        if self.budget < 1:
            raise ValueError("task budget must be >= 1")
        if self.mode not in ("breadth", "depth"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "depth" and not (self.seeds or self.description):
            raise ValueError("depth mode requires seeds or an initial query")


@dataclass
class AgentReport:
    """Subagent deliverable: saved-file manifest plus short findings."""

    files: list[tuple[str, str]] = field(default_factory=list)  # (path, description)
    findings: str = ""
    key_entities: list[str] = field(default_factory=list)       # not rendered
    invocations: int = 0

    def render(self) -> str:
        lines = ["# Files saved:"]
        listed = self.files[:_MAX_LISTED_FILES]
        if len(self.files) > _MAX_LISTED_FILES:
            listed = self.files[: _MAX_LISTED_FILES - 1]
        for path, description in listed:
            lines.append(f"- {path}: {description}")
        if len(self.files) > _MAX_LISTED_FILES:
            lines.append(f"- (+{len(self.files) - len(listed)} more files; see manifest.json)")
        if not self.files:
            lines.append("- (none)")
        lines.append("")
        lines.append("Main findings:")
        findings = self.findings.strip() or "No findings."
        lines.extend(findings.splitlines()[:2])
        text = "\n".join(lines)
        assert len(text.splitlines()) <= MAX_REPORT_LINES
        return text


@dataclass(frozen=True)
class InvokeBFRS:
    task: ResearchTask


@dataclass(frozen=True)
class InvokeDFRS:
    task: ResearchTask


@dataclass(frozen=True)
class AnalyzeWorkspace:
    spec: dict


@dataclass(frozen=True)
class UpdateGraph:
    batch: MergeBatch


@dataclass(frozen=True)
class RetrieveGraph:
    seeds: tuple[str, ...]
    depth: int = 1


@dataclass(frozen=True)
class Finalize:
    answer: str


@dataclass(frozen=True)
class Halt:
    reason: str = ""


Action = Union[InvokeBFRS, InvokeDFRS, AnalyzeWorkspace, UpdateGraph, RetrieveGraph, Finalize, Halt]


# Every action's wire name; the wire fields are the dataclass fields.
ACTION_NAMES: dict[type, str] = {
    InvokeBFRS: "invoke_bfrs",
    InvokeDFRS: "invoke_dfrs",
    AnalyzeWorkspace: "analyze_workspace",
    UpdateGraph: "update_graph",
    RetrieveGraph: "retrieve_graph",
    Finalize: "finalize",
    Halt: "halt",
}
_ACTION_TYPES = {name: kind for kind, name in ACTION_NAMES.items()}
_OPTIONAL_STR = (str, type(None))


def action_to_dict(action: Action) -> dict:
    name = ACTION_NAMES.get(type(action))
    if name is None:
        raise TypeError(f"not an action: {action!r}")
    return {"action": name, **dataclasses.asdict(action)}


def action_from_dict(payload: dict) -> Action | None:
    """Decode one wire-format action; a missing, 'none' or unknown action maps to None.

    Fields left out take their wire defaults. Raises ValueError when a field
    has the wrong type or a subagent task fails `ResearchTask.validate`.
    """
    kind = _ACTION_TYPES.get(_get(payload, "action", _OPTIONAL_STR))
    if kind in (InvokeBFRS, InvokeDFRS):
        raw = _get(payload, "task", dict, {})
        task = ResearchTask(
            description=_get(raw, "description", str, ""),
            entities=tuple(_items(raw, "entities", str)),
            knowledge_bases=tuple(_items(raw, "knowledge_bases", str)),
            budget=_get(raw, "budget", int, 1),
            mode="breadth" if kind is InvokeBFRS else "depth",
            seeds=tuple(_items(raw, "seeds", str)),
            entity_kind=_get(raw, "entity_kind", str, "gene"),
        )
        task.validate()
        return kind(task)
    if kind is UpdateGraph:
        raw = _get(payload, "batch", dict, {})
        return UpdateGraph(MergeBatch(
            entities=tuple(
                EntityRef(name=_get(e, "name", str), kind=_get(e, "kind", str, "FINDING"),
                          curie=_get(e, "curie", _OPTIONAL_STR),
                          source=_get(e, "source", str, "oracle"))
                for e in _items(raw, "entities", dict)
            ),
            relations=tuple(
                RelationEdge(subject=_get(r, "subject", str), predicate=_get(r, "predicate", str),
                             object=_get(r, "object", str),
                             evidence=tuple(_items(r, "evidence", str)),
                             conflict_group=_get(r, "conflict_group", _OPTIONAL_STR))
                for r in _items(raw, "relations", dict)
            ),
            observations=tuple(
                Observation(entity=_get(o, "entity", str), text=_get(o, "text", str))
                for o in _items(raw, "observations", dict)
            ),
            cycle_id=_get(raw, "cycle_id", str, ""),
        ))
    if kind is RetrieveGraph:
        return RetrieveGraph(seeds=tuple(_items(payload, "seeds", str)),
                             depth=_get(payload, "depth", int, 1))
    if kind is AnalyzeWorkspace:
        return AnalyzeWorkspace(spec=dict(_get(payload, "spec", dict, {})))
    if kind is Finalize:
        return Finalize(answer=_get(payload, "answer", str, ""))
    if kind is Halt:
        return Halt(reason=_get(payload, "reason", str, ""))
    return None


def plan_steps_from_dict(payload: dict) -> list[PlanStep]:
    """Decode a wire-format plan's steps; `text` and `hint` default to "".

    Raises ValueError when `steps` is not a list of objects or a field is not
    a string.
    """
    return [PlanStep(text=_get(step, "text", str, ""), hint=_get(step, "hint", str, ""))
            for step in _items(payload, "steps", dict)]


def _get(raw: dict, key: str, types, default=None):
    """`raw[key]`, or `default` when absent; ValueError unless it is one of `types`.

    A field without a default is required: its None default fails the check.
    """
    value = raw.get(key, default)
    # bool is an int subclass, but never a count or a depth
    if not isinstance(value, types) or (isinstance(value, bool) and types is int):
        raise ValueError(f"field {key!r} is missing or has the wrong type: {value!r}")
    return value


def _items(raw: dict, key: str, item_type: type) -> list:
    values = _get(raw, key, list, [])
    if not all(isinstance(v, item_type) for v in values):
        raise ValueError(f"field {key!r} must list {item_type.__name__} values: {values!r}")
    return values
