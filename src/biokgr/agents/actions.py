"""Typed orchestrator actions, research tasks, agent reports, and their wire format.

Each action class declares its `wire_name` and the `plan_step` (plan hint) it
closes, which keys a subagent's budget; `Halt` closes no step.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import ClassVar, Union, get_args

from biokgr import field
from biokgr.agents.plan import PlanStep
from biokgr.evidence import EntityRef, MergeBatch, Observation, RelationEdge

MAX_REPORT_LINES = 10
_MAX_LISTED_FILES = 5


@dataclass(frozen=True)
class ResearchTask:
    """A delegated search target for one subagent invocation; checked when built."""

    description: str
    entities: tuple[str, ...] = ()
    knowledge_bases: tuple[str, ...] = ()
    budget: int = 3                 # max federation calls
    mode: str = "breadth"           # breadth | depth
    seeds: tuple[str, ...] = ()     # depth mode starting points
    entity_kind: str = "gene"

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("task budget must be >= 1")
        if self.mode == "depth" and not (self.seeds or self.description):
            raise ValueError("depth mode requires seeds or an initial query")


@dataclass
class AgentReport:
    """Subagent deliverable: saved-file manifest plus short findings."""

    files: list[tuple[str, str]] = dataclasses.field(default_factory=list)  # (path, description)
    findings: str = ""
    key_entities: list[str] = dataclasses.field(default_factory=list)       # not rendered

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
    wire_name: ClassVar[str] = "invoke_bfrs"
    plan_step: ClassVar[str] = "bfrs"
    task: ResearchTask


@dataclass(frozen=True)
class InvokeDFRS:
    wire_name: ClassVar[str] = "invoke_dfrs"
    plan_step: ClassVar[str] = "dfrs"
    task: ResearchTask


@dataclass(frozen=True)
class AnalyzeWorkspace:
    wire_name: ClassVar[str] = "analyze_workspace"
    plan_step: ClassVar[str] = "analyze"
    spec: dict


@dataclass(frozen=True)
class UpdateGraph:
    wire_name: ClassVar[str] = "update_graph"
    plan_step: ClassVar[str] = "update_graph"
    batch: MergeBatch


@dataclass(frozen=True)
class RetrieveGraph:
    wire_name: ClassVar[str] = "retrieve_graph"
    plan_step: ClassVar[str] = "retrieve_graph"
    seeds: tuple[str, ...]
    depth: int = 1


@dataclass(frozen=True)
class Finalize:
    wire_name: ClassVar[str] = "finalize"
    plan_step: ClassVar[str] = "finalize"
    answer: str


@dataclass(frozen=True)
class Halt:
    wire_name: ClassVar[str] = "halt"
    reason: str = ""


Action = Union[InvokeBFRS, InvokeDFRS, AnalyzeWorkspace, UpdateGraph, RetrieveGraph, Finalize, Halt]

# wire name -> action type; the wire fields are the dataclass fields
ACTIONS: dict[str, type] = {kind.wire_name: kind for kind in get_args(Action)}
_OPTIONAL_STR = (str, type(None))
_SCALARS = (str, int, float, type(None))


def action_to_dict(action: Action) -> dict:
    """`action`'s wire record: `{"action": wire_name, **dataclasses.asdict(action)}` as JSON
    reads it back, built without copying a leaf; it shares no list or dict with `action`."""
    if type(action) not in ACTIONS.values():
        raise TypeError(f"not an action: {action!r}")
    return {"action": action.wire_name, **_plain(action)}


def _plain(value):
    """`value` in JSON's containers: a dataclass becomes a dict of its fields, a list or
    tuple a new list and a dict a new dict, each item converted the same way; any other
    value is a leaf and is returned as it is (the common leaves are tested first)."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def action_from_dict(payload: dict) -> Action | None:
    """Decode one wire-format action; a missing, 'none' or unknown action maps to None.

    Fields left out take their wire defaults. Raises ValueError when a field
    has the wrong type or a subagent task is invalid.
    """
    kind = ACTIONS.get(field(payload, "action", _OPTIONAL_STR, None))
    if kind in (InvokeBFRS, InvokeDFRS):
        raw = field(payload, "task", dict, {})
        task = ResearchTask(
            description=field(raw, "description", str, ""),
            entities=tuple(field(raw, "entities", list, [], of=str)),
            knowledge_bases=tuple(field(raw, "knowledge_bases", list, [], of=str)),
            budget=field(raw, "budget", int, 1),
            mode="breadth" if kind is InvokeBFRS else "depth",
            seeds=tuple(field(raw, "seeds", list, [], of=str)),
            entity_kind=field(raw, "entity_kind", str, "gene"),
        )
        return kind(task)
    if kind is UpdateGraph:
        raw = field(payload, "batch", dict, {})
        return UpdateGraph(MergeBatch(
            entities=tuple(
                EntityRef(name=field(e, "name", str), kind=field(e, "kind", str, "FINDING"),
                          curie=field(e, "curie", _OPTIONAL_STR, None),
                          source=field(e, "source", str, "oracle"))
                for e in field(raw, "entities", list, [], of=dict)
            ),
            relations=tuple(
                RelationEdge(subject=field(r, "subject", str),
                             predicate=field(r, "predicate", str),
                             object=field(r, "object", str),
                             evidence=tuple(field(r, "evidence", list, [], of=str)),
                             conflict_group=field(r, "conflict_group", _OPTIONAL_STR, None))
                for r in field(raw, "relations", list, [], of=dict)
            ),
            observations=tuple(
                Observation(entity=field(o, "entity", str), text=field(o, "text", str))
                for o in field(raw, "observations", list, [], of=dict)
            ),
            cycle_id=field(raw, "cycle_id", str, ""),
        ))
    if kind is RetrieveGraph:
        return RetrieveGraph(seeds=tuple(field(payload, "seeds", list, [], of=str)),
                             depth=field(payload, "depth", int, 1))
    if kind is AnalyzeWorkspace:
        return AnalyzeWorkspace(spec=dict(field(payload, "spec", dict, {})))
    if kind is Finalize:
        return Finalize(answer=field(payload, "answer", str, ""))
    if kind is Halt:
        return Halt(reason=field(payload, "reason", str, ""))
    return None


def plan_steps_from_dict(payload: dict) -> list[PlanStep]:
    """Decode a wire-format plan's steps; `text` and `hint` default to "".

    Raises ValueError when `steps` is not a list of objects or a field is not
    a string.
    """
    return [PlanStep(text=field(step, "text", str, ""), hint=field(step, "hint", str, ""))
            for step in field(payload, "steps", list, [], of=dict)]
