"""Typed orchestrator actions, research tasks, agent reports, and their wire format."""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Union

from biokgr import field
from biokgr.agents.plan import PlanStep
from biokgr.evidence import EntityRef, MergeBatch, Observation, RelationEdge

MAX_REPORT_LINES = 10
_MAX_LISTED_FILES = 5


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

    files: list[tuple[str, str]] = dataclasses.field(default_factory=list)  # (path, description)
    findings: str = ""
    key_entities: list[str] = dataclasses.field(default_factory=list)       # not rendered
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
    kind = _ACTION_TYPES.get(field(payload, "action", _OPTIONAL_STR, None))
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
        task.validate()
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
