"""Plan checklists with checkbox rendering.

Status transitions form a DAG: open->done and open->failed only. Failed steps
carry a note.
"""
from __future__ import annotations

from dataclasses import dataclass, field


class InvalidStep(Exception):
    pass


@dataclass
class PlanStep:
    text: str
    status: str = "open"  # open | done | failed
    note: str = ""
    hint: str = ""        # machine hint for the default oracle, not rendered


@dataclass
class PlanChecklist:
    steps: list[PlanStep] = field(default_factory=list)

    def first_open(self) -> int | None:
        for i, step in enumerate(self.steps):
            if step.status == "open":
                return i
        return None

    def render(self) -> str:
        marks = {"open": "[ ]", "done": "[v]", "failed": "[x]"}
        lines = []
        for i, step in enumerate(self.steps, start=1):
            suffix = ""
            if step.status == "done":
                suffix = " (completed)"
            elif step.status == "failed":
                suffix = f" (failed: {step.note})"
            lines.append(f"{i}. {marks[step.status]} {step.text}{suffix}")
        return "\n".join(lines)

    def signature(self) -> tuple:
        return tuple((s.status, s.text) for s in self.steps)


def update_plan(
    plan: PlanChecklist,
    index: int,
    outcome: str,
    note: str = "",
) -> PlanChecklist:
    """Mark one step done or failed; a failed step keeps `note` as its reason."""
    if not 0 <= index < len(plan.steps):
        raise InvalidStep(f"step index {index} out of range")
    if outcome not in ("done", "failed"):
        raise InvalidStep(f"outcome must be done or failed, got {outcome!r}")
    step = plan.steps[index]
    if step.status == outcome:
        return plan  # idempotent re-mark
    if step.status != "open":
        raise InvalidStep(
            f"step {index} is {step.status}; only open steps can change status"
        )
    step.status = outcome
    if outcome == "failed":
        step.note = note or "unspecified failure"
    return plan
