"""Plan checklists with checkbox rendering.

Steps close only through `PlanChecklist.mark`, which selects an open step, so
a step goes open->done or open->failed once and never changes again. Failed
steps carry a note.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PlanStep:
    text: str
    status: str = "open"  # open | done | failed
    note: str = ""
    hint: str = ""        # machine hint for the default oracle, not rendered


@dataclass
class PlanChecklist:
    steps: list[PlanStep] = field(default_factory=list)

    def mark(self, hint: str, outcome: str = "done", note: str = "") -> bool:
        """Close the first open step hinted `hint` as `outcome` ("done" or "failed").

        With no such step, the first open step is closed when it has no hint;
        otherwise nothing changes. A failed step keeps `note` as its reason.
        Returns whether a step closed.
        """
        open_steps = [step for step in self.steps if step.status == "open"]
        step = next((s for s in open_steps if s.hint == hint), None)
        if step is None and open_steps and not open_steps[0].hint:
            step = open_steps[0]
        if step is None:
            return False
        step.status = outcome
        if outcome == "failed":
            step.note = note or "unspecified failure"
        return True

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
