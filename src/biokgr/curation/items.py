"""Shared multiple-choice item model.

Options carry gain scores (2 best-supported, 1 partially valid, 0 distractor)
and an item's answer set is exactly its gain-2 labels. Items serialize to one
JSON object per line, `{"id", "task_type", "question", "options", "answers",
"metadata"}`: the one item layout, which the EBM gap tasks and `bench prepare`
also write and `bench score` reads.

A curator refuses an input it cannot build an item from with one of four
`Error`s, one per failure mode, defined here for every curator.
"""
from __future__ import annotations

import random
import string
from dataclasses import dataclass, field

from biokgr import Error, write_jsonl


class ItemInvariantError(Exception):
    pass


class InsufficientCandidates(Error):
    """Too few candidates, options or distractors for an item."""


class NoCorrectOption(Error):
    """Too few gain-2 options for an item."""


class TargetNotInPathway(Error):
    """The item's target is not in the pathway data."""


class InsufficientEvidence(Error):
    """The input lacks what an item is built from."""


@dataclass(frozen=True)
class McqOption:
    label: str
    text: str
    gain: int


@dataclass
class McqItem:
    item_id: str
    task_type: str
    question: str
    options: list[McqOption]
    answers: list[str]
    metadata: dict = field(default_factory=dict)

    def validate(self) -> None:
        labels = [o.label for o in self.options]
        expected = list(string.ascii_uppercase[: len(self.options)])
        if labels != expected:
            raise ItemInvariantError(f"labels {labels} are not consecutive letters from A")
        texts = [o.text for o in self.options]
        if len(set(texts)) != len(texts):
            raise ItemInvariantError("option texts are not pairwise distinct")
        gain2 = [o.label for o in self.options if o.gain == 2]
        if not gain2:
            raise ItemInvariantError("item has no gain-2 option")
        if sorted(self.answers) != sorted(gain2):
            raise ItemInvariantError(
                f"answer set {self.answers} != gain-2 labels {gain2}"
            )
        if any(o.gain not in (0, 1, 2) for o in self.options):
            raise ItemInvariantError("gains must be 0, 1, or 2")

    def to_dict(self) -> dict:
        return {
            "id": self.item_id,
            "task_type": self.task_type,
            "question": self.question,
            "options": [
                {"label": o.label, "text": o.text, "gain": o.gain} for o in self.options
            ],
            "answers": list(self.answers),
            "metadata": dict(self.metadata),
        }


def finalize_item(
    item_id: str,
    task_type: str,
    question: str,
    scored_options: list[tuple[str, int]],
    rng: random.Random,
    metadata: dict | None = None,
) -> McqItem:
    """Shuffle (text, gain) pairs jointly, assign letter labels, validate."""
    pairs = list(scored_options)
    rng.shuffle(pairs)
    options = [
        McqOption(label=string.ascii_uppercase[i], text=text, gain=gain)
        for i, (text, gain) in enumerate(pairs)
    ]
    item = McqItem(
        item_id=item_id,
        task_type=task_type,
        question=question,
        options=options,
        answers=[o.label for o in options if o.gain == 2],
        metadata=metadata or {},
    )
    item.validate()
    return item


def write_items_jsonl(items, path) -> None:
    """Write each item's `to_dict()` row (an `McqItem` or an EBM `GapTask`) as one JSON line."""
    write_jsonl(path, (item.to_dict() for item in items))
