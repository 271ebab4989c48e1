"""Open-benchmark subset preparation.

Four deterministic filters, one per benchmark id:
  hle_med             keep subject Medicine, drop image-requiring items
  supergpqa_med_hard  keep difficulty Hard AND field Clinical Medicine
  litqa2              seeded random sample of 25
  trialpanorama_eqa   strip study abstracts from context, keep most recent 50

All filters are idempotent and output ids are a subset of input ids.
"""
from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from biokgr import field, jsonl_lines, read_jsonl

TASK_FAMILIES = (
    "hle_med", "litqa2", "supergpqa_med_hard", "trialpanorama_eqa",
    "target_id", "moa_pathway", "flux", "sample_size", "regimen", "surrogate",
    "ebm_gap",
)

LITQA2_SAMPLE_SIZE = 25
TRIALPANORAMA_KEEP = 50

# Subset sizes observed on the upstream dataset snapshots used when these
# filters were calibrated (HLE / LitQA2 / SuperGPQA / TrialPanorama as of
# their 2025 releases). Recorded as expectations, not hard assertions:
# upstream datasets evolve, so only the filter logic is contractual.
EXPECTED_SNAPSHOT_COUNTS = {
    "hle_med": 30,
    "litqa2": 25,
    "supergpqa_med_hard": 172,
    "trialpanorama_eqa": 50,
}


class UnknownBenchmark(Exception):
    pass


class MissingField(Exception):
    """A raw export record or a bench item that lacks a field or holds one of the wrong type."""


@dataclass
class BenchItem:
    item_id: str
    family: str
    question: dict
    answer_key: list  # single label, label set, or PMID set
    metadata: dict = dataclasses.field(default_factory=dict)

    def validate(self) -> None:
        if self.family not in TASK_FAMILIES:
            raise UnknownBenchmark(f"unknown task family {self.family!r}")
        if not self.answer_key:
            raise ValueError(f"item {self.item_id} has an empty answer key")

    def to_dict(self) -> dict:
        return {
            "id": self.item_id,
            "family": self.family,
            "question": self.question,
            "answer_key": list(self.answer_key),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BenchItem":
        """Raises ValueError naming a field that is absent or of the wrong type."""
        return cls(
            item_id=str(field(payload, "id", (str, int))),
            family=field(payload, "family", str),
            question=dict(field(payload, "question", dict)),
            answer_key=list(field(payload, "answer_key", list)),
            metadata=dict(field(payload, "metadata", dict, {})),
        )


def _item(record: dict, family: str, question: dict, answers, filters: list[str]) -> BenchItem:
    item = BenchItem(
        item_id=str(field(record, "id", (str, int))),
        family=family,
        question=question,
        answer_key=list(answers) if isinstance(answers, (list, tuple, set)) else [answers],
        metadata={"source_benchmark": family, "filters": filters},
    )
    item.validate()
    return item


def prepare_dataset(records: list[dict], benchmark: str, seed: int = 0) -> list[BenchItem]:
    """Apply one benchmark's filter to its raw export records; MissingField if one is malformed."""
    try:
        return _select(records, benchmark, seed)
    except ValueError as exc:
        raise MissingField(f"{benchmark} record {exc}") from exc


def _select(records: list[dict], benchmark: str, seed: int) -> list[BenchItem]:
    if benchmark == "hle_med":
        filters = ["subject == Medicine", "no image required"]
        kept = [
            r for r in records
            if field(r, "subject", str) == "Medicine" and not r.get("image")
        ]
        return [
            _item(r, benchmark, {"text": field(r, "question", str)},
                  field(r, "answer", object), filters)
            for r in kept
        ]

    if benchmark == "supergpqa_med_hard":
        filters = ["difficulty == Hard", "field == Clinical Medicine"]
        kept = [
            r for r in records
            if field(r, "difficulty", str) == "Hard"
            and field(r, "field", str) == "Clinical Medicine"
        ]
        return [
            _item(r, benchmark,
                  {"text": field(r, "question", str), "options": r.get("options", [])},
                  field(r, "answer", object), filters)
            for r in kept
        ]

    if benchmark == "litqa2":
        filters = [f"seeded sample of {LITQA2_SAMPLE_SIZE}"]
        pool = sorted(records, key=lambda r: str(field(r, "id", (str, int))))
        rng = random.Random(seed)
        if len(pool) > LITQA2_SAMPLE_SIZE:
            pool = rng.sample(pool, LITQA2_SAMPLE_SIZE)
            pool.sort(key=lambda r: str(r["id"]))
        return [
            _item(r, benchmark,
                  {"text": field(r, "question", str), "options": r.get("options", [])},
                  field(r, "answer", object), filters)
            for r in pool
        ]

    if benchmark == "trialpanorama_eqa":
        filters = ["abstracts stripped", f"most recent {TRIALPANORAMA_KEEP}"]
        ordered = sorted(
            records,
            key=lambda r: (field(r, "date", str), str(field(r, "id", (str, int)))),
            reverse=True,
        )
        kept = ordered[:TRIALPANORAMA_KEEP]
        items = []
        for r in kept:
            question = {"text": field(r, "question", str), "options": r.get("options", [])}
            # the abstracts stay out of the payload so answering requires search
            items.append(_item(r, benchmark, question, field(r, "answer", object), filters))
        return items

    raise UnknownBenchmark(f"no preparation rule for benchmark {benchmark!r}")


def write_bench_items(items: list[BenchItem], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(jsonl_lines(item.to_dict() for item in items))


def read_bench_items(path) -> list[BenchItem]:
    """Raises MissingField naming the file and row of a line that is not a bench item."""
    try:
        return read_jsonl(path, BenchItem.from_dict)
    except ValueError as exc:
        raise MissingField(str(exc)) from exc
