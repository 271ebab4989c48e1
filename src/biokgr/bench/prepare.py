"""Open-benchmark subset preparation.

Four deterministic filters, one per benchmark id:
  hle_med             keep subject Medicine, drop image-requiring items
  supergpqa_med_hard  keep difficulty Hard AND field Clinical Medicine
  litqa2              seeded random sample of 25
  trialpanorama_eqa   strip study abstracts from context, keep most recent 50

All filters are idempotent and output ids are a subset of input ids. Each kept
record becomes one item row, `{"id", "task_type", "question", "options",
"answers", "metadata"}`, the layout every curator writes and `bench score`
reads; `task_type` is the benchmark id.
"""
from __future__ import annotations

import random

from biokgr import Error, field

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


class UnknownBenchmark(Error):
    pass


class MissingField(Error):
    """A malformed row of a benchmark input file (an export, items or predictions file)."""


def _item(record: dict, benchmark: str, filters: list[str]) -> dict:
    item_id = str(field(record, "id", (str, int)))
    question = field(record, "question", str)
    # no other export field is copied: TrialPanorama's abstracts stay out, so answering
    # requires search
    options = field(record, "options", list, [])
    answer = field(record, "answer", (str, int, list))
    answers = (list(field(record, "answer", list, of=(str, int))) if isinstance(answer, list)
               else [answer])
    if not answers:
        raise ValueError(f"{item_id!r} has an empty 'answer'")
    return {"id": item_id, "task_type": benchmark, "question": question, "options": options,
            "answers": answers,
            "metadata": {"source_benchmark": benchmark, "filters": filters}}


def prepare_dataset(records: list[dict], benchmark: str, seed: int = 0) -> list[dict]:
    """Apply one benchmark's filter to its raw export records; MissingField if one is malformed."""
    try:
        return _select(records, benchmark, seed)
    except ValueError as exc:
        raise MissingField(f"{benchmark} record {exc}") from exc


def _select(records: list[dict], benchmark: str, seed: int) -> list[dict]:
    if benchmark == "hle_med":
        filters = ["subject == Medicine", "no image required"]
        kept = [
            r for r in records
            if field(r, "subject", str) == "Medicine" and not r.get("image")
        ]
    elif benchmark == "supergpqa_med_hard":
        filters = ["difficulty == Hard", "field == Clinical Medicine"]
        kept = [
            r for r in records
            if field(r, "difficulty", str) == "Hard"
            and field(r, "field", str) == "Clinical Medicine"
        ]
    elif benchmark == "litqa2":
        filters = [f"seeded sample of {LITQA2_SAMPLE_SIZE}"]
        kept = sorted(records, key=lambda r: str(field(r, "id", (str, int))))
        rng = random.Random(seed)
        if len(kept) > LITQA2_SAMPLE_SIZE:
            kept = rng.sample(kept, LITQA2_SAMPLE_SIZE)
            kept.sort(key=lambda r: str(r["id"]))
    elif benchmark == "trialpanorama_eqa":
        filters = ["abstracts stripped", f"most recent {TRIALPANORAMA_KEEP}"]
        ordered = sorted(
            records,
            key=lambda r: (field(r, "date", str), str(field(r, "id", (str, int)))),
            reverse=True,
        )
        kept = ordered[:TRIALPANORAMA_KEEP]
    else:
        raise UnknownBenchmark(f"no preparation rule for benchmark {benchmark!r}")
    return [_item(r, benchmark, filters) for r in kept]
