"""Uniform scoring of predictions over all task families.

Items are the rows every curator and `bench prepare` write, `{"id",
"task_type", "question", "options", "answers", "metadata"}`; an item's
family is its `task_type`. Single-answer items score exact-match 0/1;
multi-answer items score precision/recall/F1 against the label set; EBM gap
items (`ebm_gap`, whose answers are PMIDs) delegate to the gap curator's
recall@30 scoring. Unparseable predictions degrade to zero with a malformed
flag rather than erroring. A family whose items are all single-answer
aggregates to accuracy; one with any multi-answer item to mean precision,
recall and F1, where an exact-match item counts its score as all three, so
the aggregate does not depend on item order.
"""
from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from biokgr import (Error, WorkspaceUnavailable, field, read_jsonl, unique_id, write_jsonl,
                    writing)
from biokgr.bench.prepare import MissingField
from biokgr.curation import ebm

MULTI_ANSWER_FAMILIES = {"target_id", "flux", "surrogate"}
EBM_FAMILY = "ebm_gap"


class UnmatchedItemId(Error):
    pass


@dataclass
class SuiteReport:
    rows: list[dict]
    aggregates: dict
    metadata: dict = dataclasses.field(default_factory=dict)


def _parse_labels(prediction) -> list[str]:
    if prediction is None:
        return []
    if isinstance(prediction, (list, tuple, set)):
        return [str(p).strip().upper() for p in prediction if str(p).strip()]
    text = str(prediction).strip()
    if not text:
        return []
    parts = [p.strip().upper() for p in text.replace(";", ",").split(",")]
    return [p for p in parts if p]


def parse_pmids(prediction) -> list[int]:
    values = prediction if isinstance(prediction, (list, tuple)) else (
        str(prediction).replace(";", ",").split(",")
    )
    pmids = []
    for value in values:
        token = str(value).strip().removeprefix("PMID:")
        if token.isdigit():
            pmids.append(int(token))
    return pmids


def read_items(path) -> list[dict]:
    """The item rows of a JSON-lines file.

    Raises MissingField naming the file and row of a line that is not JSON,
    whose `id` is not a string or integer or repeats an earlier row's, whose
    `task_type` or `question` is not a string, or whose `answers` is not a
    non-empty list (of integers, for `ebm_gap`).
    """
    seen: set[str] = set()

    def read(row):
        item_id = str(field(row, "id", (str, int)))
        task_type = field(row, "task_type", str)
        field(row, "question", str)
        answers = field(row, "answers", list, of=int if task_type == EBM_FAMILY else object)
        if not answers:
            raise ValueError("field 'answers' is empty")
        unique_id(item_id, seen)
        return row

    try:
        return read_jsonl(path, read)
    except ValueError as exc:
        raise MissingField(str(exc)) from exc


def score_item(item: dict, prediction) -> dict:
    """Score one prediction against an item row; malformed input scores zero with a flag."""
    family = item["task_type"]
    if family == EBM_FAMILY:
        truth = frozenset(item["answers"])
        ranked = parse_pmids(prediction)
        if not ranked:
            return {"score": 0.0, "gap_detected": False, "recall_at_k": 0.0,
                    "malformed": True}
        result = ebm.score_predictions(ranked, truth)
        return {"score": result["recall_at_k"], "gap_detected": result["gap_detected"],
                "recall_at_k": result["recall_at_k"], "malformed": False}

    predicted = _parse_labels(prediction)
    key = [str(k).strip().upper() for k in item["answers"]]
    if not predicted:
        base = {"score": 0.0, "malformed": True}
        if family in MULTI_ANSWER_FAMILIES or len(key) > 1:
            base.update({"precision": 0.0, "recall": 0.0, "f1": 0.0})
        return base

    if family in MULTI_ANSWER_FAMILIES or len(key) > 1:
        predicted_set, key_set = set(predicted), set(key)
        hit = len(predicted_set & key_set)
        precision = hit / len(predicted_set) if predicted_set else 0.0
        recall = hit / len(key_set) if key_set else 0.0
        f1 = (2 * precision * recall / (precision + recall)) if (precision + recall) else 0.0
        return {"score": f1, "precision": precision, "recall": recall, "f1": f1,
                "malformed": False}

    exact = 1.0 if predicted[0] == key[0] else 0.0
    return {"score": exact, "exact_match": exact, "malformed": False}


def load_predictions(path) -> dict:
    """JSONL `{id, prediction}` rows keyed by item id.

    Raises MissingField naming the file and row of a line that is not JSON, or
    whose `id` is absent, not a string or integer, or repeats an earlier row's.
    """
    seen: set[str] = set()

    def read(row):
        return unique_id(str(field(row, "id", (str, int))), seen), row.get("prediction")

    try:
        return dict(read_jsonl(path, read))
    except ValueError as exc:
        raise MissingField(str(exc)) from exc


def run_suite(items: list[dict], predictions: dict) -> SuiteReport:
    """Score every item row and compute per-family aggregates."""
    known_ids = {str(item["id"]) for item in items}
    for pred_id in predictions:
        if pred_id not in known_ids:
            raise UnmatchedItemId(f"prediction references unknown item id {pred_id!r}")

    rows = []
    for item in items:
        item_id = str(item["id"])
        components = score_item(item, predictions.get(item_id))
        rows.append({
            "id": item_id,
            "family": item["task_type"],
            "prediction": predictions.get(item_id),
            **components,
        })

    aggregates: dict = {}
    for family in sorted({row["family"] for row in rows}):
        family_rows = [row for row in rows if row["family"] == family]
        n = len(family_rows)
        if family == EBM_FAMILY:
            aggregates[family] = {
                "n": n,
                "gap_detection_rate": sum(r["gap_detected"] for r in family_rows) / n,
                "mean_recall_at_30": sum(r["recall_at_k"] for r in family_rows) / n,
            }
        elif any("f1" in r for r in family_rows):
            # an exact-match row's score is its precision, recall and F1
            aggregates[family] = {"n": n, **{
                f"mean_{name}": sum(r.get(name, r["score"]) for r in family_rows) / n
                for name in ("precision", "recall", "f1")}}
        else:
            aggregates[family] = {
                "n": n,
                "accuracy": sum(r["score"] for r in family_rows) / n,
            }
    return SuiteReport(rows=rows, aggregates=aggregates,
                       metadata={"items": len(items)})


def write_report(report: SuiteReport, directory) -> dict:
    """Write `report.jsonl` and `report.md` under `directory`; raises `WorkspaceUnavailable`."""
    jsonl_path = os.path.join(directory, "report.jsonl")
    md_path = os.path.join(directory, "report.md")
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise WorkspaceUnavailable(f"cannot write report under {directory}: {exc}") from exc
    write_jsonl(jsonl_path, report.rows)
    with writing(md_path) as fh:
        fh.write("# Benchmark suite report\n\n")
        fh.write(f"{report.metadata.get('items', len(report.rows))} items scored\n\n")
        for family, stats in report.aggregates.items():
            pretty = ", ".join(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
                               for k, v in stats.items())
            fh.write(f"- **{family}**: {pretty}\n")
    return {"jsonl": jsonl_path, "md": md_path}
