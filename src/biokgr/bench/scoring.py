"""Uniform scoring of predictions over all task families.

Single-answer items score exact-match 0/1; multi-answer items score
precision/recall/F1 against the label set; EBM gap items delegate to the gap
curator's recall@30 scoring. Unparseable predictions degrade to zero with a
malformed flag rather than erroring.
"""
from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from biokgr import field, jsonl_lines, read_jsonl
from biokgr.bench.prepare import BenchItem
from biokgr.curation import ebm

MULTI_ANSWER_FAMILIES = {"target_id", "moa_pathway", "flux", "surrogate"}
EBM_FAMILY = "ebm_gap"


class PredictionsNotFound(Exception):
    pass


class UnmatchedItemId(Exception):
    pass


class MalformedPrediction(Exception):
    """A predictions row that is not JSON, not an object, or has no string or integer `id`."""


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


def score_item(item: BenchItem, prediction) -> dict:
    """Score one prediction; malformed input scores zero with a flag."""
    if item.family == EBM_FAMILY:
        truth = frozenset(int(p) for p in item.answer_key)
        ranked = parse_pmids(prediction)
        if not ranked:
            return {"score": 0.0, "gap_detected": False, "recall_at_k": 0.0,
                    "malformed": True}
        result = ebm.score_predictions(ranked, truth)
        return {"score": result["recall_at_k"], "gap_detected": result["gap_detected"],
                "recall_at_k": result["recall_at_k"], "malformed": False}

    predicted = _parse_labels(prediction)
    key = [str(k).strip().upper() for k in item.answer_key]
    if not predicted:
        base = {"score": 0.0, "malformed": True}
        if item.family in MULTI_ANSWER_FAMILIES or len(key) > 1:
            base.update({"precision": 0.0, "recall": 0.0, "f1": 0.0})
        return base

    if item.family in MULTI_ANSWER_FAMILIES or len(key) > 1:
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
    """JSONL `{id, prediction}` rows keyed by item id; a row without an id is malformed."""
    if not os.path.exists(path):
        raise PredictionsNotFound(f"predictions file {path} not found")
    try:
        return dict(read_jsonl(path, lambda row: (str(field(row, "id", (str, int))),
                                                  row.get("prediction"))))
    except ValueError as exc:
        raise MalformedPrediction(str(exc)) from exc


def run_suite(items: list[BenchItem], predictions: dict) -> SuiteReport:
    """Score every item and compute per-family aggregates."""
    known_ids = {item.item_id for item in items}
    for pred_id in predictions:
        if pred_id not in known_ids:
            raise UnmatchedItemId(f"prediction references unknown item id {pred_id!r}")

    rows = []
    for item in items:
        components = score_item(item, predictions.get(item.item_id))
        rows.append({
            "id": item.item_id,
            "family": item.family,
            "prediction": predictions.get(item.item_id),
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
        elif "f1" in family_rows[0]:
            aggregates[family] = {
                "n": n,
                "mean_precision": sum(r.get("precision", 0.0) for r in family_rows) / n,
                "mean_recall": sum(r.get("recall", 0.0) for r in family_rows) / n,
                "mean_f1": sum(r.get("f1", 0.0) for r in family_rows) / n,
            }
        else:
            aggregates[family] = {
                "n": n,
                "accuracy": sum(r["score"] for r in family_rows) / n,
            }
    return SuiteReport(rows=rows, aggregates=aggregates,
                       metadata={"items": len(items)})


def write_report(report: SuiteReport, directory) -> dict:
    os.makedirs(directory, exist_ok=True)
    jsonl_path = os.path.join(directory, "report.jsonl")
    md_path = os.path.join(directory, "report.md")
    with open(jsonl_path, "w", encoding="utf-8") as fh:
        fh.writelines(jsonl_lines(report.rows))
    with open(md_path, "w", encoding="utf-8") as fh:
        fh.write("# Benchmark suite report\n\n")
        fh.write(f"{report.metadata.get('items', len(report.rows))} items scored\n\n")
        for family, stats in report.aggregates.items():
            pretty = ", ".join(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
                               for k, v in stats.items())
            fh.write(f"- **{family}**: {pretty}\n")
    return {"jsonl": jsonl_path, "md": md_path}
