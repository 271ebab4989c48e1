"""Benchmark preparation filters and scoring harness."""
import json
from pathlib import Path

import pytest

from biokgr import write_jsonl
from biokgr.bench import (
    EXPECTED_SNAPSHOT_COUNTS,
    MissingField,
    UnknownBenchmark,
    load_predictions,
    prepare_dataset,
    read_items,
    run_suite,
    score_item,
)
from biokgr.bench.scoring import UnmatchedItemId, write_report


# -- snapshot-shaped raw exports --------------------------------------------------

def hle_snapshot():
    """Synthetic export shaped like the calibration snapshot: exactly 30
    Medicine items without images, among distractors."""
    records = []
    for i in range(30):
        records.append({"id": f"hle-med-{i}", "subject": "Medicine", "image": "",
                        "question": f"q{i}", "answer": "A"})
    for i in range(12):
        records.append({"id": f"hle-medimg-{i}", "subject": "Medicine",
                        "image": "img.png", "question": "q", "answer": "B"})
    for i in range(20):
        records.append({"id": f"hle-other-{i}", "subject": "Physics", "image": "",
                        "question": "q", "answer": "C"})
    return records


def supergpqa_snapshot():
    records = []
    for i in range(172):
        records.append({"id": f"sg-hard-{i}", "difficulty": "Hard",
                        "field": "Clinical Medicine", "question": "q", "answer": "A",
                        "options": ["A", "B"]})
    for i in range(40):
        records.append({"id": f"sg-easy-{i}", "difficulty": "Easy",
                        "field": "Clinical Medicine", "question": "q", "answer": "A"})
    for i in range(25):
        records.append({"id": f"sg-hardother-{i}", "difficulty": "Hard",
                        "field": "Genetics", "question": "q", "answer": "A"})
    return records


def litqa2_snapshot(n=60):
    return [{"id": f"lit-{i}", "question": f"q{i}", "answer": "A",
             "options": ["A", "B"]} for i in range(n)]


def trialpanorama_snapshot(n=80):
    # abstracts live in a separate field that preparation must not copy over
    return [
        {"id": f"tp-{i}", "date": f"2025-{(i % 12) + 1:02d}-{(i % 27) + 1:02d}",
         "question": f"Which option is best supported for topic {i}?",
         "options": ["A", "B", "C"], "answer": "B",
         "abstracts": [f"UNIQUEABSTRACTTEXT{i} methods and results"]}
        for i in range(n)
    ]


# -- preparation -----------------------------------------------------------------

def test_hle_filter_counts():
    items = prepare_dataset(hle_snapshot(), "hle_med")
    assert len(items) == EXPECTED_SNAPSHOT_COUNTS["hle_med"]
    assert all(i["task_type"] == "hle_med" for i in items)


def test_supergpqa_filter_counts():
    items = prepare_dataset(supergpqa_snapshot(), "supergpqa_med_hard")
    assert len(items) == EXPECTED_SNAPSHOT_COUNTS["supergpqa_med_hard"]


def test_litqa2_seeded_sample():
    items = prepare_dataset(litqa2_snapshot(), "litqa2", seed=13)
    again = prepare_dataset(litqa2_snapshot(), "litqa2", seed=13)
    other = prepare_dataset(litqa2_snapshot(), "litqa2", seed=14)
    assert len(items) == EXPECTED_SNAPSHOT_COUNTS["litqa2"]
    assert [i["id"] for i in items] == [i["id"] for i in again]
    assert [i["id"] for i in items] != [i["id"] for i in other]


def test_trialpanorama_keeps_most_recent_50():
    items = prepare_dataset(trialpanorama_snapshot(), "trialpanorama_eqa")
    assert len(items) == EXPECTED_SNAPSHOT_COUNTS["trialpanorama_eqa"]


def test_trialpanorama_strips_abstracts():
    records = trialpanorama_snapshot()
    items = prepare_dataset(records, "trialpanorama_eqa")
    kept_ids = {i["id"] for i in items}
    for record in records:
        if record["id"] not in kept_ids:
            continue
        payload = json.dumps(next(i for i in items if i["id"] == record["id"]))
        for abstract in record["abstracts"]:
            assert abstract not in payload
            assert abstract.split()[0] not in payload


def test_filters_idempotent_and_subset():
    records = hle_snapshot()
    items = prepare_dataset(records, "hle_med")
    ids = {i["id"] for i in items}
    assert ids <= {r["id"] for r in records}
    # feeding the kept records back through changes nothing
    kept_records = [r for r in records if r["id"] in ids]
    again = prepare_dataset(kept_records, "hle_med")
    assert {i["id"] for i in again} == ids


def test_unknown_benchmark_and_missing_field():
    with pytest.raises(UnknownBenchmark):
        prepare_dataset([], "nope")
    with pytest.raises(MissingField):
        prepare_dataset([{"id": "x"}], "hle_med")


def test_items_jsonl_roundtrip(tmp_path):
    items = prepare_dataset(hle_snapshot(), "hle_med")
    path = tmp_path / "items.jsonl"
    write_jsonl(path, items)
    loaded = read_items(path)
    assert loaded == items


# -- scoring -----------------------------------------------------------------------

def row(item_id, task_type, answers):
    return {"id": item_id, "task_type": task_type, "question": "q", "options": [],
            "answers": list(answers), "metadata": {}}


def single(item_id="s1", key="B"):
    return row(item_id, "hle_med", [key])


def multi(item_id="m1", key=("B", "C", "H")):
    return row(item_id, "surrogate", key)


def test_single_answer_exact_match():
    assert score_item(single(), "B")["score"] == 1.0
    assert score_item(single(), "b")["score"] == 1.0
    assert score_item(single(), "C")["score"] == 0.0


def test_multi_answer_prf():
    result = score_item(multi(), ["B", "C"])
    assert result["precision"] == pytest.approx(1.0)
    assert result["recall"] == pytest.approx(2 / 3)
    assert result["f1"] == pytest.approx(0.8)


def test_f1_boundary_properties():
    perfect = score_item(multi(), ["B", "C", "H"])
    assert perfect["f1"] == 1.0
    disjoint = score_item(multi(), ["A"])
    assert disjoint["f1"] == 0.0 and disjoint["precision"] == 0.0


def test_empty_prediction_flagged():
    result = score_item(single(), "")
    assert result["score"] == 0.0 and result["malformed"]


def test_ebm_scoring_delegates():
    item = row("e1", "ebm_gap", [100, 200, 300, 400])
    result = score_item(item, ["PMID:100", "999", "200"])
    assert result["gap_detected"] is True
    assert result["recall_at_k"] == pytest.approx(0.5)


def test_run_suite_aggregates(tmp_path):
    items = [single("s1"), single("s2"), multi("m1")]
    predictions = {"s1": "B", "s2": "A", "m1": ["B", "C"]}
    report = run_suite(items, predictions)
    assert report.aggregates["hle_med"]["accuracy"] == pytest.approx(0.5)
    assert report.aggregates["surrogate"]["mean_f1"] == pytest.approx(0.8)
    paths = write_report(report, tmp_path)
    assert "hle_med" in Path(paths["md"]).read_text(encoding="utf-8")
    lines = Path(paths["jsonl"]).read_text(encoding="utf-8").splitlines()
    rows = [json.loads(l) for l in lines]
    assert len(rows) == 3


def test_aggregates_equal_row_means():
    items = [single(f"s{i}") for i in range(7)]
    predictions = {f"s{i}": ("B" if i % 2 else "A") for i in range(7)}
    report = run_suite(items, predictions)
    mean = sum(r["score"] for r in report.rows) / len(report.rows)
    assert abs(report.aggregates["hle_med"]["accuracy"] - mean) < 1e-12


@pytest.mark.parametrize("first", ["single", "multi"])
def test_a_family_mixing_single_and_multi_answer_items_aggregates_by_f1(first):
    items = [single("s1", key="A"), row("m1", "hle_med", ["A", "B"])]
    items = items if first == "single" else items[::-1]
    exact = run_suite(items, {"s1": "A", "m1": "A,B"})
    assert exact.aggregates["hle_med"] == {
        "n": 2, "mean_precision": 1.0, "mean_recall": 1.0, "mean_f1": 1.0}
    # s1 scores 0; m1 has precision 1, recall 1/2 and F1 2/3
    partial = run_suite(items, {"s1": "C", "m1": "A"})
    assert partial.aggregates["hle_med"] == {
        "n": 2, "mean_precision": 0.5, "mean_recall": 0.25, "mean_f1": pytest.approx(1 / 3)}


def test_unmatched_prediction_id():
    with pytest.raises(UnmatchedItemId):
        run_suite([single("s1")], {"zzz": "A"})


def test_predictions_file_loading(tmp_path):
    from biokgr import WorkspaceUnavailable

    path = tmp_path / "preds.jsonl"
    path.write_text('{"id": "s1", "prediction": "B"}\n', encoding="utf-8")
    assert load_predictions(path) == {"s1": "B"}
    with pytest.raises(WorkspaceUnavailable, match="missing.jsonl"):
        load_predictions(tmp_path / "missing.jsonl")
