"""CLI surface: every documented subcommand works end to end on fixtures."""
import ast
import gc
import hashlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import biokgr
from biokgr.cli import main
from biokgr.evidence import EntityRef, EvidenceGraphStore, MergeBatch, export_graph
from biokgr.federation.mockserver import FixtureServer

from corpusgen import make_review_xml, regimen_corpus
from fedmock import json_response, text_response
from kgmlgen import (
    blank_name_kgml,
    cascade_kgml,
    cyclic_group_kgml,
    egfr_cancer_kgml,
    pde4_inflammation_kgml,
    shmt2_flux_kgml,
    ulcerative_colitis_kgml,
)
from test_bench import hle_snapshot
from test_pathway_graph import NERANDOMILAST


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def test_graph_export_and_stats(runner, tmp_path):
    store = EvidenceGraphStore()
    store.upsert_batch(MergeBatch(entities=(
        EntityRef(name="TNF", kind="GENE_PROTEIN", source="kegg@r109"),
    )))
    snapshot = tmp_path / "store.json"
    export_graph(store, snapshot)

    out = tmp_path / "exported.json"
    invoke(runner, ["graph", "export", "--store", str(snapshot), "--out", str(out)])
    assert json.loads(out.read_text())["entities"][0]["name"] == "TNF"

    result = invoke(runner, ["graph", "stats", "--store", str(snapshot)])
    assert json.loads(result.output)["entities"] == 1


@pytest.mark.parametrize("command", ["stats", "export"])
def test_graph_commands_report_a_malformed_snapshot_in_one_line(runner, tmp_path, command):
    snapshot = tmp_path / "store.json"
    snapshot.write_text('{"entities": [{"key": "tnf"}], "relations": []}', encoding="utf-8")
    args = ["graph", command, "--store", str(snapshot)]
    if command == "export":
        args += ["--out", str(tmp_path / "out.json")]
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code != 0
    assert result.output.startswith("Error: entity record lacks 'name'")
    assert result.output.count("\n") == 1


def test_pathway_parse(runner, tmp_path):
    kgml = tmp_path / "hsa04750.xml"
    kgml.write_text(ulcerative_colitis_kgml(), encoding="utf-8")
    out = tmp_path / "snapshot.json"
    invoke(runner, ["pathway", "parse", "--kgml", str(kgml), "--out", str(out)])
    snapshot = json.loads(out.read_text())
    assert snapshot["pathway_id"] == "hsa04750"
    assert {n["symbol"] for n in snapshot["nodes"]} >= {"TNF", "IL6"}
    assert snapshot["endpoints"] == ["Inflammation"]


def test_pathway_parse_names_an_entry_named_only_by_whitespace_by_its_id(runner, tmp_path):
    kgml = tmp_path / "blank.xml"
    kgml.write_text(blank_name_kgml(), encoding="utf-8")
    out = tmp_path / "snapshot.json"
    invoke(runner, ["pathway", "parse", "--kgml", str(kgml), "--out", str(out)])
    snapshot = json.loads(out.read_text())
    assert [(n["symbol"], n["functional_type"]) for n in snapshot["nodes"]] == [
        ("1", "other"), ("BBB", "other"), ("3", "other")]
    assert [(e["source"], e["target"]) for e in snapshot["signed_edges"]] == [
        ("1", "BBB"), ("BBB", "3")]


def test_curate_target_id(runner, tmp_path):
    (tmp_path / "kgml").mkdir()
    (tmp_path / "kgml" / "hsa04750.xml").write_text(ulcerative_colitis_kgml())
    out = tmp_path / "items.jsonl"
    invoke(runner, ["curate", "target-id", "--kgml-dir", str(tmp_path / "kgml"),
                    "--profile", "infection", "--seed", "42", "--out", str(out)])
    items = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(items) == 1
    answers = {o["text"] for o in items[0]["options"] if o["label"] in items[0]["answers"]}
    assert answers == {"TNF : cytokine", "IL6 : cytokine"}


def test_a_curate_command_leaves_no_garbage_cycle(tmp_path, caplog):
    kgml = tmp_path / "kgml"
    kgml.mkdir()
    (kgml / "hsa04750.xml").write_text(ulcerative_colitis_kgml())
    (kgml / "hsa00001.xml").write_text(ulcerative_colitis_kgml()[:300])  # skipped, with a warning
    args = ["curate", "target-id", "--kgml-dir", str(kgml), "--profile", "infection",
            "--seed", "42", "--out", str(tmp_path / "items.jsonl")]
    # `main.main` without click's standalone mode: `CliRunner.invoke` itself leaves
    # cycles (the exception it catches holds the frames that hold it)
    gc.collect()
    gc.disable()
    try:
        assert main.main(args, standalone_mode=False) is None
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert (tmp_path / "items.jsonl").read_text().count("\n") == 1
    assert "skipping" in caplog.text


def test_curate_flux(runner, tmp_path):
    (tmp_path / "kgml").mkdir()
    (tmp_path / "kgml" / "hsa00670.xml").write_text(shmt2_flux_kgml())
    out = tmp_path / "items.jsonl"
    invoke(runner, ["curate", "flux", "--kgml-dir", str(tmp_path / "kgml"),
                    "--target", "SHMT2", "--seed", "3", "--out", str(out)])
    items = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(items) == 1
    assert len(items[0]["options"]) == 7


@pytest.mark.parametrize("name, make", [
    ("hsa00001.xml", lambda path: path.write_text(ulcerative_colitis_kgml()[:300])),
    ("hsa00002.xml", Path.mkdir),
], ids=["truncated", "a directory"])
def test_curate_target_id_skips_a_malformed_file_with_one_warning(runner, tmp_path, caplog, name,
                                                                  make):
    kgml = tmp_path / "kgml"
    kgml.mkdir()
    make(kgml / name)
    (kgml / "hsa04750.xml").write_text(ulcerative_colitis_kgml())
    out = tmp_path / "items.jsonl"
    caplog.set_level(logging.WARNING)
    invoke(runner, ["curate", "target-id", "--kgml-dir", str(kgml), "--profile", "infection",
                    "--out", str(out)])
    assert len(out.read_text().splitlines()) == 1
    assert len(caplog.records) == 1 and name in caplog.records[0].getMessage()


@pytest.mark.parametrize("args, kgml, item_id", [
    (["target-id", "--profile", "infection"], ulcerative_colitis_kgml(), "target-hsa04750-0"),
    (["flux", "--target", "SHMT2"], shmt2_flux_kgml(), "flux-hsa00670-SHMT2-0"),
], ids=["target-id", "flux"])
def test_curate_skips_a_later_file_that_repeats_an_item_id(runner, tmp_path, monkeypatch, caplog,
                                                           args, kgml, item_id):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kgml").mkdir()
    for name in ("a.xml", "b.xml"):  # two copies of one pathway
        (tmp_path / "kgml" / name).write_text(kgml, encoding="utf-8")
    caplog.set_level(logging.WARNING)
    invoke(runner, ["curate", *args, "--kgml-dir", "kgml", "--out", "items.jsonl"])
    items = [json.loads(line) for line in (tmp_path / "items.jsonl").read_text().splitlines()]
    assert [item["id"] for item in items] == [item_id]
    assert [r.getMessage() for r in caplog.records] == [
        f"skipping {Path('kgml', 'b.xml')}: item id {item_id!r} repeats an earlier input's"]
    (tmp_path / "preds.jsonl").write_text(_rows({"id": item_id, "prediction": items[0]["answers"]}))
    invoke(runner, BENCH_SCORE)


def test_curate_sample_size_skips_a_later_row_that_repeats_an_item_id(runner, tmp_path,
                                                                      monkeypatch, caplog):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "truths.jsonl").write_text(_rows({"id": "x", "truth": 268},
                                                 {"id": "x", "truth": 120}))
    caplog.set_level(logging.WARNING)
    invoke(runner, ["curate", "sample-size", "--truths", "truths.jsonl", "--out", "items.jsonl"])
    items = [json.loads(line) for line in (tmp_path / "items.jsonl").read_text().splitlines()]
    assert [(item["id"], item["metadata"]["truth"]) for item in items] == [("x", 268)]
    assert [r.getMessage() for r in caplog.records] == [
        "skipping row 1: item id 'x' repeats an earlier input's"]
    (tmp_path / "preds.jsonl").write_text(_rows({"id": "x", "prediction": items[0]["answers"]}))
    invoke(runner, BENCH_SCORE)


def test_curate_ebm_reads_the_first_file_of_a_repeated_version(runner, tmp_path, caplog):
    reviews = tmp_path / "reviews"
    reviews.mkdir()
    # two files of version 4: the second is skipped
    for name, version, included in (("v3", 3, [100]), ("v4a", 4, [100, 200]),
                                    ("v4b", 4, [100, 200, 300])):
        (reviews / f"{name}.xml").write_text(make_review_xml(
            f"{REVIEW}.pub{version}", version, "Review", "Objectives", "Criteria", "Results",
            included=included))
    out = tmp_path / "gap_tasks.jsonl"
    caplog.set_level(logging.WARNING)
    result = invoke(runner, ["curate", "ebm", "--reviews", str(reviews), "--out", str(out)])
    assert [json.loads(line)["answers"] for line in out.read_text().splitlines()] == [[200]]
    assert "wrote 1 gap tasks" in result.output
    assert [r.getMessage() for r in caplog.records] == [
        f"skipping review {REVIEW}.pub4: an earlier record is version 4 of {REVIEW}"]


@pytest.mark.parametrize("args", [
    ["target-id", "--option-count", "0"],
    ["target-id", "--option-count", "30"],
    ["target-id", "--option-count", "-3"],
    ["surrogate", "--drugs", "drugs.txt", "--max-pathways", "0"],
], ids=["option-count 0", "option-count 30", "option-count -3", "max-pathways 0"])
def test_curate_refuses_an_out_of_range_option(runner, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kgml").mkdir()
    (tmp_path / "kgml" / "hsa04750.xml").write_text(cascade_kgml(7, 40))  # 40 genes
    (tmp_path / "drugs.txt").write_text(NERANDOMILAST)
    result = runner.invoke(main, ["curate", *args, "--kgml-dir", "kgml", "--out", "items.jsonl"],
                           catch_exceptions=False)
    assert result.exit_code == 2
    assert f"Invalid value for '{args[-2]}'" in result.output
    assert not (tmp_path / "items.jsonl").exists()


@pytest.mark.parametrize("command", [["target-id"], ["flux", "--target", "SHMT2"]])
def test_curate_skips_a_file_with_a_group_that_contains_itself(runner, tmp_path, monkeypatch,
                                                               caplog, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kgml").mkdir()
    (tmp_path / "kgml" / "a.xml").write_text(cyclic_group_kgml(("5", "6")), encoding="utf-8")
    good = ulcerative_colitis_kgml() if command == ["target-id"] else shmt2_flux_kgml()
    (tmp_path / "kgml" / "b.xml").write_text(good, encoding="utf-8")
    caplog.set_level(logging.WARNING)
    invoke(runner, ["curate", *command, "--kgml-dir", "kgml", "--out", "items.jsonl"])
    assert len((tmp_path / "items.jsonl").read_text().splitlines()) == 1
    assert [r.getMessage() for r in caplog.records] == [
        f"skipping {Path('kgml', 'a.xml')}: group '5' contains itself"]


def test_curate_target_id_lets_a_bug_keep_its_traceback(runner, tmp_path, monkeypatch):
    (tmp_path / "kgml").mkdir()
    (tmp_path / "kgml" / "hsa04750.xml").write_text(ulcerative_colitis_kgml())

    def broken(*args, **kwargs):
        raise RuntimeError("curator bug")

    monkeypatch.setattr("biokgr.cli.build_target_item", broken)
    with pytest.raises(RuntimeError, match="curator bug"):
        runner.invoke(main, ["curate", "target-id", "--kgml-dir", str(tmp_path / "kgml"),
                             "--out", str(tmp_path / "items.jsonl")], catch_exceptions=False)


def test_curate_flux_passes_silently_over_a_pathway_without_the_target(runner, tmp_path, caplog):
    (tmp_path / "kgml").mkdir()
    (tmp_path / "kgml" / "hsa00670.xml").write_text(shmt2_flux_kgml())
    (tmp_path / "kgml" / "hsa04750.xml").write_text(ulcerative_colitis_kgml())
    out = tmp_path / "items.jsonl"
    caplog.set_level(logging.WARNING)
    invoke(runner, ["curate", "flux", "--kgml-dir", str(tmp_path / "kgml"),
                    "--target", "SHMT2", "--out", str(out)])
    assert len(out.read_text().splitlines()) == 1
    assert caplog.records == []


def test_curate_sample_size(runner, tmp_path):
    truths = tmp_path / "truths.jsonl"
    truths.write_text(
        json.dumps({"id": "t1", "truth": 268, "condition": "Breast cancer"}) + "\n"
        + json.dumps({"truth": 120}) + "\n"
    )
    out = tmp_path / "items.jsonl"
    invoke(runner, ["curate", "sample-size", "--truths", str(truths),
                    "--seed", "5", "--out", str(out)])
    items = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(items) == 2
    assert all(len(i["options"]) == 5 for i in items)


def test_curate_regimen(runner, tmp_path):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(regimen_corpus()))
    out = tmp_path / "items.jsonl"
    result = invoke(runner, ["curate", "regimen", "--corpus", str(corpus),
                             "--seed", "1", "--out", str(out)])
    items = [json.loads(l) for l in out.read_text().splitlines()]
    # 5 sufficient combinations in the fixture corpus (one lacks DLT records)
    assert len(items) == 5
    assert "wrote 5 regimen items" in result.output


def test_curate_regimen_keeps_a_reported_mtd_of_any_size(runner, tmp_path):
    items = {}
    for mtd in (400, 10**400):
        corpus = regimen_corpus()
        for trial in corpus["trials"]:
            for regimen in trial["regimens"]:
                if "alphanib" in regimen["reported_mtds"]:
                    regimen["reported_mtds"]["alphanib"] = mtd
        (tmp_path / "corpus.json").write_text(json.dumps(corpus))
        out = tmp_path / f"items-{len(items)}.jsonl"
        invoke(runner, ["curate", "regimen", "--corpus", str(tmp_path / "corpus.json"),
                        "--seed", "1", "--out", str(out)])
        items[mtd] = out.read_text()
    assert items[10**400] == items[400] != ""


SECOND_DRUG = """\
ENTRY       D99999                      Drug
NAME        Examplestat (USAN)
EFFICACY    Antineoplastic, Receptor tyrosine kinase inhibitor
COMMENT     Treatment of non-small cell lung cancer
TARGET      EGFR [HSA:1956]
  PATHWAY   hsa05200(1956)  Pathways in cancer
CLASS       Antineoplastic
             DG03162  EGFR inhibitor
DISEASE     Non-small cell lung cancer [DS:H00014]
///
"""


def test_curate_surrogate(runner, tmp_path):
    drugs = tmp_path / "drugs.txt"
    drugs.write_text(NERANDOMILAST + "\n" + SECOND_DRUG)
    kgml_dir = tmp_path / "kgml"
    kgml_dir.mkdir()
    (kgml_dir / "hsa04024.xml").write_text(pde4_inflammation_kgml())
    (kgml_dir / "hsa05200.xml").write_text(egfr_cancer_kgml())
    out = tmp_path / "items.jsonl"
    invoke(runner, ["curate", "surrogate", "--drugs", str(drugs),
                    "--kgml-dir", str(kgml_dir), "--seed", "8", "--out", str(out)])
    items = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(items) == 2
    for item in items:
        assert 6 <= len(item["options"]) <= 10
        visible = item["question"] + " ".join(o["text"] for o in item["options"])
        assert "D12975" not in visible and "D99999" not in visible


def test_curate_and_score_ebm(runner, tmp_path):
    reviews = tmp_path / "reviews"
    reviews.mkdir()
    base = "10.1002/14651858.CD000259"
    (reviews / "v3.xml").write_text(make_review_xml(
        f"{base}.pub3", 1, "Review", "Objectives text", "Criteria text", "Results",
        included=[100, 200],
    ))
    (reviews / "v4.xml").write_text(make_review_xml(
        f"{base}.pub4", 2, "Review", "Objectives text", "Criteria text", "Results",
        included=[100, 200, 300, 400],
    ))
    tasks = tmp_path / "gap_tasks.jsonl"
    invoke(runner, ["curate", "ebm", "--reviews", str(reviews), "--out", str(tasks)])
    rows = [json.loads(l) for l in tasks.read_text().splitlines()]
    assert rows[0]["answers"] == [300, 400]

    predictions = tmp_path / "preds.jsonl"
    # entries that are not PMIDs are skipped
    for ranked in ([300, 999], ["PMID:300", "n/a", None, "999"]):
        predictions.write_text(json.dumps({"id": f"{base}.pub4", "prediction": ranked}) + "\n")
        result = invoke(runner, ["bench", "score", "--items", str(tasks), "--predictions",
                                 str(predictions), "--report", str(tmp_path / "report")])
        payload = json.loads(result.output.split("report:")[0])["ebm_gap"]
        assert payload["gap_detection_rate"] == 1.0
        assert payload["mean_recall_at_30"] == 0.5


def test_each_gap_task_of_a_review_is_scored_under_its_own_version(runner, tmp_path):
    reviews = tmp_path / "reviews"
    reviews.mkdir()
    base = "10.1002/14651858.CD000259"
    for version in (1, 2, 3):
        (reviews / f"v{version}.xml").write_text(make_review_xml(
            f"{base}.pub{version}", version, "Review", "Objectives", "Criteria", "Results",
            included=[100 * n for n in range(1, version + 1)],
        ))
    tasks, predictions = tmp_path / "gap_tasks.jsonl", tmp_path / "preds.jsonl"
    invoke(runner, ["curate", "ebm", "--reviews", str(reviews), "--out", str(tasks)])
    predictions.write_text(json.dumps({"id": f"{base}.pub2", "prediction": [200]}) + "\n"
                           + json.dumps({"id": f"{base}.pub3", "prediction": [300]}) + "\n")
    result = invoke(runner, ["bench", "score", "--items", str(tasks), "--predictions",
                             str(predictions), "--report", str(tmp_path / "report")])
    assert json.loads(result.output.split("report:")[0])["ebm_gap"] == {
        "n": 2, "gap_detection_rate": 1.0, "mean_recall_at_30": 1.0}


def test_bench_prepare_and_score(runner, tmp_path):
    from test_bench import hle_snapshot

    raw = tmp_path / "hle.json"
    raw.write_text(json.dumps(hle_snapshot()))
    items = tmp_path / "items.jsonl"
    result = invoke(runner, ["bench", "prepare", "--benchmark", "hle_med",
                             "--in", str(raw), "--out", str(items), "--seed", "0"])
    assert "wrote 30 hle_med items" in result.output

    preds = tmp_path / "preds.jsonl"
    with open(preds, "w") as fh:
        for i in range(30):
            fh.write(json.dumps({"id": f"hle-med-{i}", "prediction": "A"}) + "\n")
    report_dir = tmp_path / "report"
    result = invoke(runner, ["bench", "score", "--items", str(items),
                             "--predictions", str(preds), "--report", str(report_dir)])
    json_part = result.output.split("report:")[0]
    aggregates = json.loads(json_part)
    assert aggregates["hle_med"]["accuracy"] == 1.0
    assert (report_dir / "report.md").exists()


def test_bench_prepare_reads_a_jsonl_export_once(runner, tmp_path, monkeypatch):
    from test_bench import hle_snapshot

    raw = tmp_path / "hle.jsonl"
    raw.write_text("".join(json.dumps(record) + "\n" for record in hle_snapshot()))
    reads = []

    def spy(path):
        reads.append(Path(path).name)
        return read_text(path)

    read_text = biokgr.read_text
    monkeypatch.setattr(biokgr, "read_text", spy)
    monkeypatch.setattr(sys.modules["biokgr.cli"], "read_text", spy)
    result = invoke(runner, ["bench", "prepare", "--benchmark", "hle_med",
                             "--in", str(raw), "--out", str(tmp_path / "items.jsonl")])
    assert "wrote 30 hle_med items" in result.output
    assert reads == ["hle.jsonl"]


@pytest.mark.parametrize("row", [{"prediction": "A"}, ["hle-med-0", "A"]],
                         ids=["row-without-id", "row-not-an-object"])
def test_bench_score_reports_a_malformed_prediction_in_one_line(runner, tmp_path, row):
    from test_bench import hle_snapshot

    raw, items, preds = tmp_path / "hle.json", tmp_path / "items.jsonl", tmp_path / "preds.jsonl"
    raw.write_text(json.dumps(hle_snapshot()))
    invoke(runner, ["bench", "prepare", "--benchmark", "hle_med",
                    "--in", str(raw), "--out", str(items), "--seed", "0"])
    preds.write_text(json.dumps({"id": "hle-med-1", "prediction": "A"}) + "\n"
                     + json.dumps(row) + "\n")
    result = runner.invoke(main, ["bench", "score", "--items", str(items), "--predictions",
                                  str(preds), "--report", str(tmp_path / "report")],
                           catch_exceptions=False)
    assert result.exit_code != 0
    assert result.output.startswith(f"Error: {preds} row 2 lacks 'id'")
    assert result.output.count("\n") == 1


ITEM = {"id": "x", "task_type": "hle_med", "question": "q", "answers": ["A"]}
GAP = {"id": "10.1/a.pub2", "task_type": "ebm_gap", "question": "q", "answers": [1]}
BENCH_SCORE = ["bench", "score", "--items", "items.jsonl", "--predictions", "preds.jsonl",
               "--report", "report"]
REGIMEN = ["curate", "regimen", "--corpus", "corpus.json", "--out", "items.jsonl"]


def _rows(*rows):
    return "".join(row if isinstance(row, str) else json.dumps(row) + "\n" for row in rows)


DIRECTORY = None  # in a case's files: make a directory where the command expects a file
DEEP = "[" * 100_000 + "]" * 100_000  # JSON nested deeper than the decoder recurses

# one malformed or unreadable input file or unwritable output path per case; each must end its
# command in one `Error:` line
MALFORMED_INPUTS = {
    "bench-item-without-task-type": (
        BENCH_SCORE, {"items.jsonl": _rows({k: v for k, v in ITEM.items() if k != "task_type"}),
                      "preds.jsonl": _rows({"id": "x", "prediction": "A"})},
        "items.jsonl row 1 lacks 'task_type'"),
    "bench-item-a-list": (
        BENCH_SCORE, {"items.jsonl": _rows(["x", "hle_med"]),
                      "preds.jsonl": _rows({"id": "x", "prediction": "A"})},
        "items.jsonl row 1 lacks 'id'"),
    "bench-item-not-json": (
        BENCH_SCORE, {"items.jsonl": _rows(ITEM, "{not json\n"),
                      "preds.jsonl": _rows({"id": "x", "prediction": "A"})},
        "items.jsonl row 2 is not JSON"),
    "bench-item-question-not-a-string": (
        BENCH_SCORE, {"items.jsonl": _rows({**ITEM, "question": {"text": "q"}}),
                      "preds.jsonl": _rows({"id": "x", "prediction": "A"})},
        "items.jsonl row 1 field 'question' is not str"),
    "bench-item-answers-empty": (
        BENCH_SCORE, {"items.jsonl": _rows({**ITEM, "answers": []}),
                      "preds.jsonl": _rows({"id": "x", "prediction": "A"})},
        "items.jsonl row 1 field 'answers' is empty"),
    "bench-item-repeated-id": (
        BENCH_SCORE, {"items.jsonl": _rows(ITEM, {**ITEM, "answers": ["B"]}),
                      "preds.jsonl": _rows({"id": "x", "prediction": "A"})},
        "items.jsonl row 2 repeats id 'x'"),
    "bench-export-repeated-id": (
        ["bench", "prepare", "--benchmark", "hle_med", "--in", "raw.json", "--out", "items.jsonl"],
        {"raw.json": json.dumps([{"id": "q1", "subject": "Medicine", "question": q, "answer": "A"}
                                 for q in ("first", "second")])},
        "hle_med record repeats id 'q1'"),
    "bench-prediction-repeated-id": (
        BENCH_SCORE, {"items.jsonl": _rows(ITEM),
                      "preds.jsonl": _rows({"id": "x", "prediction": "A"},
                                           {"id": "x", "prediction": "B"})},
        "preds.jsonl row 2 repeats id 'x'"),
    "bench-export-without-id": (
        ["bench", "prepare", "--benchmark", "hle_med", "--in", "raw.json", "--out", "items.jsonl"],
        {"raw.json": json.dumps([{"subject": "Medicine", "question": "q", "answer": "A"}])},
        "hle_med record lacks 'id'"),
    "bench-export-of-numbers": (
        ["bench", "prepare", "--benchmark", "hle_med", "--in", "raw.json", "--out", "items.jsonl"],
        {"raw.json": "[1, 2]"},
        "hle_med record lacks 'subject': 1 is not an object"),
    "bench-export-options-not-a-list": (
        ["bench", "prepare", "--benchmark", "litqa2", "--in", "raw.json", "--out", "items.jsonl"],
        {"raw.json": json.dumps([{"id": "q1", "question": "q", "answer": "A",
                                  "options": "A or B"}])},
        "litqa2 record field 'options' is not list"),
    "bench-export-answer-empty": (
        ["bench", "prepare", "--benchmark", "litqa2", "--in", "raw.json", "--out", "items.jsonl"],
        {"raw.json": json.dumps([{"id": "q1", "question": "q", "answer": []}])},
        "litqa2 record 'q1' has an empty 'answer'"),
    "bench-export-answer-null": (
        ["bench", "prepare", "--benchmark", "litqa2", "--in", "raw.json", "--out", "items.jsonl"],
        {"raw.json": json.dumps([{"id": "q1", "question": "q", "answer": None}])},
        "litqa2 record field 'answer' is not str or int or list: None"),
    "bench-export-answer-object": (
        ["bench", "prepare", "--benchmark", "litqa2", "--in", "raw.json", "--out", "items.jsonl"],
        {"raw.json": json.dumps([{"id": "q1", "question": "q", "answer": ["A", {"text": "B"}]}])},
        "litqa2 record field 'answer' is not list of str or int"),
    "bench-export-row-not-json": (
        ["bench", "prepare", "--benchmark", "hle_med", "--in", "raw.jsonl", "--out", "items.jsonl"],
        {"raw.jsonl": _rows({"id": "q1", "subject": "Medicine", "question": "q", "answer": "A"},
                            "{not json\n")},
        "raw.jsonl row 2 is not JSON"),
    "regimen-corpus-a-list": (
        REGIMEN, {"corpus.json": json.dumps([{"trials": []}])},
        "lacks 'trials'"),
    "regimen-string-drugs": (
        REGIMEN, {"corpus.json": json.dumps({"trials": [{"trial_id": "T", "regimens": [
            {"drugs": ["capecitabine", "oxaliplatin"]}]}]})},
        "field 'drugs' is not list of dict"),
    "regimen-drug-without-name": (
        REGIMEN, {"corpus.json": json.dumps({"trials": [{"trial_id": "T", "regimens": [
            {"drugs": [{"route": "oral"}]}]}]})},
        "lacks 'name'"),
    "regimen-doses-a-list": (
        REGIMEN, {"corpus.json": json.dumps({"trials": [{"trial_id": "T", "regimens": [
            {"drugs": [{"name": "a"}, {"name": "b"}], "dose_ladder": [{"doses": [1, 2]}]}]}]})},
        "field 'doses' is not dict"),
    "regimen-dlt-terms-not-strings": (
        REGIMEN, {"corpus.json": json.dumps({"trials": [{"trial_id": "T", "regimens": [
            {"drugs": [{"name": "a"}], "dlt_by_level": [{"terms": ["rash", 3]}]}]}]})},
        "field 'terms' is not list of str"),
    "regimen-reported-mtd-a-string": (
        REGIMEN, {"corpus.json": json.dumps({"trials": [{"trial_id": "M", "regimens": [
            {"drugs": [{"name": "A"}], "reported_mtds": {"A": "high"},
             "dlt_by_level": [{"terms": ["rash"]}]}]}]})},
        "field 'reported_mtds' is not dict of int or float or NoneType"),
    "regimen-dose-a-string": (
        REGIMEN, {"corpus.json": json.dumps({"trials": [
            {"trial_id": "M", "regimens": [{"drugs": [{"name": "A"}], "reported_mtds": {"A": 10},
                                            "dlt_by_level": [{"terms": ["rash"]}]}]},
            {"trial_id": "C", "regimens": [{"drugs": [{"name": "A"}, {"name": "B"}],
                                            "dose_ladder": [{"doses": {"A": "5mg"}}],
                                            "dlt_by_level": [{"terms": ["rash"]}]}]}]})},
        "field 'doses' is not dict of int or float or NoneType"),
    "regimen-dose-a-bool": (
        REGIMEN, {"corpus.json": json.dumps({"trials": [{"trial_id": "C", "regimens": [
            {"drugs": [{"name": "A"}, {"name": "B"}],
             "dose_ladder": [{"doses": {"A": 10, "B": True}}]}]}]})},
        "field 'doses' is not dict of int or float or NoneType"),
    "ebm-prediction-not-json": (
        BENCH_SCORE, {"items.jsonl": _rows(GAP), "preds.jsonl": "{not json\n"},
        "preds.jsonl row 1 is not JSON"),
    "ebm-prediction-without-id": (
        BENCH_SCORE, {"items.jsonl": _rows(GAP), "preds.jsonl": _rows({"prediction": [1]})},
        "preds.jsonl row 1 lacks 'id'"),
    "ebm-item-without-id": (
        BENCH_SCORE, {"items.jsonl": _rows({k: v for k, v in GAP.items() if k != "id"}),
                      "preds.jsonl": _rows({"id": GAP["id"], "prediction": [1]})},
        "items.jsonl row 1 lacks 'id'"),
    "ebm-item-without-answers": (
        BENCH_SCORE, {"items.jsonl": _rows({k: v for k, v in GAP.items() if k != "answers"}),
                      "preds.jsonl": _rows({"id": GAP["id"], "prediction": [1]})},
        "items.jsonl row 1 lacks 'answers'"),
    "ebm-truth-not-a-list": (
        BENCH_SCORE, {"items.jsonl": _rows({**GAP, "answers": 1}),
                      "preds.jsonl": _rows({"id": GAP["id"], "prediction": [1]})},
        "items.jsonl row 1 field 'answers' is not list of int"),
    "ebm-answers-not-pmids": (
        BENCH_SCORE, {"items.jsonl": _rows({**GAP, "answers": ["PMID:1"]}),
                      "preds.jsonl": _rows({"id": GAP["id"], "prediction": [1]})},
        "items.jsonl row 1 field 'answers' is not list of int"),
    "sample-size-truth-not-json": (
        ["curate", "sample-size", "--truths", "truths.jsonl", "--out", "items.jsonl"],
        {"truths.jsonl": _rows({"truth": 268}, "{not json\n")},
        "truths.jsonl row 2 is not JSON"),
    "kgml-truncated": (
        ["pathway", "parse", "--kgml", "hsa04750.xml", "--out", "snapshot.json"],
        {"hsa04750.xml": ulcerative_colitis_kgml()[:300]},
        "XML parse failure at line"),
    "kgml-group-cycle": (
        ["pathway", "parse", "--kgml", "hsa99999.xml", "--out", "snapshot.json"],
        {"hsa99999.xml": cyclic_group_kgml()},
        "group '5' contains itself"),
    "ebm-truth-empty": (
        BENCH_SCORE, {"items.jsonl": _rows({**GAP, "answers": []}),
                      "preds.jsonl": _rows({"id": GAP["id"], "prediction": [1]})},
        "items.jsonl row 1 field 'answers' is empty"),
    # a path under a regular file cannot be created, even by root
    "sample-size-out-unwritable": (
        ["curate", "sample-size", "--truths", "truths.jsonl", "--out", "blocker/items.jsonl"],
        {"truths.jsonl": _rows({"truth": 268}), "blocker": "not a directory"},
        "cannot write blocker/items.jsonl"),
    "bench-report-unwritable": (
        BENCH_SCORE[:-1] + ["blocker/report"],
        {"items.jsonl": _rows(ITEM), "preds.jsonl": _rows({"id": "x", "prediction": "A"}),
         "blocker": "not a directory"},
        "cannot write report under blocker/report"),
    "pathway-snapshot-unwritable": (
        ["pathway", "parse", "--kgml", "hsa04750.xml", "--out", "blocker/p.json"],
        {"hsa04750.xml": ulcerative_colitis_kgml(), "blocker": "not a directory"},
        "cannot write blocker/p.json"),
    "pathway-kgml-a-directory": (
        ["pathway", "parse", "--kgml", "hsa04750.xml", "--out", "snapshot.json"],
        {"hsa04750.xml": DIRECTORY},
        "cannot read hsa04750.xml"),
    "ebm-tasks-a-directory": (
        BENCH_SCORE, {"items.jsonl": DIRECTORY, "preds.jsonl": _rows({"id": GAP["id"]})},
        "cannot read items.jsonl"),
    "bench-predictions-a-directory": (
        BENCH_SCORE, {"items.jsonl": _rows(ITEM), "preds.jsonl": DIRECTORY},
        "cannot read preds.jsonl"),
    "bench-export-a-directory": (
        ["bench", "prepare", "--benchmark", "hle_med", "--in", "raw.json", "--out", "items.jsonl"],
        {"raw.json": DIRECTORY},
        "cannot read raw.json"),
    "regimen-corpus-a-directory": (
        REGIMEN, {"corpus.json": DIRECTORY},
        "cannot read corpus.json"),
    "bench-predictions-nested-too-deeply": (
        BENCH_SCORE, {"items.jsonl": _rows(ITEM), "preds.jsonl": _rows(DEEP)},
        "preds.jsonl row 1 is not JSON: nested too deeply to decode"),
    "graph-snapshot-duplicate-curie": (
        ["graph", "stats", "--store", "store.json"],
        {"store.json": json.dumps({
            "entities": [{"key": key, "name": "TNF", "kind": kind, "curie": curie, "sources": []}
                         for key, kind, curie in (("hgnc:1", "GENE_PROTEIN", "HGNC:1"),
                                                  ("mondo:1", "DISEASE_PHENOTYPE", "hgnc:1"))],
            "relations": [], "observations": [], "conflict_groups": []})},
        "entity 'mondo:1' repeats the CURIE of entity 'hgnc:1'"),
    "graph-snapshot-nested-too-deeply": (
        ["graph", "stats", "--store", "deep.json"], {"deep.json": DEEP},
        "snapshot deep.json is not valid JSON: nested too deeply to decode"),
}


@pytest.mark.parametrize("args, files, message", MALFORMED_INPUTS.values(),
                         ids=MALFORMED_INPUTS.keys())
def test_a_malformed_input_file_is_a_one_line_error(runner, tmp_path, monkeypatch, args, files,
                                                    message):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        if text is DIRECTORY:
            (tmp_path / name).mkdir()
        else:
            (tmp_path / name).write_text(text, encoding="utf-8")
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 1
    assert result.output.startswith("Error: ") and message in result.output
    assert result.output.count("\n") == 1


REVIEW = "10.1002/14651858.CD000259"

# each item writer's command, less `--out items.jsonl`, and the input files it reads
ITEM_WRITERS = {
    "curate-target-id": (
        ["curate", "target-id", "--kgml-dir", "kgml", "--profile", "infection", "--seed", "42"],
        {"kgml/hsa04750.xml": ulcerative_colitis_kgml()}),
    "curate-flux": (
        ["curate", "flux", "--kgml-dir", "kgml", "--target", "SHMT2", "--seed", "3"],
        {"kgml/hsa00670.xml": shmt2_flux_kgml()}),
    "curate-sample-size": (
        ["curate", "sample-size", "--truths", "truths.jsonl", "--seed", "5"],
        {"truths.jsonl": _rows({"id": "t1", "truth": 268, "condition": "Breast cancer"},
                               {"truth": 120})}),
    "curate-regimen": (
        ["curate", "regimen", "--corpus", "corpus.json", "--seed", "1"],
        {"corpus.json": json.dumps(regimen_corpus())}),
    "curate-surrogate": (
        ["curate", "surrogate", "--drugs", "drugs.txt", "--kgml-dir", "kgml", "--seed", "8"],
        {"drugs.txt": NERANDOMILAST + "\n" + SECOND_DRUG,
         "kgml/hsa04024.xml": pde4_inflammation_kgml(), "kgml/hsa05200.xml": egfr_cancer_kgml()}),
    "curate-ebm": (
        ["curate", "ebm", "--reviews", "reviews"],
        {f"reviews/v{v}.xml": make_review_xml(f"{REVIEW}.pub{v}", v, "Review", "Objectives",
                                              "Criteria", "Results", included=included)
         for v, included in ((3, [100, 200]), (4, [100, 200, 300, 400]))}),
    "bench-prepare": (
        ["bench", "prepare", "--benchmark", "hle_med", "--in", "hle.json"],
        {"hle.json": json.dumps(hle_snapshot())}),
}


@pytest.mark.parametrize("args, files", ITEM_WRITERS.values(), ids=ITEM_WRITERS.keys())
def test_bench_score_reads_the_items_every_writer_writes(runner, tmp_path, monkeypatch, args,
                                                         files):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    invoke(runner, args + ["--out", "items.jsonl"])
    items = [json.loads(line) for line in (tmp_path / "items.jsonl").read_text().splitlines()]
    assert items
    (tmp_path / "preds.jsonl").write_text(
        _rows(*({"id": item["id"], "prediction": item["answers"]} for item in items)))
    result = invoke(runner, BENCH_SCORE)
    aggregates = json.loads(result.output.split("report:")[0])
    assert sum(stats.pop("n") for stats in aggregates.values()) == len(items)
    assert all(value == 1.0 for stats in aggregates.values() for value in stats.values())


def test_research_run_with_mock_endpoints(runner, tmp_path, monkeypatch):
    server = FixtureServer()
    server.transport.routes.update({
        "/query": json_response({"hits": [{"symbol": "TNF", "entrezgene": 7124}]}),
        "/find": text_response("hsa:7124\tTNF, DIF; tumor necrosis factor"),
        "/esearch.fcgi": json_response({"esearchresult": {"idlist": []}}),
        "/elink.fcgi": json_response({"citations": []}),
        "/relations": json_response({"relations": []}),
    })
    base = server.start()
    for source in ("MYGENE", "KEGG", "PUBMED", "PUBTATOR"):
        monkeypatch.setenv(f"BIOKGR_{source}_URL", base)
    try:
        result = invoke(runner, [
            "research", "run", "--query", "TNF inflammation targets",
            "--bfrs-budget", "1", "--dfrs-budget", "1",
            "--workspace", str(tmp_path / "ws"),
        ])
        assert "[v]" in result.output
        assert "Research complete" in result.output
        assert (tmp_path / "ws" / "transcript.jsonl").exists()
        assert (tmp_path / "ws" / "manifest.json").exists()
    finally:
        server.stop()


def test_research_run_refuses_a_negative_budget_before_making_its_workspace(runner, tmp_path):
    result = runner.invoke(main, [
        "research", "run", "--query", "TNF", "--bfrs-budget", "-1",
        "--workspace", str(tmp_path / "ws"),
    ], catch_exceptions=False)
    assert not (tmp_path / "ws").exists()
    assert result.exit_code == 1
    assert result.output == "Error: bfrs_budget must not be negative, got -1\n"


@pytest.mark.parametrize("route", ["none", "malformed"])
def test_research_run_reports_an_unavailable_oracle_in_one_line(runner, tmp_path, route):
    # 404 and bad output both fail at once, so no backoff sleep runs
    with FixtureServer() as (server, base):
        if route == "malformed":
            server.transport.routes["/"] = json_response({"message": {"content": "not json"}})
        result = runner.invoke(main, [
            "research", "run", "--query", "TNF", "--oracle", base,
            "--workspace", str(tmp_path / "ws"),
        ], catch_exceptions=False)
        assert server.transport.hits("/") == (1 if route == "malformed" else 0)
        assert len(server.transport.requests) == 1
    assert result.exit_code == 1
    assert result.output.startswith(f"Error: oracle endpoint {base}")
    assert result.output.count("\n") == 1


def test_research_run_reports_a_malformed_oracle_action_in_one_line(runner, tmp_path):
    # one reply answers both the plan request and the action request
    reply = {"steps": [{"text": "survey", "hint": "bfrs"}],
             "action": "invoke_bfrs", "task": {"description": "TNF", "budget": 0}}
    with FixtureServer() as (server, base):
        server.transport.routes["/"] = json_response({"message": {"content": json.dumps(reply)}})
        result = runner.invoke(main, [
            "research", "run", "--query", "TNF", "--oracle", base,
            "--workspace", str(tmp_path / "ws"),
        ], catch_exceptions=False)
        assert server.transport.hits("/") == 2
        posted = [json.loads(json.loads(sent.body)["messages"][1]["content"])
                  for sent in server.transport.requests]
        assert [request["op"] for request in posted] == ["plan", "choose_action"]
    assert result.exit_code == 1
    assert result.output.startswith(f"Error: oracle endpoint {base} sent a malformed action")
    assert result.output.count("\n") == 1


def test_research_run_reports_a_malformed_oracle_plan_in_one_line(runner, tmp_path):
    with FixtureServer() as (server, base):
        server.transport.routes["/"] = json_response(
            {"message": {"content": json.dumps({"steps": ["survey"]})}})
        result = runner.invoke(main, [
            "research", "run", "--query", "TNF", "--oracle", base,
            "--workspace", str(tmp_path / "ws"),
        ], catch_exceptions=False)
        assert server.transport.hits("/") == 1
    assert result.exit_code == 1
    assert result.output.startswith(f"Error: oracle endpoint {base} sent a malformed plan")
    assert result.output.count("\n") == 1


def test_research_run_reports_an_unwritable_workspace_in_one_line(runner, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    result = runner.invoke(main, [
        "research", "run", "--query", "TNF", "--workspace", str(blocker / "ws"),
    ], catch_exceptions=False)
    assert result.exit_code == 1
    assert result.output.startswith("Error: cannot create workspace")
    assert result.output.count("\n") == 1


def test_fetch_against_mock_server(runner, monkeypatch, tmp_path):
    server = FixtureServer()
    server.transport.routes["/query"] = json_response({"hits": [{"symbol": "TP53", "entrezgene": 7157}]})
    base = server.start()
    monkeypatch.setenv("BIOKGR_MYGENE_URL", base)
    try:
        result = invoke(runner, ["fetch", "--kind", "gene", "--query", "TP53",
                                 "--sources", "mygene", "--out", str(tmp_path / "out")])
        assert "TP53" in result.output
        assert f"Saved: {tmp_path / 'out' / 'results.json'}" in result.output
        assert (tmp_path / "out" / "results.json").exists()
        assert (tmp_path / "out" / "results.csv").exists()
        assert (tmp_path / "out" / "results.md").exists()
    finally:
        server.stop()


def test_cli_import_loads_neither_networkx_nor_an_http_client():
    src = str(Path(biokgr.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, biokgr.cli; "
            "print(sorted({'networkx', 'requests', 'urllib3', 'urllib.request', 'http.client', "
            "'email.parser', 'ssl'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


FIELD_CHECKERS = {"_field", "_get", "_items", "_strings", "_records", "_require", "_rows_with"}


# receivers whose `.read_text` is `Workspace.read_text`, which reads through `biokgr.read_text`
WORKSPACE_READERS = {"self", "workspace"}


def _file_access(call: ast.Call) -> str | None:
    """The name of the file access `call` makes, when it is one that only `biokgr` may make."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        return "open"
    if isinstance(func, ast.Attribute):
        if func.attr == "read_text" and getattr(func.value, "id", None) in WORKSPACE_READERS:
            return None
        if func.attr in {"read_text", "write_text"}:
            return f".{func.attr}"
        if func.attr == "replace" and getattr(func.value, "id", None) == "os":
            return "os.replace"
    return None


def reader_offences(package: Path) -> list[str]:
    """Outside `biokgr/__init__.py`: private field checkers, calls that open, read, write
    or rename a file themselves instead of going through `biokgr.read_text` and
    `biokgr.writing`; and CLI handlers that re-raise a library failure as `ClickException`
    instead of leaving it to `main`, or that catch every exception, bugs included."""
    offences = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offences += [f"{path.name}:{node.lineno} defines {node.name}" for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef) and node.name in FIELD_CHECKERS]
        offences += [f"{path.name}:{node.lineno} calls {access}" for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and (access := _file_access(node))]
    cli = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    for handler in (node for node in ast.walk(cli) if isinstance(node, ast.ExceptHandler)):
        if handler.type is None or getattr(handler.type, "id", None) in {"Exception",
                                                                         "BaseException"}:
            offences.append(f"cli.py:{handler.lineno} catches every exception")
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                callee = node.exc.func
                if getattr(callee, "attr", getattr(callee, "id", None)) == "ClickException":
                    offences.append(f"cli.py:{node.lineno} raises ClickException in a handler")
    return offences


def test_one_field_reader_one_file_reader_one_file_writer_and_one_cli_error_boundary():
    assert reader_offences(Path(biokgr.__file__).resolve().parent) == []


@pytest.mark.parametrize("call, access", [
    ("open(path)", "open"),
    ("Path(p).read_text()", ".read_text"),
    ("self.root.read_text()", ".read_text"),
    ("workspace.root.read_text()", ".read_text"),
    ("self.write_text(relpath)", ".write_text"),
    ("os.replace(tmp, path)", "os.replace"),
    ("self.read_text(relpath)", None),
    ("workspace.read_text(relpath)", None),
])
def test_the_file_boundary_guard_exempts_only_the_workspace_reader(call, access):
    assert _file_access(ast.parse(call, mode="eval").body) == access


def indented_json_offences(package: Path) -> list[str]:
    """Outside `biokgr/__init__.py`: calls of `json.dump` or `json.dumps` with an `indent`,
    whose pure-Python encoder leaves a reference cycle per call, instead of going through
    `biokgr.indented_json`."""
    offences = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "__init__.py":
            continue
        offences += [
            f"{path.relative_to(package)}:{node.lineno} calls json.{node.func.attr} with indent"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in {"dump", "dumps"} and getattr(node.func.value, "id", None) == "json"
            and any(keyword.arg == "indent" for keyword in node.keywords)]
    return offences


def test_one_indented_json_writer():
    assert indented_json_offences(Path(biokgr.__file__).resolve().parent) == []


_TEXT = st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7fé€\u2028\U0001f600') | st.characters())
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**400, 10**400)
    | st.floats() | _TEXT,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_JSON)
def test_indented_json_is_the_stdlib_indented_text(value):
    assert biokgr.indented_json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_src_imports_only_the_stdlib_click_and_biokgr():
    src = Path(biokgr.__file__).resolve().parents[1]
    allowed = sys.stdlib_module_names | {"biokgr", "click"}
    imported = set()
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.partition(".")[0])
    assert imported <= allowed, sorted(imported - allowed)


def _cache_kind(node) -> str | None:
    """`cache` or `lru_cache` when `node` names that `functools` decorator, else None."""
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
        name = node.attr
    else:
        return None
    return name if name in {"cache", "lru_cache"} else None


def _has_parameters(function: ast.FunctionDef) -> bool:
    arguments = function.args
    return bool(arguments.posonlyargs or arguments.args or arguments.vararg
                or arguments.kwonlyargs or arguments.kwarg)


def cache_offences(source: str) -> list[str]:
    """The caches in `source` that may grow without bound, as `line: what`.

    `functools.cache` and `lru_cache(maxsize=None)` may decorate only a function
    without parameters, or `load_data`, whose names are the bundled files. Every
    other `lru_cache` passes a `maxsize` that is an integer literal or a module
    constant bound to one.
    """
    tree = ast.parse(source)
    constants = {target.id for node in tree.body if isinstance(node, ast.Assign)
                 and isinstance(node.value, ast.Constant) and type(node.value.value) is int
                 for target in node.targets if isinstance(target, ast.Name)}
    decorated = {id(decorator): function for function in ast.walk(tree)
                 if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for decorator in function.decorator_list}
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    offences = []
    for node in ast.walk(tree):
        kind = _cache_kind(node)
        if kind is None:
            continue
        wrapper = node
        if kind == "lru_cache":
            call = calls.get(id(node))
            sizes = [] if call is None else [
                *call.args[:1], *(k.value for k in call.keywords if k.arg == "maxsize")]
            if not sizes:
                offences.append(f"{node.lineno}: lru_cache without a maxsize")
                continue
            size = sizes[0]
            if isinstance(size, ast.Constant) and type(size.value) is int or (
                    isinstance(size, ast.Name) and size.id in constants):
                continue
            if not (isinstance(size, ast.Constant) and size.value is None):
                offences.append(f"{node.lineno}: lru_cache maxsize is not an integer constant")
                continue
            wrapper = call
        function = decorated.get(id(wrapper))
        if function is None or function.name != "load_data" and _has_parameters(function):
            offences.append(f"{node.lineno}: unbounded {kind} of a function with parameters")
    return offences


def test_every_cache_in_src_is_bounded_or_keyed_by_nothing_but_bundled_files():
    package = Path(biokgr.__file__).resolve().parent
    assert [f"{path.relative_to(package)}:{offence}" for path in sorted(package.rglob("*.py"))
            for offence in cache_offences(path.read_text(encoding="utf-8"))] == []


@pytest.mark.parametrize("source, offences", [
    ("_label = lru_cache(maxsize=None)(normalize_label)",
     ["1: unbounded lru_cache of a function with parameters"]),
    ("_label = functools.cache(normalize_label)",
     ["1: unbounded cache of a function with parameters"]),
    ("@cache\ndef _label(raw):\n    return normalize_label(raw)",
     ["1: unbounded cache of a function with parameters"]),
    ("@functools.lru_cache(None)\ndef _label(raw, *, strict):\n    pass",
     ["1: unbounded lru_cache of a function with parameters"]),
    ("@lru_cache\ndef _label(raw):\n    pass", ["1: lru_cache without a maxsize"]),
    ("_label = lru_cache()(normalize_label)", ["1: lru_cache without a maxsize"]),
    ("_label = lru_cache(maxsize=size())(normalize_label)",
     ["1: lru_cache maxsize is not an integer constant"]),
    ("_KEYS = 4096\n_label = lru_cache(maxsize=_KEYS)(normalize_label)", []),
    ("_label = lru_cache(64, typed=True)(normalize_label)", []),
    ("@cache\ndef _rules():\n    pass", []),
    ("@lru_cache(maxsize=None)\ndef _rules():\n    pass", []),
    ("@cache\ndef load_data(name):\n    pass", []),
])
def test_the_cache_guard_refuses_an_unbounded_cache_of_a_function_with_parameters(source,
                                                                                  offences):
    assert cache_offences(source) == offences


# sha256 of the items each curate command writes for its `ITEM_WRITERS` inputs
CURATE_PINS = {
    "curate-flux":
        "96eb21fad8e34f516443ff99beaa4902377df9c7871e1c7267735a57e90196cc",
    "curate-sample-size":
        "2638415a2c248e25e718c49c6bd2ebe0b26361e82c234445863858082a5b08aa",
    "curate-regimen":
        "779d4a4724917b5e925d8ea7d038710fc48bcde5ff8ac77dc10365a78e775d60",
    "curate-surrogate":
        "439e146158c6db7c8cad35142d4009776585304fa4ef5dfa7a302cb6ccc0095e",
    "curate-ebm":
        "865f1356ac61dad43df9fb9369ee0a841ceb34d6ae25e5a49914ebd1cd5bd387",
}


@pytest.mark.parametrize("writer", CURATE_PINS)
def test_curate_output_bytes_are_pinned(runner, tmp_path, monkeypatch, writer):
    args, files = ITEM_WRITERS[writer]
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    invoke(runner, args + ["--out", "items.jsonl"])
    digest = hashlib.sha256((tmp_path / "items.jsonl").read_bytes()).hexdigest()
    assert digest == CURATE_PINS[writer]
