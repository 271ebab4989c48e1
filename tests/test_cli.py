"""CLI surface: every documented subcommand works end to end on fixtures."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import biokgr
from biokgr.cli import main
from biokgr.evidence import EntityRef, EvidenceGraphStore, MergeBatch, export_graph
from biokgr.federation.mockserver import FixtureServer

from corpusgen import make_review_xml, regimen_corpus
from fedmock import json_response, text_response
from kgmlgen import egfr_cancer_kgml, pde4_inflammation_kgml, shmt2_flux_kgml, ulcerative_colitis_kgml
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


def test_curate_flux(runner, tmp_path):
    (tmp_path / "kgml").mkdir()
    (tmp_path / "kgml" / "hsa00670.xml").write_text(shmt2_flux_kgml())
    out = tmp_path / "items.jsonl"
    invoke(runner, ["curate", "flux", "--kgml-dir", str(tmp_path / "kgml"),
                    "--target", "SHMT2", "--seed", "3", "--out", str(out)])
    items = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(items) == 1
    assert len(items[0]["options"]) == 7


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
    assert rows[0]["truth"] == [300, 400]

    predictions = tmp_path / "preds.jsonl"
    # entries that are not PMIDs are skipped, as `bench score` skips them
    for ranked in ([300, 999], ["PMID:300", "n/a", None, "999"]):
        predictions.write_text(json.dumps({"base_doi": base, "ranked": ranked}) + "\n")
        result = invoke(runner, ["score", "ebm", "--tasks", str(tasks),
                                 "--predictions", str(predictions)])
        payload = json.loads(result.output)
        assert payload["gap_detection_rate"] == 1.0
        assert payload["mean_recall_at_30"] == 0.5


@pytest.mark.parametrize("task, prediction, missing", [
    ({"base_doi": "10.1/a", "truth": [1]}, {"ranked": [1]}, "preds.jsonl row 1 lacks 'base_doi'"),
    ({"truth": [1]}, {"base_doi": "10.1/a", "ranked": [1]}, "tasks.jsonl row 1 lacks 'base_doi'"),
    ({"base_doi": "10.1/a"}, {"base_doi": "10.1/a", "ranked": [1]},
     "tasks.jsonl row 1 lacks 'truth'"),
], ids=["prediction-without-doi", "task-without-doi", "task-without-truth"])
def test_score_ebm_reports_a_row_without_a_field_in_one_line(runner, tmp_path, task,
                                                             prediction, missing):
    tasks, predictions = tmp_path / "tasks.jsonl", tmp_path / "preds.jsonl"
    tasks.write_text(json.dumps(task) + "\n")
    predictions.write_text(json.dumps(prediction) + "\n")
    result = runner.invoke(main, ["score", "ebm", "--tasks", str(tasks),
                                  "--predictions", str(predictions)], catch_exceptions=False)
    assert result.exit_code != 0
    assert result.output.startswith("Error: ") and missing in result.output
    assert result.output.count("\n") == 1


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


ITEM = {"id": "x", "family": "hle_med", "question": {"text": "q"}, "answer_key": ["A"]}
TASK = {"base_doi": "10.1/a", "truth": [1]}
BENCH_SCORE = ["bench", "score", "--items", "items.jsonl", "--predictions", "preds.jsonl",
               "--report", "report"]
SCORE_EBM = ["score", "ebm", "--tasks", "tasks.jsonl", "--predictions", "preds.jsonl"]
REGIMEN = ["curate", "regimen", "--corpus", "corpus.json", "--out", "items.jsonl"]


def _rows(*rows):
    return "".join(row if isinstance(row, str) else json.dumps(row) + "\n" for row in rows)


# one malformed input file per case; each must end its command in one `Error:` line
MALFORMED_INPUTS = {
    "bench-item-without-family": (
        BENCH_SCORE, {"items.jsonl": _rows({k: v for k, v in ITEM.items() if k != "family"}),
                      "preds.jsonl": _rows({"id": "x", "prediction": "A"})},
        "items.jsonl row 1 lacks 'family'"),
    "bench-item-a-list": (
        BENCH_SCORE, {"items.jsonl": _rows(["x", "hle_med"]),
                      "preds.jsonl": _rows({"id": "x", "prediction": "A"})},
        "items.jsonl row 1 lacks 'id'"),
    "bench-item-not-json": (
        BENCH_SCORE, {"items.jsonl": _rows(ITEM, "{not json\n"),
                      "preds.jsonl": _rows({"id": "x", "prediction": "A"})},
        "items.jsonl row 2 is not JSON"),
    "bench-item-string-question": (
        BENCH_SCORE, {"items.jsonl": _rows({**ITEM, "question": "q"}),
                      "preds.jsonl": _rows({"id": "x", "prediction": "A"})},
        "items.jsonl row 1 field 'question' is not dict"),
    "bench-export-without-id": (
        ["bench", "prepare", "--benchmark", "hle_med", "--in", "raw.json", "--out", "items.jsonl"],
        {"raw.json": json.dumps([{"subject": "Medicine", "question": "q", "answer": "A"}])},
        "hle_med record lacks 'id'"),
    "bench-export-of-numbers": (
        ["bench", "prepare", "--benchmark", "hle_med", "--in", "raw.json", "--out", "items.jsonl"],
        {"raw.json": "[1, 2]"},
        "hle_med record lacks 'subject': 1 is not an object"),
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
    "ebm-prediction-not-json": (
        SCORE_EBM, {"tasks.jsonl": _rows(TASK), "preds.jsonl": "{not json\n"},
        "preds.jsonl row 1 is not JSON"),
    "ebm-truth-not-a-list": (
        SCORE_EBM, {"tasks.jsonl": _rows({**TASK, "truth": 1}),
                    "preds.jsonl": _rows({"base_doi": "10.1/a", "ranked": [1]})},
        "tasks.jsonl row 1 field 'truth' is not list of int"),
    "sample-size-truth-not-json": (
        ["curate", "sample-size", "--truths", "truths.jsonl", "--out", "items.jsonl"],
        {"truths.jsonl": _rows({"truth": 268}, "{not json\n")},
        "truths.jsonl row 2 is not JSON"),
}


@pytest.mark.parametrize("args, files, message", MALFORMED_INPUTS.values(),
                         ids=MALFORMED_INPUTS.keys())
def test_a_malformed_input_file_is_a_one_line_error(runner, tmp_path, monkeypatch, args, files,
                                                    message):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 1
    assert result.output.startswith("Error: ") and message in result.output
    assert result.output.count("\n") == 1


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
            "print(sorted({'networkx', 'requests', 'urllib3'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


FIELD_CHECKERS = {"_field", "_get", "_items", "_strings", "_records", "_require", "_rows_with"}


def reader_offences(package: Path) -> list[str]:
    """Private field checkers outside `biokgr/__init__.py`, and CLI handlers that re-raise
    a library failure as `ClickException` instead of leaving it to `main`."""
    offences = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offences += [f"{path.name}:{node.lineno} defines {node.name}" for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef) and node.name in FIELD_CHECKERS]
    cli = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    for handler in (node for node in ast.walk(cli) if isinstance(node, ast.ExceptHandler)):
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                callee = node.exc.func
                if getattr(callee, "attr", getattr(callee, "id", None)) == "ClickException":
                    offences.append(f"cli.py:{node.lineno} raises ClickException in a handler")
    return offences


def test_outside_input_has_one_reader_and_the_cli_one_error_boundary():
    assert reader_offences(Path(biokgr.__file__).resolve().parent) == []


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
