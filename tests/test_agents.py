"""Agent contracts: plans, budgets, reports, determinism, oracle protocol."""
import json
from pathlib import Path

import pytest

from biokgr.agents import (
    BudgetExhausted,
    DefaultOracle,
    Finalize,
    Halt,
    HttpOracle,
    InvalidStep,
    InvokeBFRS,
    OracleUnavailable,
    OrchestratorRunner,
    PlanChecklist,
    PlanStep,
    ResearchTask,
    Workspace,
    WorkspaceUnavailable,
    run_analysis,
    run_bfrs,
    run_dfrs,
    step_orchestrator,
    update_plan,
)
from biokgr.agents.oracle import ORACLE_SYSTEM_GUIDE
from biokgr.agents.orchestrator import OrchestratorState
from biokgr.evidence import EvidenceGraphStore
from biokgr.federation.client import RawResponse, TransportError

from fedmock import CountingClock, json_response, make_mock_federation


# -- plan checklist ----------------------------------------------------------------

def make_plan():
    return PlanChecklist(steps=[PlanStep("first"), PlanStep("second"), PlanStep("third")])


def test_done_renders_checkmark():
    plan = make_plan()
    update_plan(plan, 0, "done")
    rendered = plan.render()
    assert "1. [v] first (completed)" in rendered
    assert "2. [ ] second" in rendered


def test_failed_renders_x_with_note_and_replacement():
    plan = make_plan()
    update_plan(plan, 1, "failed", note="source offline", replacement="second (retry)")
    rendered = plan.render()
    assert "2. [x] second (failed: source offline)" in rendered
    assert "3. [ ] second (retry)" in rendered
    assert len(plan.steps) == 4


def test_remark_done_is_noop():
    plan = make_plan()
    update_plan(plan, 0, "done")
    update_plan(plan, 0, "done")
    assert plan.steps[0].status == "done"


def test_no_reversal_transitions():
    plan = make_plan()
    update_plan(plan, 0, "done")
    with pytest.raises(InvalidStep):
        update_plan(plan, 0, "failed")
    with pytest.raises(InvalidStep):
        update_plan(plan, 5, "done")


# -- workspace + analysis actions -----------------------------------------------------

def test_workspace_manifest_roundtrip(tmp_path):
    ws = Workspace(tmp_path / "run")
    ws.save_json("a.json", [{"name": "TNF"}], "one record")
    assert ws.exists("a.json")
    manifest = ws.manifest()
    assert manifest["files"][0] == {"path": "a.json", "description": "one record"}


def test_workspace_on_unwritable_root_is_unavailable(tmp_path):
    # a regular file in the directory position fails mkdir even for root
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    with pytest.raises(WorkspaceUnavailable):
        Workspace(blocker / "ws")


def test_analysis_filter_join_aggregate_dedup(tmp_path):
    ws = Workspace(tmp_path)
    ws.save_json("genes.json", [
        {"name": "TNF", "kind": "cytokine"},
        {"name": "IL6", "kind": "cytokine"},
        {"name": "EGFR", "kind": "receptor"},
        {"name": "TNF", "kind": "cytokine"},
    ], "genes")
    ws.save_json("extra.json", [{"name": "TNF", "score": 3}], "extra")

    out = run_analysis(ws, {"op": "filter", "input": "genes.json",
                            "where": {"kind": "cytokine"}, "out": "cytokines.json"})
    assert [r["name"] for r in ws.read_table(out)] == ["TNF", "IL6", "TNF"]

    out = run_analysis(ws, {"op": "dedup", "input": "cytokines.json",
                            "key": "name", "out": "unique.json"})
    assert [r["name"] for r in ws.read_table(out)] == ["TNF", "IL6"]

    out = run_analysis(ws, {"op": "join", "left": "unique.json",
                            "right": "extra.json", "on": "name", "out": "joined.json"})
    assert ws.read_table(out) == [{"name": "TNF", "kind": "cytokine", "score": 3}]

    out = run_analysis(ws, {"op": "aggregate", "input": "genes.json",
                            "group_by": "kind", "out": "counts.json"})
    assert ws.read_table(out) == [{"key": "cytokine", "count": 3},
                                  {"key": "receptor", "count": 1}]


def test_analysis_extract(tmp_path):
    ws = Workspace(tmp_path)
    ws.save_text("notes.txt", "see PMID:123 and PMID:456; also PMID:123", "notes")
    out = run_analysis(ws, {"op": "extract", "input": "notes.txt",
                            "pattern": r"PMID:\d+", "out": "pmids.json"})
    assert json.loads(ws.read_text(out)) == ["PMID:123", "PMID:456"]


# -- BFRS ------------------------------------------------------------------------------

QUERY = "TNF and IL6 drivers of intestinal inflammation"


def test_bfrs_respects_budget(tmp_path):
    federation = make_mock_federation()
    ws = Workspace(tmp_path)
    task = ResearchTask(description=QUERY, knowledge_bases=("mygene", "kegg", "pubmed"),
                        budget=2, mode="breadth")
    report = run_bfrs(task, federation, DefaultOracle(), ws)
    assert report.invocations <= 2
    assert federation.invocations <= 2


def test_bfrs_zero_budget(tmp_path):
    federation = make_mock_federation()
    task = ResearchTask(description=QUERY, knowledge_bases=("mygene",), budget=0)
    with pytest.raises(BudgetExhausted):
        run_bfrs(task, federation, DefaultOracle(), Workspace(tmp_path))


def test_bfrs_report_format(tmp_path):
    federation = make_mock_federation()
    task = ResearchTask(description=QUERY, knowledge_bases=("mygene", "kegg"),
                        budget=3, mode="breadth")
    report = run_bfrs(task, federation, DefaultOracle(), Workspace(tmp_path))
    rendered = report.render()
    assert rendered.startswith("# Files saved:")
    assert "Main findings:" in rendered
    assert len(rendered.splitlines()) <= 10


def test_bfrs_screens_by_relevance(tmp_path):
    federation = make_mock_federation()
    ws = Workspace(tmp_path)
    task = ResearchTask(description="TNF signaling only", knowledge_bases=("mygene",),
                        budget=1, mode="breadth")
    report = run_bfrs(task, federation, DefaultOracle(), ws)
    assert report.key_entities == ["TNF"]  # IL6 has no lexical overlap
    kept = ws.read_table("bfrs_screened.json")
    assert [r["name"] for r in kept] == ["TNF"]


def test_bfrs_manifest_paths_exist(tmp_path):
    federation = make_mock_federation()
    ws = Workspace(tmp_path)
    task = ResearchTask(description=QUERY, knowledge_bases=("mygene", "kegg"),
                        budget=2, mode="breadth")
    report = run_bfrs(task, federation, DefaultOracle(), ws)
    for path, _desc in report.files:
        assert ws.exists(path)


def test_bfrs_requires_breadth_mode(tmp_path):
    task = ResearchTask(description=QUERY, budget=1, mode="depth", seeds=("x",))
    with pytest.raises(ValueError):
        run_bfrs(task, make_mock_federation(), DefaultOracle(), Workspace(tmp_path))


# -- DFRS -------------------------------------------------------------------------------

def test_dfrs_citation_chain_depth(tmp_path):
    federation = make_mock_federation()
    ws = Workspace(tmp_path)
    task = ResearchTask(description="Trace citations from PMID:100",
                        budget=4, mode="depth", seeds=("PMID:100",))
    report = run_dfrs(task, federation, DefaultOracle(), ws)
    layers = [json.loads(ws.read_text(p)) for p, _d in report.files]
    assert len(layers) >= 2  # followed the chain at least two hops
    assert layers[0]["expanded"] == "PMID:100"
    assert layers[0]["children"] == ["PMID:200"]
    assert report.invocations <= 4


def test_dfrs_respects_budget(tmp_path):
    federation = make_mock_federation()
    task = ResearchTask(description="Trace citations from PMID:100",
                        budget=1, mode="depth", seeds=("PMID:100",))
    report = run_dfrs(task, federation, DefaultOracle(), Workspace(tmp_path))
    assert report.invocations == 1
    assert federation.invocations == 1


def test_dfrs_entity_expansion(tmp_path):
    federation = make_mock_federation()
    ws = Workspace(tmp_path)
    task = ResearchTask(description="TNF associated partners",
                        budget=2, mode="depth", seeds=("TNF",))
    report = run_dfrs(task, federation, DefaultOracle(), ws)
    assert "NFKB1" in report.key_entities
    assert "infliximab" in report.key_entities


def test_dfrs_absent_seed_reports_no_expansion(tmp_path):
    federation = make_mock_federation()
    ws = Workspace(tmp_path)
    task = ResearchTask(description="unknown entity probe",
                        budget=2, mode="depth", seeds=("GHOSTGENE",))
    report = run_dfrs(task, federation, DefaultOracle(), ws)
    rendered = report.render()
    assert len(rendered.splitlines()) <= 10
    layer0 = json.loads(ws.read_text(report.files[0][0]))
    assert layer0["children"] == []


def test_dfrs_deterministic_expansion_order(tmp_path):
    task = ResearchTask(description="Trace citations from PMID:100",
                        budget=4, mode="depth", seeds=("PMID:100",))
    ws1 = Workspace(tmp_path / "a")
    ws2 = Workspace(tmp_path / "b")
    r1 = run_dfrs(task, make_mock_federation(), DefaultOracle(), ws1)
    r2 = run_dfrs(task, make_mock_federation(), DefaultOracle(), ws2)
    assert [p for p, _ in r1.files] == [p for p, _ in r2.files]
    for path, _ in r1.files:
        assert ws1.read_text(path) == ws2.read_text(path)


# -- orchestrator -----------------------------------------------------------------------

def make_state(tmp_path, budgets=None):
    oracle = DefaultOracle()
    return OrchestratorState(
        query=QUERY,
        plan=oracle.plan(QUERY),
        budgets=budgets or {"bfrs": 2, "dfrs": 2},
        workspace=Workspace(tmp_path),
        graph=EvidenceGraphStore(),
    )


def test_step_proposes_bfrs_first(tmp_path):
    state = make_state(tmp_path)
    action = step_orchestrator(state, "run started", DefaultOracle())
    assert isinstance(action, InvokeBFRS)
    assert action.task.mode == "breadth"
    assert state.step_log  # appended


def test_step_coerces_to_finalize_on_zero_budget(tmp_path):
    state = make_state(tmp_path, budgets={"bfrs": 0, "dfrs": 0})
    action = step_orchestrator(state, "x", DefaultOracle())
    assert isinstance(action, Finalize)
    assert any("coerced" in entry for entry in map(str, state.step_log))


def test_step_halts_when_oracle_declines(tmp_path):
    class NoneOracle(DefaultOracle):
        def choose_action(self, state, observation):
            return None

    state = make_state(tmp_path)
    action = step_orchestrator(state, "x", NoneOracle())
    assert isinstance(action, Halt)


def test_full_run_terminates_and_answers(tmp_path):
    runner = OrchestratorRunner(make_mock_federation(), DefaultOracle(),
                                bfrs_budget=1, dfrs_budget=1)
    result = runner.run(QUERY, tmp_path / "run")
    assert result.answer.startswith("Research complete")
    assert not result.halted
    assert result.state.budgets == {"bfrs": 0, "dfrs": 0}
    assert all(s.status == "done" for s in result.state.plan.steps)


def test_full_run_writes_transcript_and_graph(tmp_path):
    runner = OrchestratorRunner(make_mock_federation(), DefaultOracle(),
                                bfrs_budget=1, dfrs_budget=1)
    result = runner.run(QUERY, tmp_path / "run")
    lines = Path(result.transcript_path).read_text(encoding="utf-8").splitlines()
    transcript = [json.loads(l) for l in lines]
    assert transcript[0]["action"]["action"] == "invoke_bfrs"
    assert transcript[-1]["action"]["action"] == "finalize"
    ws = result.state.workspace
    assert ws.exists("evidence_graph.json")
    graph_doc = json.loads(ws.read_text("evidence_graph.json"))
    assert graph_doc["entities"]  # candidates were recorded


def test_full_run_byte_identical(tmp_path):
    def run(into):
        runner = OrchestratorRunner(make_mock_federation(), DefaultOracle(),
                                    bfrs_budget=2, dfrs_budget=1)
        return runner.run(QUERY, into)

    r1 = run(tmp_path / "one")
    r2 = run(tmp_path / "two")
    files1 = sorted(p.relative_to(tmp_path / "one") for p in (tmp_path / "one").rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(tmp_path / "two") for p in (tmp_path / "two").rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (tmp_path / "one" / rel).read_bytes() == (tmp_path / "two" / rel).read_bytes()
    assert r1.answer == r2.answer


def test_budgets_never_negative_and_log_append_only(tmp_path):
    runner = OrchestratorRunner(make_mock_federation(), DefaultOracle(),
                                bfrs_budget=1, dfrs_budget=0)
    result = runner.run(QUERY, tmp_path / "run")
    assert all(v >= 0 for v in result.state.budgets.values())
    steps = [e.get("step") for e in result.state.step_log if "step" in e]
    assert steps == sorted(steps)


# -- http oracle --------------------------------------------------------------------------

class OracleTransport:
    """Answers each oracle post from a handler of the decoded body; records what was sent."""

    def __init__(self, handler):
        self.handler = handler
        self.sent = []

    def send(self, method, url, params, headers, body):
        self.sent.append((method, url, headers, body))
        return self.handler(json.loads(body))


def assistant(content: dict) -> RawResponse:
    return json_response({"message": {"role": "assistant", "content": json.dumps(content)}})


def scripted(*responses):
    """A handler that returns (or raises) the given responses in order."""
    queue = list(responses)

    def handler(body):
        item = queue.pop(0)
        if isinstance(item, Exception):
            raise item
        return item

    return handler


def make_oracle(handler):
    transport = OracleTransport(handler)
    clock = CountingClock()
    oracle = HttpOracle("http://oracle.test/chat/", transport=transport, clock=clock)
    return oracle, transport, clock


def test_http_oracle_plan_and_action():
    def handler(body):
        request = json.loads(body["messages"][1]["content"])
        assert body["messages"][0]["role"] == "system"
        if request["op"] == "plan":
            return assistant({"steps": [{"text": "survey", "hint": "bfrs"},
                                        {"text": "wrap up", "hint": "finalize"}]})
        if request["op"] == "choose_action":
            return assistant({"action": "finalize", "answer": "done"})
        return assistant({"score": 0.75})

    oracle, transport, _clock = make_oracle(handler)
    plan = oracle.plan("query")
    assert [s.hint for s in plan.steps] == ["bfrs", "finalize"]
    assert oracle.score_relevance("a", "b") == 0.75

    state = OrchestratorState(query="q", plan=plan, budgets={"bfrs": 1, "dfrs": 1},
                              workspace=None, graph=EvidenceGraphStore())
    action = oracle.choose_action(state, "obs")
    assert isinstance(action, Finalize) and action.answer == "done"

    method, url, headers, body = transport.sent[0]
    assert (method, url) == ("POST", "http://oracle.test/chat")
    assert headers == {"Content-Type": "application/json"}
    assert body == json.dumps({"messages": [
        {"role": "system", "content": ORACLE_SYSTEM_GUIDE},
        {"role": "user", "content": json.dumps({"op": "plan", "query": "query"},
                                                sort_keys=True)},
    ]})


def test_http_oracle_unavailable_after_retries():
    oracle, transport, clock = make_oracle(scripted(*[TransportError("refused")] * 4))
    with pytest.raises(OracleUnavailable, match="refused"):
        oracle.plan("q")
    assert len(transport.sent) == 3
    assert clock.now() == 0.5 + 1.0


@pytest.mark.parametrize("status", [503, 429])
def test_http_oracle_retries_a_transient_status_after_backoff(status):
    oracle, transport, clock = make_oracle(scripted(
        json_response({}, status=status), assistant({"score": 0.25}),
    ))
    assert oracle.score_relevance("a", "b") == 0.25
    assert len(transport.sent) == 2
    assert clock.now() == 0.5


def test_http_oracle_client_error_fails_at_once():
    oracle, transport, clock = make_oracle(scripted(json_response({}, status=404)))
    with pytest.raises(OracleUnavailable, match="HTTP 404"):
        oracle.plan("q")
    assert len(transport.sent) == 1
    assert clock.now() == 0.0


@pytest.mark.parametrize("reply", [
    json_response({"message": {"role": "assistant"}}),
    json_response({"choices": []}),
    json_response({"message": {"content": "not json"}}),
    json_response({"message": {"content": "[1, 2]"}}),
    json_response(["not", "an", "object"]),
    RawResponse(status=200, body="<html>gateway</html>", headers={"Content-Type": "text/html"}),
])
def test_http_oracle_bad_output_fails_at_once(reply):
    oracle, transport, clock = make_oracle(scripted(reply, reply))
    with pytest.raises(OracleUnavailable):
        oracle.plan("q")
    assert len(transport.sent) == 1
    assert clock.now() == 0.0


def test_http_oracle_none_action_maps_to_halt(tmp_path):
    def handler(body):
        request = json.loads(body["messages"][1]["content"])
        if request["op"] == "plan":
            return assistant({"steps": [{"text": "noop", "hint": "bfrs"}]})
        return assistant({"action": "none"})

    oracle, _transport, _clock = make_oracle(handler)
    state = OrchestratorState(query="q", plan=oracle.plan("q"),
                              budgets={"bfrs": 1, "dfrs": 1},
                              workspace=Workspace(tmp_path), graph=EvidenceGraphStore())
    action = step_orchestrator(state, "obs", oracle)
    assert isinstance(action, Halt)


def test_analyze_workspace_action_roundtrip(tmp_path):
    # orchestrator executes a typed analysis action end to end
    federation = make_mock_federation()
    runner = OrchestratorRunner(federation, DefaultOracle(), bfrs_budget=1, dfrs_budget=1)
    result = runner.run(QUERY, tmp_path / "run")
    ws = result.state.workspace
    out = run_analysis(ws, {"op": "dedup", "input": "bfrs_screened.json",
                            "key": "name", "out": "dedup.json"})
    names = [r["name"] for r in ws.read_table(out)]
    assert names == sorted(set(names), key=names.index)
