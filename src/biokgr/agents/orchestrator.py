"""The orchestrator: budget-guarded action selection and the run loop.

`step_orchestrator` validates one oracle proposal against the remaining
subagent budgets (a subagent proposal with zero budget left coerces to
Finalize; no proposal at all yields Halt) and appends its entry to the step
log. `OrchestratorRunner.run` drives the full loop, executing actions,
closing plan steps through `PlanChecklist.mark`, persisting the step log (the
transcript) and the evidence-graph snapshot into the run workspace, and
closing the workspace, which writes its manifest, when the run ends or raises.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from biokgr import jsonl_lines
from biokgr.agents.actions import (
    ACTION_NAMES,
    Action,
    AnalyzeWorkspace,
    Finalize,
    Halt,
    InvokeBFRS,
    InvokeDFRS,
    RetrieveGraph,
    UpdateGraph,
    action_to_dict,
)
from biokgr.agents.oracle import DefaultOracle
from biokgr.agents.plan import PlanChecklist
from biokgr.agents.research import run_bfrs, run_dfrs
from biokgr.agents.workspace import AnalysisError, Workspace, run_analysis
from biokgr.evidence import EvidenceGraphStore, EvidenceGraphError, export_graph

# subagent action -> (budget key and plan hint, runner)
SUBAGENTS = {InvokeBFRS: ("bfrs", run_bfrs), InvokeDFRS: ("dfrs", run_dfrs)}


@dataclass
class OrchestratorState:
    query: str
    plan: PlanChecklist
    budgets: dict
    workspace: Workspace
    graph: EvidenceGraphStore
    step_log: list = field(default_factory=list)   # append-only; the transcript
    candidates: list[str] = field(default_factory=list)  # sorted union of key entities
    answer: str | None = None


def step_orchestrator(state: OrchestratorState, observation: str, oracle) -> Action:
    """One decision step: oracle proposal validated against budgets."""
    proposed = oracle.choose_action(state, observation)
    subagent = SUBAGENTS.get(type(proposed))
    extra = {}
    if proposed is None:
        action: Action = Halt(reason="oracle proposed no tool action")
    elif subagent is not None and state.budgets.get(subagent[0], 0) <= 0:
        stats = state.graph.stats()
        action = Finalize(answer=(
            f"{subagent[0].upper()} budget exhausted; finalizing with current evidence "
            f"({stats['entities']} entities, {stats['relations']} relations)."
        ))
        extra["coerced"] = f"{ACTION_NAMES[type(proposed)]} with zero budget -> finalize"
    else:
        action = proposed
    _record(state, action, **extra)
    return action


def _record(state: OrchestratorState, action: Action, **extra) -> None:
    """Append `action`'s step-log entry, numbered by its index."""
    state.step_log.append({"step": len(state.step_log), "action": action_to_dict(action), **extra})


@dataclass
class RunResult:
    answer: str
    state: OrchestratorState
    transcript_path: str
    halted: bool = False


class OrchestratorRunner:
    def __init__(
        self,
        federation,
        oracle=None,
        bfrs_budget: int = 2,
        dfrs_budget: int = 2,
    ):
        for name, budget in (("bfrs_budget", bfrs_budget), ("dfrs_budget", dfrs_budget)):
            if budget < 0:
                raise ValueError(f"{name} must not be negative, got {budget}")
        self.federation = federation
        self.oracle = oracle or DefaultOracle()
        self.bfrs_budget = bfrs_budget
        self.dfrs_budget = dfrs_budget

    def run(self, query: str, workspace_root) -> RunResult:
        with Workspace(workspace_root) as workspace:
            state = OrchestratorState(
                query=query,
                plan=self.oracle.plan(query),
                budgets={"bfrs": self.bfrs_budget, "dfrs": self.dfrs_budget},
                workspace=workspace,
                graph=EvidenceGraphStore(),
            )
            observation = "run started"
            halted = False
            max_steps = self.bfrs_budget + self.dfrs_budget + 2 * len(state.plan.steps) + 8

            for _ in range(max_steps):
                before = (tuple(sorted(state.budgets.items())), state.plan.signature())
                action = step_orchestrator(state, observation, self.oracle)
                observation = self._execute(state, action)
                state.step_log[-1]["observation"] = observation
                if isinstance(action, (Finalize, Halt)):
                    halted = isinstance(action, Halt)
                    break
                after = (tuple(sorted(state.budgets.items())), state.plan.signature())
                if before == after:
                    # the action neither consumed budget nor advanced the plan
                    _record(state, Halt(reason="no progress"), observation="halted: no progress")
                    halted = True
                    break

            workspace.save_text(
                "transcript.jsonl",
                "".join(jsonl_lines(state.step_log)),
                "orchestrator action/observation log",
            )
            export_graph(state.graph, workspace.root / "evidence_graph.json")
            workspace.register("evidence_graph.json", "final evidence-graph snapshot")

        return RunResult(
            answer=state.answer or "halted without final answer",
            state=state,
            transcript_path=str(workspace.root / "transcript.jsonl"),
            halted=halted,
        )

    # -- action execution ------------------------------------------------------

    def _execute(self, state: OrchestratorState, action: Action) -> str:
        subagent = SUBAGENTS.get(type(action))
        if subagent is not None:
            kind, run_subagent = subagent
            report = run_subagent(action.task, self.federation, self.oracle, state.workspace)
            state.budgets[kind] -= 1
            state.candidates = sorted(set(state.candidates) | set(report.key_entities))
            state.plan.mark(kind)
            return report.render()
        if isinstance(action, UpdateGraph):
            try:
                report = state.graph.upsert_batch(action.batch)
            except EvidenceGraphError as exc:
                state.plan.mark("update_graph", "failed", str(exc))
                return f"graph update rejected: {exc}"
            state.plan.mark("update_graph")
            return (
                f"graph updated: created={report.created} merged={report.merged} "
                f"relations={report.relations_added} rejected={report.rejected}"
            )
        if isinstance(action, RetrieveGraph):
            subgraph = state.graph.query_subgraph(list(action.seeds), action.depth)
            state.plan.mark("retrieve_graph")
            return (
                f"retrieved subgraph: {len(subgraph['entities'])} entities, "
                f"{len(subgraph['relations'])} relations"
            )
        if isinstance(action, AnalyzeWorkspace):
            try:
                out = run_analysis(state.workspace, action.spec)
            except AnalysisError as exc:
                state.plan.mark("analyze", "failed", str(exc))
                return f"analysis failed: {exc}"
            state.plan.mark("analyze")
            return f"analysis wrote {out}"
        if isinstance(action, Finalize):
            state.answer = action.answer
            while any(s.status == "open" and s.hint == "finalize" for s in state.plan.steps):
                state.plan.mark("finalize")
            return "finalized"
        if isinstance(action, Halt):
            return f"halted: {action.reason}" if action.reason else "halted"
        raise TypeError(f"unknown action {action!r}")
