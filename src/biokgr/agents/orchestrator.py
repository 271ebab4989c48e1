"""The orchestrator: budget-guarded action selection and the run loop.

`step_orchestrator` validates one oracle proposal against the remaining
subagent budgets, keyed by plan step (a subagent proposal with zero budget
left coerces to Finalize; no proposal at all yields Halt) and appends its entry
to the step log. `OrchestratorRunner.run` drives the full loop: it executes
each action, closes the plan step the action's class declares through one
`PlanChecklist.mark` call, halts when an action neither ran a subagent nor
closed a step, persists the step log (the transcript) and the evidence-graph
snapshot into the run workspace, and closes the workspace, which writes its
manifest, when the run ends or raises.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from biokgr import jsonl_lines
from biokgr.agents.actions import (
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

# subagent action -> its runner; the action's plan step keys its budget
SUBAGENTS = {InvokeBFRS: run_bfrs, InvokeDFRS: run_dfrs}


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
    extra = {}
    if proposed is None:
        action: Action = Halt(reason="oracle proposed no tool action")
    elif type(proposed) in SUBAGENTS and state.budgets.get(proposed.plan_step, 0) <= 0:
        stats = state.graph.stats()
        action = Finalize(answer=(
            f"{proposed.plan_step.upper()} budget exhausted; finalizing with current evidence "
            f"({stats['entities']} entities, {stats['relations']} relations)."
        ))
        extra["coerced"] = f"{proposed.wire_name} with zero budget -> finalize"
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
        self.budgets = {InvokeBFRS.plan_step: bfrs_budget, InvokeDFRS.plan_step: dfrs_budget}

    def run(self, query: str, workspace_root) -> RunResult:
        with Workspace(workspace_root) as workspace:
            state = OrchestratorState(
                query=query,
                plan=self.oracle.plan(query),
                budgets=dict(self.budgets),
                workspace=workspace,
                graph=EvidenceGraphStore(),
            )
            observation = "run started"
            halted = False
            max_steps = sum(self.budgets.values()) + 2 * len(state.plan.steps) + 8

            for _ in range(max_steps):
                action = step_orchestrator(state, observation, self.oracle)
                observation, progressed = self._execute(state, action)
                state.step_log[-1]["observation"] = observation
                if isinstance(action, (Finalize, Halt)):
                    halted = isinstance(action, Halt)
                    break
                if not progressed:
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

    def _execute(self, state: OrchestratorState, action: Action) -> tuple[str, bool]:
        """Run `action` and close its plan step; returns the observation and whether the
        run progressed: a subagent ran or a step closed."""
        outcome, note = "done", ""
        run_subagent = SUBAGENTS.get(type(action))
        if run_subagent is not None:
            report = run_subagent(action.task, self.federation, self.oracle, state.workspace)
            state.budgets[action.plan_step] -= 1
            state.candidates = sorted(set(state.candidates) | set(report.key_entities))
            observation = report.render()
        elif isinstance(action, UpdateGraph):
            try:
                report = state.graph.upsert_batch(action.batch)
            except EvidenceGraphError as exc:
                outcome, note = "failed", str(exc)
                observation = f"graph update rejected: {exc}"
            else:
                observation = (
                    f"graph updated: created={report.created} merged={report.merged} "
                    f"relations={report.relations_added} rejected={report.rejected}"
                )
        elif isinstance(action, RetrieveGraph):
            subgraph = state.graph.query_subgraph(list(action.seeds), action.depth)
            observation = (
                f"retrieved subgraph: {len(subgraph['entities'])} entities, "
                f"{len(subgraph['relations'])} relations"
            )
        elif isinstance(action, AnalyzeWorkspace):
            try:
                observation = f"analysis wrote {run_analysis(state.workspace, action.spec)}"
            except AnalysisError as exc:
                outcome, note = "failed", str(exc)
                observation = f"analysis failed: {exc}"
        elif isinstance(action, Finalize):
            state.answer = action.answer
            while any(s.status == "open" and s.hint == action.plan_step for s in state.plan.steps):
                state.plan.mark(action.plan_step)
            return "finalized", True
        elif isinstance(action, Halt):
            return (f"halted: {action.reason}" if action.reason else "halted"), False
        else:
            raise TypeError(f"unknown action {action!r}")
        closed = state.plan.mark(action.plan_step, outcome, note)
        return observation, run_subagent is not None or closed
