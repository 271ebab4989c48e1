"""Orchestrator state machine and budgeted breadth/depth research agents."""
from biokgr.agents.plan import PlanChecklist, PlanStep
from biokgr.agents.actions import (
    Action,
    AgentReport,
    AnalyzeWorkspace,
    Finalize,
    Halt,
    InvokeBFRS,
    InvokeDFRS,
    ResearchTask,
    RetrieveGraph,
    UpdateGraph,
)
from biokgr.agents.workspace import Workspace, run_analysis
from biokgr.agents.oracle import DefaultOracle, HttpOracle, OracleUnavailable
from biokgr.agents.research import run_bfrs, run_dfrs
from biokgr.agents.orchestrator import (
    OrchestratorRunner,
    OrchestratorState,
    RunResult,
    step_orchestrator,
)

__all__ = [
    "PlanChecklist",
    "PlanStep",
    "Action",
    "AgentReport",
    "AnalyzeWorkspace",
    "Finalize",
    "Halt",
    "InvokeBFRS",
    "InvokeDFRS",
    "ResearchTask",
    "RetrieveGraph",
    "UpdateGraph",
    "Workspace",
    "run_analysis",
    "DefaultOracle",
    "HttpOracle",
    "OracleUnavailable",
    "run_bfrs",
    "run_dfrs",
    "OrchestratorRunner",
    "OrchestratorState",
    "RunResult",
    "step_orchestrator",
]
