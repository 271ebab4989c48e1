"""Decision oracles: the pluggable planner / action chooser / relevance scorer.

`DefaultOracle` is fully deterministic so the entire pipeline is testable
without any model: plans come from task templates, relevance is normalized
lexical overlap, expansion order breaks ties lexicographically. `HttpOracle`
speaks a chat-completion-style JSON protocol to an external endpoint and is
treated strictly as a wire format. It posts through a `KgClient`, so it shares
the knowledge-base clients' transport, clock and retry policy: HTTP 429/5xx
and transport errors are retried with exponential backoff, and any other
failure raises `OracleUnavailable` at once.
"""
from __future__ import annotations

import json
import math
import re

from biokgr import Error, field, parse_json
from biokgr.agents.actions import (
    Action,
    AnalyzeWorkspace,
    Finalize,
    Halt,
    InvokeBFRS,
    InvokeDFRS,
    ResearchTask,
    RetrieveGraph,
    UpdateGraph,
    action_from_dict,
    plan_steps_from_dict,
)
from biokgr.agents.plan import PlanChecklist, PlanStep
from biokgr.evidence import EntityRef, MergeBatch, Observation
from biokgr.federation import FederationError, FetchRequest, KgClient, SourceDescriptor

_TOKEN = re.compile(r"[A-Za-z0-9:]+")
_PMID_TOKEN = re.compile(r"^pmid:?\d*$|^\d{4,}$")
TASK_BUDGET = 3  # federation invocations per delegated subagent task

ORACLE_SYSTEM_GUIDE = (
    "You drive a budgeted knowledge-graph research loop. Requests arrive as "
    "JSON with an 'op' field (plan, choose_action, score). Reply with a single "
    "JSON object. For plan: {\"steps\": [{\"text\":..., \"hint\":...}]} where "
    "hint is one of bfrs, dfrs, update_graph, retrieve_graph, analyze, "
    "finalize. For choose_action: one action object such as "
    "{\"action\": \"invoke_bfrs\", \"task\": {...}} or {\"action\": \"none\"}. "
    "For score: {\"score\": <float in [0,1]>}. Keep subagent reports under 10 "
    "lines; render plans as numbered checkboxes ([ ] open, [v] done, [x] failed)."
)


class OracleUnavailable(Error):
    pass


def tokenize(text: str) -> set[str]:
    return {t.casefold() for t in _TOKEN.findall(text or "") if len(t) > 1}


class DefaultOracle:
    """Deterministic planner and scorer; the reference pipeline driver."""

    # the last target `score_relevance` saw, its tokens, and whether one is PMID-like
    _target = (None, frozenset(), False)

    def __init__(self, knowledge_bases=("mygene", "kegg", "pubmed")):
        self.knowledge_bases = tuple(knowledge_bases)

    # -- planning -------------------------------------------------------------

    def plan(self, query: str) -> PlanChecklist:
        return PlanChecklist(
            steps=[
                PlanStep(text=f"Survey knowledge bases for entities related to: {query}",
                         hint="bfrs"),
                PlanStep(text="Deepen evidence chains from the strongest candidates",
                         hint="dfrs"),
                PlanStep(text="Record screened findings in the evidence graph",
                         hint="update_graph"),
                PlanStep(text="Review the accumulated evidence and finalize the answer",
                         hint="finalize"),
            ]
        )

    # -- relevance ---------------------------------------------------------------

    def score_relevance(self, candidate: str, target: str) -> float:
        """Normalized lexical/identifier overlap between candidate and target.

        Exact token overlap is the base signal; a candidate carrying a
        publication identifier counts as half-relevant whenever the target is
        itself framed around publication identifiers (citation chains).

        The subagents score many candidates against one target in a row, so
        the oracle keeps the last target's tokens: a call with the same target
        tokenizes only the candidate. The memo holds one target, never more.
        """
        last, target_tokens, target_cites = self._target
        if target != last:
            target_tokens = tokenize(target)
            target_cites = any(_PMID_TOKEN.match(t) for t in target_tokens)
            self._target = (target, target_tokens, target_cites)
        if not target_tokens:
            return 0.0
        candidate_tokens = tokenize(candidate)
        score = min(1.0, len(candidate_tokens & target_tokens) / len(target_tokens))
        if target_cites and any(_PMID_TOKEN.match(t) for t in candidate_tokens):
            score = max(score, 0.5)
        return score

    # -- action choice --------------------------------------------------------------

    def choose_action(self, state, observation: str) -> Action | None:
        index = state.plan.first_open()
        if index is None:
            return Finalize(answer=self._answer(state))
        hint = state.plan.steps[index].hint

        if hint == "bfrs":
            return InvokeBFRS(
                ResearchTask(
                    description=state.query,
                    entities=tuple(sorted(tokenize(state.query)))[:5],
                    knowledge_bases=self.knowledge_bases,
                    budget=TASK_BUDGET,
                    mode="breadth",
                )
            )
        if hint == "dfrs":
            seeds = tuple(state.candidates[:3])
            return InvokeDFRS(
                ResearchTask(
                    description=state.query,
                    knowledge_bases=self.knowledge_bases,
                    budget=TASK_BUDGET,
                    mode="depth",
                    seeds=seeds or (state.query,),
                )
            )
        if hint == "update_graph":
            return UpdateGraph(self._batch_from_candidates(state))
        if hint == "retrieve_graph":
            return RetrieveGraph(seeds=tuple(sorted(tokenize(state.query)))[:3])
        if hint == "analyze":
            return AnalyzeWorkspace({"op": "dedup", "input": "bfrs_screened.json",
                                     "key": "name", "out": "bfrs_deduped.json"})
        if hint == "finalize":
            return Finalize(answer=self._answer(state))
        return Halt(reason=f"no handler for plan hint {hint!r}")

    def _batch_from_candidates(self, state) -> MergeBatch:
        candidates = state.candidates[:8]
        entities = tuple(
            EntityRef(name=name, kind="GENE_PROTEIN", source="federated-search")
            for name in candidates
            if name
        )
        observations = tuple(
            Observation(entity=name, text=f"Surfaced while researching: {state.query[:80]}")
            for name in candidates[:3]
        )
        return MergeBatch(entities=entities, observations=observations,
                          cycle_id=f"cycle-{len(state.step_log)}")

    def _answer(self, state) -> str:
        stats = state.graph.stats()
        top = ", ".join(state.candidates[:5]) or "none"
        return (
            f"Research complete for: {state.query}. Evidence graph holds "
            f"{stats['entities']} entities and {stats['relations']} relations. "
            f"Leading candidates: {top}."
        )


# -- external oracle ------------------------------------------------------------------


class HttpOracle:
    """Chat-completion-style JSON-over-HTTP oracle client.

    Request body: {"messages": [{"role": "system", ...}, {"role": "user", ...}]}
    where the user content is the JSON-encoded request. Response body:
    {"message": {"role": "assistant", "content": "<json object>"}}.
    """

    def __init__(self, endpoint: str, transport=None, clock=None):
        self.endpoint = endpoint
        # The endpoint is a deployment address, not a registered source: no
        # rate limit, no URL override and no API key from the environment.
        self._client = KgClient(
            SourceDescriptor(source_id="oracle", base_url=endpoint,
                             rate_limit_per_sec=math.inf),
            transport=transport, clock=clock, env={},
        )

    def _call(self, what: str, read, request: dict):
        """Post `request`; returns `read` applied to the reply's JSON object.

        A failed post, or a reply `read` cannot decode, raises `OracleUnavailable`.
        """
        body = json.dumps({
            "messages": [
                {"role": "system", "content": ORACLE_SYSTEM_GUIDE},
                {"role": "user", "content": json.dumps(request, sort_keys=True)},
            ]
        })
        try:
            reply = self._client.fetch_with_policy(FetchRequest(
                path="", method="POST", body=body,
                headers={"Content-Type": "application/json"},
            ))
        except FederationError as exc:
            raise OracleUnavailable(f"oracle endpoint {self.endpoint}: {exc}") from exc
        try:
            return read(parse_json(field(field(reply, "message", dict), "content", str)))
        except ValueError as exc:
            raise OracleUnavailable(
                f"oracle endpoint {self.endpoint} sent a malformed {what}: {exc}") from exc

    def plan(self, query: str) -> PlanChecklist:
        steps = self._call("plan", plan_steps_from_dict, {"op": "plan", "query": query})
        if not steps:
            steps = [PlanStep(text=f"Investigate: {query}", hint="finalize")]
        return PlanChecklist(steps=steps)

    def score_relevance(self, candidate: str, target: str) -> float:
        score = self._call("score", lambda payload: field(payload, "score", object, 0.0),
                           {"op": "score", "candidate": candidate, "target": target})
        try:
            return max(0.0, min(1.0, float(score)))
        except (TypeError, ValueError):
            return 0.0

    def choose_action(self, state, observation: str) -> Action | None:
        return self._call("action", action_from_dict, {
            "op": "choose_action",
            "query": state.query,
            "plan": state.plan.render(),
            "budgets": dict(state.budgets),
            "observation": observation,
            "graph_stats": state.graph.stats(),
        })
