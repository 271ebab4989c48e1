"""The breadth-first and depth-first research subagents.

Both stay within an explicit budget of federation calls (a call's retries
count in `Federation.invocations`, not against the budget), screen what they
retrieve through the oracle's relevance scores, one oracle call per BFRS search
and per DFRS layer, persist results to the run workspace, and return a report
of at most ten lines.
"""
from __future__ import annotations

import logging
import re

from biokgr.agents.actions import AgentReport, ResearchTask
from biokgr.agents.workspace import Workspace
from biokgr.evidence import EntityRef
from biokgr.federation import FederationError, QuerySpec

logger = logging.getLogger(__name__)

SCREEN_THRESHOLD = 0.0  # keep candidates with any lexical relevance
_PMID_LIKE = re.compile(r"^(?:PMID:\d+|\d{4,})$", re.IGNORECASE)


def run_bfrs(task: ResearchTask, federation, oracle, workspace: Workspace) -> AgentReport:
    """Broad first-hop survey across the task's knowledge bases.

    One unified search per knowledge base, at most `task.budget` federation
    calls in total, however many attempts each takes; retrieved records are
    screened by oracle relevance against the task target and persisted per
    source plus as a combined table.
    """
    target = " ".join((task.description, *task.entities))
    spent = 0
    total = 0
    kept: list[dict] = []
    files: list[tuple[str, str]] = []
    failures: list[str] = []

    for kb in task.knowledge_bases:
        if spent >= task.budget:
            break
        spent += 1
        try:
            result = federation.search_entities_unified(
                QuerySpec(kind=task.entity_kind, text=task.description, sources=(kb,))
            )
        except FederationError:  # the search has logged the source's failure
            failures.append(kb)
            continue
        total += len(result.records)
        scores = oracle.score_relevance(
            [f"{record.name} {' '.join(record.xrefs.values())}" for record in result.records],
            target)
        screened = [record for record, score in zip(result.records, scores, strict=True)
                    if score > SCREEN_THRESHOLD]
        rows = [record.to_dict() for record in screened]
        kept.extend(rows)
        relpath = workspace.save_json(
            f"bfrs_{kb}.json", rows, f"screened {kb} records for: {task.description[:60]}"
        )
        files.append((relpath, f"screened {kb} records"))

    combined = workspace.save_json(
        "bfrs_screened.json", kept, "all screened records across knowledge bases"
    )
    files.append((combined, "combined screened records"))

    names = sorted({row["name"] for row in kept})
    findings = (
        f"Kept {len(kept)}/{total} records from {spent} knowledge-base searches"
        + (f" ({len(failures)} source(s) failed)" if failures else "")
        + (f"; leading candidates: {', '.join(names[:4])}." if names else ".")
    )
    return AgentReport(files=files, findings=findings, key_entities=names)


def run_dfrs(task: ResearchTask, federation, oracle, workspace: Workspace) -> AgentReport:
    """Iterative deepening over relation/citation links from the seeds.

    Each layer, the oracle scores the frontier and the top-scoring node
    (lexicographic tie-break) is expanded: PMID-like nodes through citation
    links, entity nodes through typed relation search. Stops at budget
    exhaustion or when no frontier node scores above zero.
    """
    seeds = task.seeds or (task.description,)

    frontier = sorted(set(seeds))
    visited: set[str] = set()
    layers: list[dict] = []
    files: list[tuple[str, str]] = []
    spent = 0

    while frontier and spent < task.budget:
        scores = oracle.score_relevance(frontier, task.description)
        scored = sorted(zip(scores, frontier, strict=True), key=lambda pair: (-pair[0], pair[1]))
        promising = [node for score, node in scored if score > 0]
        if not promising:
            if layers:  # beyond the seed layer, nothing promising: stop
                break
            promising = [node for _score, node in scored]
        node = promising[0]
        visited.add(node)
        spent += 1

        try:
            children = _expand(federation, node)
        except FederationError as exc:
            logger.warning("DFRS expansion of %r failed: %s", node, exc)
            children = []

        layer = {"layer": len(layers), "expanded": node, "children": sorted(children)}
        layers.append(layer)
        relpath = workspace.save_json(
            f"dfrs_layer_{len(layers) - 1}.json", layer,
            f"expansion of {node[:40]} at layer {len(layers) - 1}",
        )
        files.append((relpath, f"layer {len(layers) - 1} expansion of {node[:30]}"))
        frontier = sorted(set(children) - visited)

    reached = sorted({child for layer in layers for child in layer["children"]})
    if layers:
        findings = (
            f"Expanded {len(layers)} layer(s) to depth {len(layers)}; "
            f"{len(reached)} linked records discovered."
        )
    else:
        findings = "No expansion: seeds matched nothing in the knowledge bases."
    return AgentReport(files=files, findings=findings, key_entities=reached)


def _expand(federation, node: str) -> list[str]:
    if _PMID_LIKE.match(node.strip()):
        pmid = node.split(":")[-1]
        return [f"PMID:{p}" for p in federation.fetch_citations(pmid)]
    entity = EntityRef(name=node, kind="GENE_PROTEIN", source="dfrs")
    related = federation.find_related_entities(entity, "ASSOCIATE")
    return [ref.name for ref, _pmids in related]
