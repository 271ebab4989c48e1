"""Target-identification items from signed pathway topology.

Gain scoring combines three signals: average path polarity toward the disease
endpoints, betweenness centrality (top decile elevates positive-polarity
genes), and a druggability blacklist that forces gain 0. Disease-specific
logic profiles lower the gain-2 polarity threshold for prioritized
functional classes.

Candidates are scored lazily, one at a time, because the polarity walk is
most of an item's cost. An item scores its candidates in name order and
stops at the last gain-2 candidate it can show, so a gene that could not
appear in the item gets no polarity walk.
"""
from __future__ import annotations

import math
import random
import re
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache

from biokgr import load_data, substring_pattern
from biokgr.curation.items import (InsufficientCandidates, InsufficientEvidence, McqItem,
                                   NoCorrectOption, finalize_item)
from biokgr.pathways.graphs import SignedPathwayGraph

GAIN2_THRESHOLD = 0.5
PRIORITIZED_GAIN2_THRESHOLD = 0.3
CENTRALITY_PERCENTILE = 90


@dataclass(frozen=True)
class GainScore:
    value: int
    rationale: str  # positive_polarity_central | positive_polarity | neutral |
    #                 protective | non_druggable | mass_balance_violation |
    #                 feedback_transient | endpoint_suppression


@dataclass(frozen=True)
class LogicProfile:
    """Disease-specific weighting of functional classes.

    The priority bonus is a lowered gain-2 polarity threshold for the
    prioritized functional types (`PRIORITIZED_GAIN2_THRESHOLD` instead of
    `GAIN2_THRESHOLD`).
    """

    category: str  # cancer | drug_resistance | infection | other
    prioritized_types: tuple[str, ...]


PROFILES = {
    "cancer": LogicProfile("cancer", ("kinase", "enzyme")),
    "drug_resistance": LogicProfile("drug_resistance", ("transporter", "receptor")),
    "infection": LogicProfile("infection", ("pattern recognition receptor", "cytokine")),
    "other": LogicProfile("other", ()),
}


@cache
def _blacklist_rules() -> tuple[tuple[str, ...], re.Pattern]:
    """The shipped rules: upper-cased symbol prefixes, and one pattern over
    case-folded text for the label words."""
    rules = load_data("druggability_blacklist.json")
    return (tuple(p.upper() for p in rules.get("prefixes", [])),
            substring_pattern(w.casefold() for w in rules.get("words", [])))


def is_blacklisted(graph: SignedPathwayGraph, symbol: str) -> bool:
    prefixes, words = _blacklist_rules()
    if symbol.upper().startswith(prefixes):
        return True
    node = graph.nodes.get(symbol)
    haystack = symbol.casefold()
    if node is not None:
        haystack = " ".join((node.graphics_label, *node.aliases, symbol)).casefold()
    return words.search(haystack) is not None


def nearest_rank_percentile(values: list[float], percentile: int) -> float:
    """Nearest-rank percentile; ties at the cut are included by callers."""
    if not values:
        return math.inf
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def assign_target_gains(
    graph: SignedPathwayGraph,
    candidates: list[str],
    profile: LogicProfile,
) -> Iterator[tuple[str, GainScore]]:
    """Score each candidate gene for therapeutic-target plausibility.

    Yields `(candidate, GainScore)` in the order of `candidates`, scoring each
    one only when it is taken. The set-up runs at the call: a pathway with no
    disease endpoints raises `InsufficientEvidence`, and the centrality cutoff
    is the top decile over all the candidates, however many are taken.
    """
    if not graph.endpoints:
        raise InsufficientEvidence(f"pathway {graph.pathway_id or '?'} has no disease endpoints")

    centrality = graph.topology.betweenness
    candidate_centrality = {c: centrality.get(c, 0.0) for c in candidates}
    cutoff = nearest_rank_percentile(list(candidate_centrality.values()), CENTRALITY_PERCENTILE)

    def gain(candidate: str) -> GainScore:
        if is_blacklisted(graph, candidate):
            return GainScore(0, "non_druggable")
        polarity = graph.topology.path_polarity(candidate, graph.endpoints)
        prioritized = graph.nodes[candidate].functional_type in profile.prioritized_types
        threshold = PRIORITIZED_GAIN2_THRESHOLD if prioritized else GAIN2_THRESHOLD
        if polarity.value < 0:
            return GainScore(0, "protective")
        if candidate_centrality[candidate] >= cutoff and polarity.value > 0:
            return GainScore(2, "positive_polarity_central")
        if polarity.value > threshold:
            return GainScore(2, "positive_polarity")
        return GainScore(1, "neutral")

    return ((candidate, gain(candidate)) for candidate in candidates)


def build_target_item(
    graph: SignedPathwayGraph,
    profile: LogicProfile,
    option_count: int = 10,
    seed: int = 0,
) -> McqItem:
    """One target-identification MCQ from a parsed disease pathway.

    The gain-2 candidates enter the option set first, up to `option_count` of
    them in name order; the remainder is filled with the highest-centrality
    non-answer candidates, then the set is shuffled by the seeded RNG.

    Candidates are scored in name order, and the walk stops at the
    `option_count`-th gain-2 candidate: no candidate after it can be an
    option. With fewer answers every candidate is scored, so the fillers and
    `NoCorrectOption` rest on a full walk.
    """
    candidates = graph.gene_symbols()
    if len(candidates) < option_count:
        raise InsufficientCandidates(f"{len(candidates)} candidates < option count {option_count}")
    gains: dict[str, GainScore] = {}
    answers: list[str] = []
    for candidate, score in assign_target_gains(graph, sorted(candidates), profile):
        gains[candidate] = score
        if score.value == 2:
            answers.append(candidate)
            if len(answers) == option_count:
                break
    if not answers:
        raise NoCorrectOption(f"no gain-2 candidate in pathway {graph.pathway_id or '?'}")

    centrality = graph.topology.betweenness
    fillers = sorted(set(candidates) - set(answers), key=lambda c: (-centrality.get(c, 0.0), c))
    chosen = answers + fillers[: option_count - len(answers)]

    def render(symbol: str) -> str:
        return f"{symbol} : {graph.nodes[symbol].functional_type}"

    scored = [(render(c), gains[c].value) for c in chosen]
    context = graph.title or graph.pathway_id or "this disease"
    question = (
        f"Which genes represent the most promising therapeutic targets for "
        f"modulating {context}? Focus on targets that can be inhibited to "
        f"interrupt disease progression. Select the most promising genes."
    )
    rng = random.Random(seed)
    return finalize_item(
        item_id=f"target-{graph.pathway_id or 'pathway'}-{seed}",
        task_type="target_id",
        question=question,
        scored_options=scored,
        rng=rng,
        metadata={
            "pathway_id": graph.pathway_id,
            "pathway_title": graph.title,
            "profile": profile.category,
            "seed": seed,
            "gain_rationales": {c: gains[c].rationale for c in chosen},
        },
    )
