"""In vivo metabolic flux response items.

Candidate phenotypic outcomes are classified through three layers of
topological verification against the reaction graph: (1) mass-balance
consistency for products/substrates within two reaction steps of the target
enzyme, (2) sustained suppression of terminal endpoints (zero out-degree
products) as the optimal-response indicator, and (3) a feedback-loop cap,
where compounds inside a strongly connected cycle can at best show transient
or compensatory responses (gain 1).
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from biokgr import Error
from biokgr.curation.items import McqItem, finalize_item
from biokgr.curation.target_id import GainScore, NoCorrectOption
from biokgr.pathways.graphs import ReactionGraph, SignedPathwayGraph

FLUX_STEP_LIMIT = 2
REACHABILITY_LIMIT = 10

# question-stem dependency descriptors used when no pathway compound is usable
TEMPLATE_DEPENDENCIES = (
    "glutamine metabolism",
    "redox balance",
    "one-carbon metabolism",
    "glycolytic flux",
    "nucleotide biosynthesis",
)


class TargetNotInPathway(Error):
    pass


@dataclass(frozen=True)
class FluxOption:
    """Semantics of one candidate phenotypic outcome."""

    direction: str  # downstream | upstream | none
    trend: str      # decrease | increase | sustained | transient | no_change
    compound: str | None = None


@dataclass(frozen=True)
class TargetFacts:
    """Where a target enzyme sits in the reaction graph; see `target_facts`."""

    down2: set[str]       # downstream within FLUX_STEP_LIMIT steps
    up2: set[str]         # upstream within FLUX_STEP_LIMIT steps
    reachable: set[str]   # downstream within REACHABILITY_LIMIT steps
    terminals: frozenset[str]  # compounds with out-degree zero
    cyclic: frozenset[str]     # compounds on a directed cycle


def target_facts(rg: ReactionGraph, target: str) -> TargetFacts:
    """The reaction-graph facts that classify every outcome of inhibiting `target`.

    Step 1 is the immediate substrate/product set of the reactions the gene
    catalyzes; enzyme nodes themselves never count as steps.
    """
    if not rg.reactions_for_gene(target):
        raise TargetNotInPathway(f"{target!r} is not linked to any reaction")
    topology = rg.topology
    downstream = topology.distances(rg.gene_products(target), REACHABILITY_LIMIT)
    down = {n for n, steps in downstream.items() if steps < FLUX_STEP_LIMIT}
    up = set(topology.distances(rg.gene_substrates(target), FLUX_STEP_LIMIT - 1, "upstream"))
    return TargetFacts(down, up, set(downstream), topology.terminals, topology.cyclic)


def classify_flux_option(facts: TargetFacts, option: FluxOption) -> GainScore:
    """Gain for one phenotypic-outcome option under inhibition of the target."""
    if option.trend == "no_change":
        return GainScore(0, "neutral")
    if option.direction == "downstream" and option.trend == "increase":
        return GainScore(0, "mass_balance_violation")
    if option.direction == "upstream" and option.trend == "decrease":
        return GainScore(0, "mass_balance_violation")

    if option.trend == "transient":
        return GainScore(1, "feedback_transient")

    score: GainScore
    if option.trend == "sustained":
        if option.compound is None or option.compound in facts.terminals:
            score = GainScore(2, "endpoint_suppression")
        else:
            score = GainScore(1, "neutral")
    elif option.direction == "downstream" and option.trend == "decrease":
        if option.compound is None or option.compound in facts.down2:
            score = GainScore(2, "positive_polarity")
        elif option.compound in facts.reachable:
            score = GainScore(1, "neutral")
        else:
            score = GainScore(0, "neutral")
    elif option.direction == "upstream" and option.trend == "increase":
        if option.compound is None or option.compound in facts.up2:
            score = GainScore(2, "positive_polarity")
        else:
            score = GainScore(1, "neutral")
    else:
        score = GainScore(1, "neutral")

    if option.compound is not None and option.compound in facts.cyclic and score.value > 1:
        return GainScore(1, "feedback_transient")
    return score


def build_flux_item(
    graph: SignedPathwayGraph,
    rg: ReactionGraph,
    target: str,
    seed: int = 0,
) -> McqItem:
    """Seven candidate phenotypic outcomes for inhibition of `target`.

    Option texts name actual pathway compounds when the reaction graph
    provides them, falling back to curated template descriptors otherwise.
    """
    facts = target_facts(rg, target)
    rng = random.Random(seed)

    step1 = [p for p in rg.gene_products(target) if p not in facts.cyclic]
    primary = min(step1) if step1 else min(facts.down2 - facts.cyclic, default=None)
    reachable_terminals = (facts.reachable | facts.down2) & facts.terminals
    terminal = min(reachable_terminals or facts.terminals, default=None)
    cycle_member = min(facts.reachable & facts.cyclic, default=None)

    percent = rng.choice((25, 30, 40, 50, 60))
    sustained_txt = (
        f"Tumors with a sustained {percent}% decrease in {primary} labeling" if primary
        else "Tumors with sustained reduction in tracer labeling"
    )
    suppressed = f"{terminal} synthesis" if terminal else "metabolic activity"
    options = [
        (sustained_txt, FluxOption("downstream", "decrease", primary)),
        ("Tumors exhibiting no change in metabolic markers", FluxOption("none", "no_change")),
        (f"Tumors with transient decrease in {primary or 'tracer'} uptake",
         FluxOption("downstream", "transient", primary)),
        (f"Tumors demonstrating consistent suppression of {suppressed}",
         FluxOption("downstream", "sustained", terminal)),
        ("Tumors showing rapid recovery of metabolic function", FluxOption("none", "transient")),
        (f"Tumors with maintained low levels of {cycle_member or 'metabolic markers'}",
         FluxOption("downstream", "sustained", cycle_member)
         if cycle_member else FluxOption("none", "no_change")),
        (f"Tumors presenting a rapid increase in {primary or 'tracer'} labeling",
         FluxOption("downstream", "increase", primary)),
    ]

    # the seven texts start with seven different stems, so they are distinct
    scored = [(text, classify_flux_option(facts, semantics).value) for text, semantics in options]

    if not any(gain == 2 for _t, gain in scored):
        raise NoCorrectOption(f"no gain-2 outcome constructible for {target!r}")

    dependency = f"{primary} metabolism" if primary else rng.choice(TEMPLATE_DEPENDENCIES)
    context = graph.title or "tumor metabolism"
    question = (
        f"In an investigation into the metabolic dependencies of {context}, "
        f"with a focus on {dependency}, which mouse cohorts would likely show "
        f"the most pronounced metabolic flux response upon inhibition of {target}?"
    )
    return finalize_item(
        item_id=f"flux-{graph.pathway_id or 'pathway'}-{target}-{seed}",
        task_type="flux",
        question=question,
        scored_options=scored,
        rng=rng,
        metadata={"pathway_id": graph.pathway_id, "target": target, "seed": seed},
    )
