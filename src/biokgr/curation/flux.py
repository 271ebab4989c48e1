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

from biokgr.curation.items import McqItem, finalize_item
from biokgr.curation.target_id import GainScore, NoCorrectOption
from biokgr.pathways.analytics import cyclic_nodes, k_step_neighborhood, terminal_endpoints
from biokgr.pathways.graphs import ReactionGraph, SignedPathwayGraph

FLUX_STEP_LIMIT = 2
REACHABILITY_LIMIT = 10

DIRECTIONS = ("downstream", "upstream", "none")
TRENDS = ("decrease", "increase", "sustained", "transient", "no_change")

# question-stem dependency descriptors used when no pathway compound is usable
TEMPLATE_DEPENDENCIES = (
    "glutamine metabolism",
    "redox balance",
    "one-carbon metabolism",
    "glycolytic flux",
    "nucleotide biosynthesis",
)


class TargetNotInPathway(Exception):
    pass


@dataclass(frozen=True)
class FluxOption:
    """Semantics of one candidate phenotypic outcome."""

    direction: str  # downstream | upstream | none
    trend: str      # decrease | increase | sustained | transient | no_change
    compound: str | None = None


def _target_neighborhoods(rg: ReactionGraph, target: str) -> tuple[set[str], set[str], set[str]]:
    """(downstream ≤2 steps, upstream ≤2 steps, downstream-reachable) of a target enzyme.

    Step 1 is the immediate substrate/product set of the reactions the gene
    catalyzes; enzyme nodes themselves never count as steps.
    """
    products = set(rg.gene_products(target))
    substrates = set(rg.gene_substrates(target))
    down = set(products)
    for p in products:
        down |= k_step_neighborhood(rg, p, FLUX_STEP_LIMIT - 1, "downstream")
    up = set(substrates)
    for s in substrates:
        up |= k_step_neighborhood(rg, s, FLUX_STEP_LIMIT - 1, "upstream")
    reachable = set(products)
    for p in products:
        reachable |= k_step_neighborhood(rg, p, REACHABILITY_LIMIT, "downstream")
    return down, up, reachable


def classify_flux_option(
    graph: SignedPathwayGraph,
    rg: ReactionGraph,
    target: str,
    option: FluxOption,
) -> GainScore:
    """Gain for one phenotypic-outcome option under inhibition of `target`."""
    if not rg.reactions_for_gene(target):
        raise TargetNotInPathway(f"{target!r} is not linked to any reaction")
    down2, up2, reachable = _target_neighborhoods(rg, target)
    terminals = terminal_endpoints(rg)
    cyclic = cyclic_nodes(rg)

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
        if option.compound is None or option.compound in terminals:
            score = GainScore(2, "endpoint_suppression")
        else:
            score = GainScore(1, "neutral")
    elif option.direction == "downstream" and option.trend == "decrease":
        if option.compound is None or option.compound in down2:
            score = GainScore(2, "positive_polarity")
        elif option.compound in reachable:
            score = GainScore(1, "neutral")
        else:
            score = GainScore(0, "neutral")
    elif option.direction == "upstream" and option.trend == "increase":
        if option.compound is None or option.compound in up2:
            score = GainScore(2, "positive_polarity")
        else:
            score = GainScore(1, "neutral")
    else:
        score = GainScore(1, "neutral")

    if option.compound is not None and option.compound in cyclic and score.value > 1:
        return GainScore(1, "feedback_transient")
    return score


def build_flux_item(
    graph: SignedPathwayGraph,
    rg: ReactionGraph,
    target: str,
    seed: int = 0,
    disease_context: str | None = None,
) -> McqItem:
    """Seven candidate phenotypic outcomes for inhibition of `target`.

    Option texts name actual pathway compounds when the reaction graph
    provides them, falling back to curated template descriptors otherwise.
    """
    if not rg.reactions_for_gene(target):
        raise TargetNotInPathway(f"{target!r} is not linked to any reaction")
    rng = random.Random(seed)
    down2, _up2, reachable = _target_neighborhoods(rg, target)
    terminals = terminal_endpoints(rg)
    cyclic = cyclic_nodes(rg)

    step1 = [p for p in rg.gene_products(target) if p not in cyclic]
    primary = sorted(step1)[0] if step1 else (
        sorted(down2 - cyclic)[0] if down2 - cyclic else None
    )
    reachable_terminals = sorted((reachable | down2) & terminals)
    terminal = reachable_terminals[0] if reachable_terminals else (
        sorted(terminals)[0] if terminals else None
    )
    cycle_member = sorted(reachable & cyclic)[0] if reachable & cyclic else None

    percent = rng.choice((25, 30, 40, 50, 60))

    def text_and_semantics() -> list[tuple[str, FluxOption]]:
        label = f"{percent}% decrease in {primary} labeling" if primary else (
            "sustained reduction in tracer labeling"
        )
        sustained_txt = (
            f"Tumors with a sustained {label}" if primary
            else "Tumors with sustained reduction in tracer labeling"
        )
        suppression_txt = (
            f"Tumors demonstrating consistent suppression of {terminal} synthesis"
            if terminal else
            "Tumors demonstrating consistent suppression of metabolic activity"
        )
        transient_txt = (
            f"Tumors with transient decrease in {primary} uptake" if primary
            else "Tumors with transient decrease in tracer uptake"
        )
        increase_txt = (
            f"Tumors presenting a rapid increase in {primary} labeling" if primary
            else "Tumors presenting a rapid increase in tracer labeling"
        )
        maintained_txt = (
            f"Tumors with maintained low levels of {cycle_member}" if cycle_member
            else "Tumors with maintained low levels of metabolic markers"
        )
        return [
            (sustained_txt, FluxOption("downstream", "decrease", primary)),
            ("Tumors exhibiting no change in metabolic markers", FluxOption("none", "no_change")),
            (transient_txt, FluxOption("downstream", "transient", primary)),
            (suppression_txt, FluxOption("downstream", "sustained", terminal)),
            ("Tumors showing rapid recovery of metabolic function", FluxOption("none", "transient")),
            (
                maintained_txt,
                FluxOption("downstream", "sustained", cycle_member)
                if cycle_member else FluxOption("none", "no_change"),
            ),
            (increase_txt, FluxOption("downstream", "increase", primary)),
        ]

    scored: list[tuple[str, int]] = []
    seen_texts: set[str] = set()
    for text, semantics in text_and_semantics():
        if text in seen_texts:
            text = text + " across cohorts"
        seen_texts.add(text)
        scored.append((text, classify_flux_option(graph, rg, target, semantics).value))

    if not any(gain == 2 for _t, gain in scored):
        raise NoCorrectOption(f"no gain-2 outcome constructible for {target!r}")

    dependency = (
        f"{primary} metabolism" if primary else rng.choice(TEMPLATE_DEPENDENCIES)
    )
    context = disease_context or graph.title or "tumor metabolism"
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
        metadata={
            "pathway_id": graph.pathway_id,
            "target": target,
            "seed": seed,
        },
    )
