"""Surrogate-endpoint discovery MCQs from drug records and pathway traversal.

The pipeline: map a drug's targets into the merged pathway graph, walk
bidirectionally (depth limit 10) to find which biological-process marker sets
are reachable, categorize the therapeutic context from the record's clinical
text fields, then assemble options in two passes: context-matched distal
strategies are correct (gain 2), poorly timed variants are partial (gain 1),
and distractors (gain 0) come from other drugs' correct strategies plus
proximal target-engagement measurements.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass

from biokgr import Error, load_data
from biokgr.curation.items import McqItem, finalize_item
from biokgr.pathways.flat import KeggFlatRecord
from biokgr.pathways.graphs import SignedPathwayGraph

TRAVERSAL_DEPTH_LIMIT = 10
MIN_OPTIONS = 6
MAX_OPTIONS = 10
MAX_GAIN2 = 4

# database-identifier patterns that must never survive into item text
IDENTIFIER_PATTERNS = (
    re.compile(r"\b[DCG]\d{5}\b"),
    re.compile(r"\bhsa\d+\b"),
    re.compile(r"\[(?:DS|KO|HSA|DG)[^\]]*\]"),
)


class NoMappedTarget(Error):
    pass


class InsufficientOptions(Error):
    pass


class PoolEmpty(Error):
    pass


@dataclass(frozen=True)
class ProcessMatch:
    process: str
    depth: int
    markers: tuple[str, ...]


@dataclass(frozen=True)
class TherapeuticContext:
    category: str        # cancer | inflammation | metabolic | cardiovascular | neurology | other
    evidence_field: str  # COMMENT/EFFICACY | DISEASE | CLASS | none


def strip_identifiers(text: str) -> str:
    for pattern in IDENTIFIER_PATTERNS:
        text = pattern.sub("", text)
    text = re.sub(r"\(\s*\)", "", text)
    return re.sub(r"\s{2,}", " ", text).strip()


def categorize_context(record: KeggFlatRecord) -> TherapeuticContext:
    """Keyword heuristics over clinical text fields, highest priority first."""
    tables = load_data("context_keywords.json")
    field_texts = [
        ("COMMENT/EFFICACY", f"{record.comment} {record.efficacy}"),
        ("DISEASE", " ".join(record.diseases)),
        ("CLASS", " ".join(record.class_labels)),
    ]
    for field_name, text in field_texts:
        haystack = text.casefold()
        if not haystack.strip():
            continue
        for category in tables["order"]:
            if any(kw in haystack for kw in tables["categories"][category]):
                return TherapeuticContext(category, field_name)
    return TherapeuticContext("other", "none")


def map_targets(record: KeggFlatRecord, graph: SignedPathwayGraph) -> list[str]:
    """Record target symbols present in the merged graph (by symbol or alias)."""
    aliases: dict[str, str] = {}
    for key, node in graph.nodes.items():
        aliases[key.upper()] = key
        for alias in node.aliases:
            aliases.setdefault(alias.upper(), key)
    mapped = []
    for symbol in record.target_symbols:
        hit = aliases.get(symbol.upper())
        if hit:
            mapped.append(hit)
    return sorted(set(mapped))


def infer_downstream_processes(
    record: KeggFlatRecord,
    graph: SignedPathwayGraph,
) -> list[ProcessMatch]:
    """Processes whose markers are reachable from the drug's mapped targets."""
    if not record.pathways:
        raise NoMappedTarget(f"{record.accession} has no pathway annotation")
    roots = map_targets(record, graph)
    if not roots:
        raise NoMappedTarget(f"{record.accession} has no target mapped into the graphs")
    depths = graph.topology.distances(roots, TRAVERSAL_DEPTH_LIMIT, "both")
    matches: list[ProcessMatch] = []
    for process, spec in sorted(load_data("process_markers.json")["processes"].items()):
        reached = {
            marker: depths[marker] for marker in spec["markers"] if marker in depths
        }
        if reached:
            matches.append(
                ProcessMatch(
                    process=process,
                    depth=min(reached.values()),
                    markers=tuple(sorted(reached)),
                )
            )
    return matches


def gain2_strategies(
    processes: list[ProcessMatch],
    context: TherapeuticContext,
) -> list[str]:
    """Context-matched distal strategy texts for the matched processes."""
    library = load_data("surrogate_strategies.json")
    preferred = set(library["context_processes"].get(context.category, []))
    matched = [m.process for m in processes]
    chosen = [p for p in matched if p in preferred] or matched
    texts: list[str] = []
    for process in chosen:
        texts.extend(library["strategies"].get(process, {}).get("gain2", []))
    return texts[:MAX_GAIN2]


def build_surrogate_item(
    record: KeggFlatRecord,
    processes: list[ProcessMatch],
    context: TherapeuticContext,
    cross_drug_pool: list[str],
    seed: int = 0,
) -> McqItem:
    """Assemble one multi-answer surrogate-endpoint item.

    Gain-0 distractors are sampled from `cross_drug_pool` (other drugs'
    correct strategies) and the proximal-measurement templates; texts equal to
    any of this item's gain-2 options are excluded from the pool.
    """
    if not cross_drug_pool:
        raise PoolEmpty(f"{record.accession}: cross-drug distractor pool is empty")
    library = load_data("surrogate_strategies.json")
    rng = random.Random(seed)

    correct = gain2_strategies(processes, context)
    if len(correct) < 2:
        raise InsufficientOptions(
            f"{record.accession}: only {len(correct)} gain-2 strategies constructible"
        )

    partial = list(library["gain1_generic"][:2])
    proximal = list(library["proximal"])

    pool = [t for t in dict.fromkeys(cross_drug_pool) if t not in set(correct)]
    rng.shuffle(pool)
    budget = MAX_OPTIONS - len(correct) - len(partial) - len(proximal)
    distractors = proximal + pool[: max(0, budget)]
    if len(distractors) < 2:
        raise InsufficientOptions(
            f"{record.accession}: cannot place 2 gain-0 distractors"
        )

    scored = (
        [(strip_identifiers(t), 2) for t in correct]
        + [(strip_identifiers(t), 1) for t in partial]
        + [(strip_identifiers(t), 0) for t in distractors]
    )
    texts = [t for t, _g in scored]
    if len(set(texts)) != len(texts):
        seen: set[str] = set()
        deduped = []
        for text, gain in scored:
            if text not in seen:
                deduped.append((text, gain))
                seen.add(text)
        scored = deduped
    if not (MIN_OPTIONS <= len(scored) <= MAX_OPTIONS):
        raise InsufficientOptions(
            f"{record.accession}: {len(scored)} options outside [{MIN_OPTIONS}, {MAX_OPTIONS}]"
        )

    indication = record.diseases[0].split("[")[0].strip() if record.diseases else (
        "the target indication"
    )
    drug_class = _drug_class_label(record)
    question = strip_identifiers(
        f"Propose potentially plausible surrogate endpoint strategies for a novel "
        f"{drug_class} in treating {indication}. Select biomarkers measured within "
        f"2 to 12 weeks that could serve as intermediate endpoints linking "
        f"pharmacodynamic effects to clinical improvement in disease activity."
    )
    return finalize_item(
        item_id=f"surrogate-{record.accession}-{seed}",
        task_type="surrogate",
        question=question,
        scored_options=scored,
        rng=rng,
        metadata={
            "drug": record.name,
            "accession": record.accession,
            "context": context.category,
            "processes": [m.process for m in processes],
            "seed": seed,
        },
    )


def _drug_class_label(record: KeggFlatRecord) -> str:
    for line in reversed(record.class_labels):
        cleaned = strip_identifiers(re.sub(r"\bDG\d{5}\b", "", line)).strip()
        if cleaned:
            return cleaned
    if record.efficacy:
        return record.efficacy.split(",")[-1].strip()
    return "therapeutic agent"
