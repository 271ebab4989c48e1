"""Drug-regimen design MCQs from a dose-finding toxicity corpus.

Monotherapy trials provide per-drug baselines (reference MTD, DLT term set);
multi-agent regimens are reduced to evidence features (toxicity overlap,
missing monotherapy evidence, interaction hints) and mapped to a four-level
design class. Each eligible regimen yields one item whose five options apply
the class strategy templates to the same drug combination.
"""
from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from enum import Enum

from biokgr import Error, field, parse_json, read_text
from biokgr.curation.items import McqItem, finalize_item

TOXICITY_OVERLAP_CLASS_II = 0.6
_INTERACTION_HINTS = (
    "interaction", "pharmacokinetic", "pk substudy", "drug-drug", "drug drug", "cyp",
)


class NotACombination(Error):
    pass


class InsufficientEvidence(Error):
    pass


@dataclass
class RegimenEvidence:
    trial_id: str
    population: str
    drugs: list[dict]                 # [{"name", "route"}]
    dose_ladder: list[dict]           # [{"level", "doses": {drug: dose}}]
    dlt_by_level: list[dict]          # [{"level", "terms": [...], "count"}]
    protocol_dlt_definitions: list[str] = dataclasses.field(default_factory=list)
    reported_mtds: dict = dataclasses.field(default_factory=dict)
    escalation_design: str = ""
    approved_combination: bool = False

    @property
    def drug_names(self) -> list[str]:
        return [d["name"] for d in self.drugs]

    @property
    def routes(self) -> list[str]:
        return [d["route"] for d in self.drugs]

    def is_combination(self) -> bool:
        return len(self.drugs) >= 2


@dataclass
class MonotherapyBaseline:
    drug: str
    reference_mtd: float
    dlt_terms: frozenset


@dataclass
class RegimenFeatures:
    drugs: list[str]
    toxicity_overlap: float
    missing_monotherapy: list[str]
    approved_combination: bool
    interaction_risk: bool
    sufficient: bool


class DesignClass(Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"


STRATEGY_TEMPLATES: dict[DesignClass, str] = {
    DesignClass.I: (
        "Starting dose: approved or previously validated combination dose level. "
        "Design: limited dose adjustment with primary focus on safety verification "
        "and tolerability. DLT window: standard DLT evaluation, cycle 1 (21 to 28 "
        "days). Additional: expansion cohorts at the target dose for further safety "
        "and efficacy signals. Objective: verify safety and tolerability of the "
        "established combination in a new patient population."
    ),
    DesignClass.II: (
        "Starting dose: near individual monotherapy MTD levels (75 to 90% range for "
        "each agent). Design: de-escalation design with pre-specified dose reduction "
        "rules if DLTs are observed. DLT window: standard DLT evaluation window, "
        "cycle 1 (28 days). Additional: optional pharmacokinetic sampling, standard "
        "phase I DLT criteria. Objective: identify the highest tolerable combination "
        "dose, expecting doses near monotherapy levels."
    ),
    DesignClass.III: (
        "Starting dose: conservative starting doses (30 to 50% of the individual "
        "monotherapy MTD range). Design: standard 3+3 or model-assisted escalation "
        "design (BOIN or CRM). DLT window: standard to moderately extended DLT "
        "window, cycle 1 (28 to 42 days). Additional: careful DLT criteria "
        "accounting for overlapping toxicities between agents. Objective: determine "
        "the MTD and recommended phase 2 dose for the combination."
    ),
    DesignClass.IV: (
        "Starting dose: very conservative starting doses (15 to 25% of the "
        "monotherapy MTD range). Design: single-agent lead-in period followed by "
        "cautious combination escalation. DLT window: extended DLT evaluation "
        "window (2 cycles or 42 to 56 days). Additional: mandatory pharmacokinetic "
        "and drug drug interaction substudy with intensive safety monitoring. "
        "Objective: establish feasibility and a preliminary safety profile for this "
        "novel combination."
    ),
}

# near-duplicate of the Class II template (21-day cycle) used as a distractor,
# mirroring the paired de-escalation options seen in real items
STRATEGY_TEMPLATE_II_VARIANT = STRATEGY_TEMPLATES[DesignClass.II].replace(
    "cycle 1 (28 days)", "cycle 1 (21 days)"
)


# A dose or reported MTD: a number, or null where the trial gives none.
_DOSE = (int, float, type(None))


def load_corpus(path) -> list[RegimenEvidence]:
    """Every trial's regimens; ValueError when the file is not JSON or a field is ill-typed."""
    payload = parse_json(read_text(path))
    return [
        RegimenEvidence(
            trial_id=field(trial, "trial_id", str, ""),
            population=field(trial, "population", str, ""),
            drugs=[{"name": field(drug, "name", str), "route": field(drug, "route", str, "")}
                   for drug in field(reg, "drugs", list, [], of=dict)],
            dose_ladder=[{**level, "doses": field(level, "doses", dict, {}, of=_DOSE)}
                         for level in field(reg, "dose_ladder", list, [], of=dict)],
            dlt_by_level=[{**level, "terms": field(level, "terms", list, [], of=str)}
                          for level in field(reg, "dlt_by_level", list, [], of=dict)],
            protocol_dlt_definitions=field(reg, "protocol_dlt_definitions", list, [], of=str),
            reported_mtds=field(reg, "reported_mtds", dict, {}, of=_DOSE),
            escalation_design=field(reg, "escalation_design", str, ""),
            approved_combination=field(reg, "approved_combination", bool, False),
        )
        for trial in field(payload, "trials", list, [], of=dict)
        for reg in field(trial, "regimens", list, [], of=dict)
    ]


def compute_monotherapy_baselines(
    regimens: list[RegimenEvidence],
) -> dict[str, MonotherapyBaseline]:
    """Per-drug reference MTD (max across monotherapy trials) and DLT term set."""
    mtds: dict[str, float] = {}
    terms: dict[str, set] = {}
    for regimen in regimens:
        if regimen.is_combination():
            continue
        drug = regimen.drug_names[0].casefold()
        reported = regimen.reported_mtds.get(regimen.drug_names[0])
        if reported is None:
            reported = regimen.reported_mtds.get(drug)
        if reported is not None and reported > 0:
            mtds[drug] = max(mtds.get(drug, 0.0), float(reported))
        bucket = terms.setdefault(drug, set())
        for level in regimen.dlt_by_level:
            bucket.update(t.casefold() for t in level["terms"])
    baselines: dict[str, MonotherapyBaseline] = {}
    for drug in terms:
        if drug not in mtds:
            continue
        baselines[drug] = MonotherapyBaseline(
            drug=drug,
            reference_mtd=mtds[drug],
            dlt_terms=frozenset(terms[drug]),
        )
    return baselines


def derive_regimen_features(
    regimen: RegimenEvidence,
    baselines: dict[str, MonotherapyBaseline],
) -> RegimenFeatures:
    """Evidence features for one combination regimen."""
    if not regimen.is_combination():
        raise NotACombination(f"regimen in {regimen.trial_id} has a single agent")

    combo_terms = {
        t.casefold()
        for level in regimen.dlt_by_level
        for t in level["terms"]
    }
    mono_union: set = set()
    for drug in regimen.drug_names:
        baseline = baselines.get(drug.casefold())
        if baseline:
            mono_union |= baseline.dlt_terms
    sufficient = bool(regimen.dose_ladder) and bool(regimen.dlt_by_level)
    overlap = (
        len(combo_terms & mono_union) / len(combo_terms) if combo_terms else 0.0
    )
    if not combo_terms:
        sufficient = False

    free_text = " ".join(
        regimen.protocol_dlt_definitions + [regimen.escalation_design]
    ).casefold()
    interaction_risk = any(hint in free_text for hint in _INTERACTION_HINTS)

    return RegimenFeatures(
        drugs=list(regimen.drug_names),
        toxicity_overlap=overlap,
        missing_monotherapy=[
            d for d in regimen.drug_names if d.casefold() not in baselines
        ],
        approved_combination=regimen.approved_combination,
        interaction_risk=interaction_risk,
        sufficient=sufficient,
    )


def classify_design(features: RegimenFeatures) -> DesignClass:
    """Priority-ordered rule cascade; deterministic and total on sufficient features."""
    if not features.sufficient:
        raise InsufficientEvidence(
            f"regimen {'+'.join(features.drugs)} lacks dose/DLT evidence"
        )
    if features.approved_combination:
        return DesignClass.I
    if features.missing_monotherapy or features.interaction_risk:
        return DesignClass.IV
    if features.toxicity_overlap >= TOXICITY_OVERLAP_CLASS_II:
        return DesignClass.II
    return DesignClass.III


def build_regimen_item(
    regimen: RegimenEvidence,
    design_class: DesignClass,
    seed: int = 0,
) -> McqItem:
    """Five design-strategy options over the same drug combination."""
    drugs = regimen.drug_names
    drug_list = ", ".join(drugs[:-1]) + f", and {drugs[-1]}" if len(drugs) > 2 else (
        " and ".join(drugs)
    )
    routes = " and ".join(sorted({r for r in regimen.routes if r})) or "the planned routes"

    prefix = f"For the combination of {drug_list}: "
    scored: list[tuple[str, int]] = []
    for cls in DesignClass:
        gain = 2 if cls is design_class else 0
        scored.append((prefix + STRATEGY_TEMPLATES[cls], gain))
    scored.append((prefix + STRATEGY_TEMPLATE_II_VARIANT, 0))

    question = (
        f"You are planning a new early-phase clinical trial to evaluate the "
        f"combination of {drug_list} in {regimen.population or 'the target population'}. "
        f"The agents will be administered via {routes}. Based on the prior "
        f"evidence for these agents, which trial design strategy would be most "
        f"appropriate for this new combination trial?"
    )
    rng = random.Random(seed)
    return finalize_item(
        item_id=f"regimen-{regimen.trial_id or 'trial'}-{seed}",
        task_type="regimen",
        question=question,
        scored_options=scored,
        rng=rng,
        metadata={
            "trial_id": regimen.trial_id,
            "drugs": drugs,
            "design_class": design_class.value,
            "seed": seed,
        },
    )
