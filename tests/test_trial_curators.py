"""Trial-development curators: sample size, regimen design, surrogate endpoints."""
import json

import pytest

from biokgr.curation.items import (
    InsufficientCandidates,
    InsufficientEvidence,
    NoCorrectOption,
    TargetNotInPathway,
)
from biokgr.curation.regimen import (
    DesignClass,
    RegimenEvidence,
    STRATEGY_TEMPLATES,
    build_regimen_item,
    classify_design,
    compute_monotherapy_baselines,
    derive_regimen_features,
    load_corpus,
)
from biokgr.curation.sample_size import (
    DISTRACTOR_COUNT,
    RATIO_MAX,
    RATIO_MIN,
    VALIDITY_BAND,
    distractor_is_valid,
    gen_sample_size_item,
)
from biokgr.curation.surrogate import (
    build_surrogate_item,
    categorize_context,
    gain2_strategies,
    infer_downstream_processes,
    strip_identifiers,
)
from biokgr.pathways import parse_flat_record, parse_kgml

from corpusgen import regimen_corpus
from kgmlgen import pde4_inflammation_kgml
from test_pathway_graph import NERANDOMILAST


# -- sample size -----------------------------------------------------------------

def test_sample_size_item_shape():
    item = gen_sample_size_item(268, seed=5)
    assert len(item.options) == 5
    truth_labels = [o.label for o in item.options if o.text == "268"]
    assert item.answers == truth_labels


def test_supp_table5_multiset_reproduction():
    ratios = [107 / 268, 188 / 268, 402 / 268, 536 / 268]
    item = gen_sample_size_item(268, seed=5, ratios=ratios)
    values = sorted(int(o.text) for o in item.options)
    assert values == [107, 188, 268, 402, 536]
    correct = [o for o in item.options if o.label in item.answers]
    assert len(correct) == 1 and correct[0].text == "268"


def test_boundary_ratio_arithmetic():
    assert distractor_is_valid(100, 25)      # exactly r = 0.25
    assert not distractor_is_valid(100, 24)  # below the lower ratio bound
    assert distractor_is_valid(100, 400)     # exactly r = 4.00
    assert not distractor_is_valid(100, 401)
    assert not distractor_is_valid(100, 100)


def test_invalid_truths():
    with pytest.raises(InsufficientEvidence, match="truth -5 outside validity band"):
        gen_sample_size_item(-5)
    with pytest.raises(InsufficientEvidence, match="truth 0 outside validity band"):
        gen_sample_size_item(0)
    with pytest.raises(InsufficientEvidence, match="truth 5 outside validity band"):
        gen_sample_size_item(5)  # below the validity band
    with pytest.raises(InsufficientEvidence, match="truth 2000000 outside validity band"):
        gen_sample_size_item(2_000_000)


def test_pinned_ratio_validation():
    with pytest.raises(InsufficientCandidates,
                       match="pinned ratio 0.1 yields invalid/duplicate distractor"):
        gen_sample_size_item(100, ratios=[0.1, 0.5, 2.0, 3.0])  # 0.1 out of band


def test_distractors_respect_band_and_distinctness():
    for seed in range(40):
        truth = 37 + seed * 13
        item = gen_sample_size_item(truth, seed=seed)
        values = [int(o.text) for o in item.options]
        assert len(set(values)) == 5
        assert values.count(truth) == 1
        for value in values:
            if value != truth:
                assert round(truth * 0.25) <= value <= round(truth * 4.0)


def test_every_truth_in_the_band_has_enough_valid_distractors():
    # so gen_sample_size_item draws without counting them first
    def valid_count(truth):
        lo = max(round(truth * RATIO_MIN), VALIDITY_BAND[0])
        hi = min(round(truth * RATIO_MAX), VALIDITY_BAND[1])
        return hi - lo + 1 - (lo <= truth <= hi)

    assert all(valid_count(t) == sum(distractor_is_valid(t, c) for c in range(4 * t + 2))
               for t in range(VALIDITY_BAND[0], 60))
    fewest = min(map(valid_count, range(VALIDITY_BAND[0], VALIDITY_BAND[1] + 1)))
    assert fewest == 30 >= DISTRACTOR_COUNT


def test_sample_size_deterministic():
    assert gen_sample_size_item(268, seed=7).to_dict() == gen_sample_size_item(268, seed=7).to_dict()


# -- regimen: baselines and features ------------------------------------------------

@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "corpus.json"
    path.write_text(json.dumps(regimen_corpus()), encoding="utf-8")
    return load_corpus(path)


@pytest.fixture(scope="module")
def baselines(corpus):
    return compute_monotherapy_baselines(corpus)


def by_trial(corpus, trial_id):
    return next(r for r in corpus if r.trial_id == trial_id)


def test_baseline_takes_max_mtd():
    regimens = [
        RegimenEvidence("t1", "p", [{"name": "X", "route": "iv"}], [], [],
                        reported_mtds={"X": 100}),
        RegimenEvidence("t2", "p", [{"name": "X", "route": "iv"}], [], [],
                        reported_mtds={"X": 150}),
    ]
    baselines = compute_monotherapy_baselines(regimens)
    assert baselines["x"].reference_mtd == 150


def test_baseline_dedups_dlt_terms_case_insensitively(baselines):
    assert "neuropathy" in baselines["oxaliplatin"].dlt_terms
    regimens = [
        RegimenEvidence(
            "t1", "p", [{"name": "X", "route": "iv"}], [],
            [{"level": 1, "terms": ["Neutropenia", "neutropenia"]}],
            reported_mtds={"X": 10},
        )
    ]
    assert compute_monotherapy_baselines(regimens)["x"].dlt_terms == frozenset({"neutropenia"})


def test_combination_only_drug_absent_from_baselines(baselines):
    assert "irinotecan" not in baselines


def test_features_overlap(corpus, baselines):
    features = derive_regimen_features(by_trial(corpus, "C-CAPOXIRI"), baselines)
    # combo DLTs {diarrhea, neutropenia}; mono union has both
    assert features.toxicity_overlap == pytest.approx(1.0)
    assert features.missing_monotherapy == ["irinotecan"]
    assert 0.0 <= features.toxicity_overlap <= 1.0


def test_overlap_half():
    baselines = compute_monotherapy_baselines(
        [RegimenEvidence("m", "p", [{"name": "A", "route": "iv"}], [],
                         [{"level": 1, "terms": ["neutropenia"]}], reported_mtds={"A": 10})]
    )
    combo = RegimenEvidence(
        "c", "p",
        [{"name": "A", "route": "iv"}, {"name": "B", "route": "oral"}],
        [{"level": 1, "doses": {"A": 5, "B": 5}}],
        [{"level": 1, "terms": ["Neutropenia", "diarrhea"]}],
    )
    features = derive_regimen_features(combo, baselines)
    assert features.toxicity_overlap == pytest.approx(0.5)


def test_empty_dlt_records_insufficient(corpus, baselines):
    features = derive_regimen_features(by_trial(corpus, "C-AB-NODLT"), baselines)
    assert not features.sufficient
    with pytest.raises(InsufficientEvidence, match="lacks dose/DLT evidence"):
        classify_design(features)


def test_monotherapy_rejected(corpus, baselines):
    with pytest.raises(InsufficientEvidence, match="M-CAP has a single agent"):
        derive_regimen_features(by_trial(corpus, "M-CAP"), baselines)


# -- regimen: classification cascade -------------------------------------------------

def test_class_cascade(corpus, baselines):
    cls = lambda tid: classify_design(derive_regimen_features(by_trial(corpus, tid), baselines))
    assert cls("C-AB-I") is DesignClass.I
    assert cls("C-AB-II") is DesignClass.II
    assert cls("C-AB-III") is DesignClass.III
    assert cls("C-AB-IV") is DesignClass.IV
    assert cls("C-CAPOXIRI") is DesignClass.IV  # irinotecan lacks monotherapy evidence


def test_classification_deterministic(corpus, baselines):
    features = derive_regimen_features(by_trial(corpus, "C-AB-II"), baselines)
    assert classify_design(features) is classify_design(features)


# -- regimen: item construction -------------------------------------------------------

def test_regimen_item_mentions_same_drugs(corpus, baselines):
    regimen = by_trial(corpus, "C-CAPOXIRI")
    item = build_regimen_item(regimen, DesignClass.IV, seed=11)
    assert len(item.options) == 5
    for option in item.options:
        for drug in regimen.drug_names:
            assert drug in option.text


def test_class_iv_correct_option_language(corpus, baselines):
    regimen = by_trial(corpus, "C-CAPOXIRI")
    item = build_regimen_item(regimen, DesignClass.IV, seed=11)
    assert len(item.answers) == 1
    correct = next(o for o in item.options if o.label == item.answers[0])
    assert "extended DLT evaluation window" in correct.text
    assert "pharmacokinetic and drug drug interaction" in correct.text


def test_regimen_item_includes_near_duplicate_pair(corpus, baselines):
    item = build_regimen_item(by_trial(corpus, "C-AB-III"), DesignClass.III, seed=2)
    texts = [o.text for o in item.options]
    assert sum("de-escalation design" in t for t in texts) == 2
    assert sum("cycle 1 (28 days)" in t for t in texts) == 1
    assert sum("cycle 1 (21 days)" in t for t in texts) == 1


def test_regimen_item_stable_across_runs(corpus, baselines):
    regimen = by_trial(corpus, "C-AB-II")
    a = build_regimen_item(regimen, DesignClass.II, seed=4)
    b = build_regimen_item(regimen, DesignClass.II, seed=4)
    assert a.to_dict() == b.to_dict()


def test_every_class_has_distinct_template():
    assert len({STRATEGY_TEMPLATES[c] for c in DesignClass}) == 4


# -- surrogate -------------------------------------------------------------------------

@pytest.fixture(scope="module")
def nerandomilast():
    return parse_flat_record(NERANDOMILAST)


@pytest.fixture(scope="module")
def pde4_graph():
    graph, _rg = parse_kgml(pde4_inflammation_kgml())
    return graph


def test_context_inflammation(nerandomilast):
    context = categorize_context(nerandomilast)
    assert context.category == "inflammation"
    assert context.evidence_field == "COMMENT/EFFICACY"


def test_context_cancer_keyword():
    record = parse_flat_record("ENTRY       D1 Drug\nNAME        X\nEFFICACY    Antineoplastic\n")
    assert categorize_context(record).category == "cancer"


def test_context_fallback_to_disease():
    record = parse_flat_record(
        "ENTRY       D1 Drug\nNAME        X\nEFFICACY    Enzyme replacement\nDISEASE     Rheumatoid arthritis\n"
    )
    context = categorize_context(record)
    assert context.category == "inflammation"
    assert context.evidence_field == "DISEASE"


def test_context_other_when_no_keywords():
    record = parse_flat_record("ENTRY       D1 Drug\nNAME        X\nEFFICACY    Unclassifiable\n")
    assert categorize_context(record).category == "other"


def test_infer_processes(nerandomilast, pde4_graph):
    matches = infer_downstream_processes(nerandomilast, pde4_graph)
    names = {m.process for m in matches}
    assert "inflammation" in names
    inflammation = next(m for m in matches if m.process == "inflammation")
    assert inflammation.depth <= 2
    assert "TNF" in inflammation.markers


def test_no_mapped_target_raises(pde4_graph):
    record = parse_flat_record(
        "ENTRY       D2 Drug\nNAME        Y\nEFFICACY    Anti-inflammatory\n"
        "TARGET      NOSUCHGENE [HSA:99999]\n  PATHWAY   hsa04064(99999)  x\n"
    )
    with pytest.raises(TargetNotInPathway, match="has no target mapped into the graphs"):
        infer_downstream_processes(record, pde4_graph)


def test_depth_limit_excludes_far_markers(nerandomilast):
    # long chain: PDE4B at one end, TNF 11 hops away
    from kgmlgen import make_kgml

    entries = [{"id": "1", "name": "hsa:5142", "graphics": "PDE4B"}]
    relations = []
    for i in range(11):
        entries.append({"id": str(i + 2), "name": f"hsa:{i + 2}", "graphics": f"Z{i:02d}"})
        relations.append((str(i + 1), str(i + 2), ["activation"]))
    entries.append({"id": "13", "name": "hsa:7124", "graphics": "TNF"})
    relations.append(("12", "13", ["activation"]))
    graph, _rg = parse_kgml(make_kgml(entries=entries, relations=relations))
    matches = infer_downstream_processes(nerandomilast, graph)
    assert all(m.process != "inflammation" for m in matches)


def test_strip_identifiers():
    assert "D12975" not in strip_identifiers("Nerandomilast (D12975) for IPF")
    assert strip_identifiers("target hsa04024 [DS:H01299] C00022") == "target"


def cross_pool():
    return [
        "Quantify cleaved caspase 3 positive cells in tumor biopsies at weeks 2 and 6; track longitudinally with clinical response assessment",
        "Assess endothelial function via flow mediated dilation and arterial stiffness at weeks 4 and 8; correlate with vascular biomarkers",
    ]


def test_surrogate_item_answer_pattern(nerandomilast, pde4_graph):
    processes = infer_downstream_processes(nerandomilast, pde4_graph)
    context = categorize_context(nerandomilast)
    item = build_surrogate_item(nerandomilast, processes, context, cross_pool(), seed=8)
    answer_texts = sorted(o.text for o in item.options if o.label in item.answers)
    assert answer_texts == sorted(
        [
            "Analyze cytokine signaling pathway inhibition in peripheral blood cells at weeks 2 and 4; assess JAK STAT or NF kappa B pathway suppression",
            "Measure C reactive protein and erythrocyte sedimentation rate serially at weeks 2, 4, and 8; correlate with clinical disease activity scores",
            "Track circulating inflammatory cytokines (TNF alpha, IL 6, IL 1 beta) at baseline and weeks 1, 2, 4, 8; correlate with clinical response at week 12",
        ]
    )


def test_surrogate_item_tiers_and_size(nerandomilast, pde4_graph):
    processes = infer_downstream_processes(nerandomilast, pde4_graph)
    context = categorize_context(nerandomilast)
    item = build_surrogate_item(nerandomilast, processes, context, cross_pool(), seed=8)
    gains = [o.gain for o in item.options]
    assert 6 <= len(item.options) <= 10
    assert gains.count(2) >= 2 and gains.count(1) >= 2 and gains.count(0) >= 2
    proximal = [o for o in item.options if "target occupancy" in o.text]
    assert proximal and all(o.gain == 0 for o in proximal)


def test_surrogate_item_strips_identifiers(nerandomilast, pde4_graph):
    import re

    processes = infer_downstream_processes(nerandomilast, pde4_graph)
    context = categorize_context(nerandomilast)
    item = build_surrogate_item(nerandomilast, processes, context, cross_pool(), seed=8)
    blob = item.question + " " + " ".join(o.text for o in item.options)
    assert not re.search(r"\b[DC]\d{5}\b", blob)
    assert not re.search(r"\bhsa\d+\b", blob)
    assert "Idiopathic pulmonary fibrosis" in item.question
    assert "Phosphodiesterase IV inhibitor" in item.question


def test_surrogate_pool_empty(nerandomilast, pde4_graph):
    processes = infer_downstream_processes(nerandomilast, pde4_graph)
    context = categorize_context(nerandomilast)
    with pytest.raises(InsufficientCandidates, match="cross-drug distractor pool is empty"):
        build_surrogate_item(nerandomilast, processes, context, [], seed=8)


def test_surrogate_insufficient_when_no_processes(nerandomilast):
    context = categorize_context(nerandomilast)
    with pytest.raises(NoCorrectOption, match="only 0 gain-2 strategies constructible"):
        build_surrogate_item(nerandomilast, [], context, cross_pool(), seed=8)


def test_gain2_strategies_respect_context(nerandomilast, pde4_graph):
    processes = infer_downstream_processes(nerandomilast, pde4_graph)
    strategies = gain2_strategies(processes, categorize_context(nerandomilast))
    assert all("week" in s for s in strategies)
    assert len(strategies) >= 2
