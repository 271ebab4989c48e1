"""Target-identification and flux curators: gain rules, fixtures, determinism."""
import hashlib
import random
from dataclasses import replace

import pytest

from biokgr import substring_pattern
from biokgr.curation.flux import (
    FluxOption,
    build_flux_item,
    classify_flux_option,
    target_facts,
)
from biokgr.curation.target_id import (
    PROFILES,
    assign_target_gains,
    build_target_item,
    is_blacklisted,
    nearest_rank_percentile,
)
from biokgr.curation.items import (InsufficientCandidates, InsufficientEvidence,
                                   TargetNotInPathway, write_items_jsonl)
from biokgr.pathways import analytics, parse_kgml
from biokgr.pathways.analytics import MAX_PATHS_PER_PAIR
from biokgr.pathways.graphs import PathwayNode, ReactionGraph, SignedEdge, SignedPathwayGraph

from kgmlgen import cascade_kgml, random_signed_graph, shmt2_flux_kgml, ulcerative_colitis_kgml


@pytest.fixture(scope="module")
def uc_graph():
    graph, _rg = parse_kgml(ulcerative_colitis_kgml())
    return graph


@pytest.fixture(scope="module")
def shmt2():
    return parse_kgml(shmt2_flux_kgml())


@pytest.fixture(scope="module")
def shmt2_facts(shmt2):
    _graph, rg = shmt2
    return target_facts(rg, "SHMT2")


# -- gain assignment -------------------------------------------------------------

def simple_graph(edges, genes=None, endpoint="END"):
    nodes = {endpoint} | {e[0] for e in edges} | {e[1] for e in edges} | set(genes or [])
    return SignedPathwayGraph(
        pathway_id="x",
        title="x",
        nodes={name: PathwayNode(symbol=name, entry_type="map" if name == endpoint else "gene")
               for name in nodes},
        edges=[SignedEdge(src, dst, w) for src, dst, w in edges],
        endpoints={endpoint},
    )


def test_positive_kinase_gets_gain_two():
    graph = simple_graph([("MAPK1", "END", 1)])
    gains = assign_target_gains(graph, ["MAPK1"], PROFILES["cancer"])
    assert gains["MAPK1"].value == 2


def test_blacklisted_symbol_forced_zero():
    graph = simple_graph([("RPL3", "END", 1)])
    gains = assign_target_gains(graph, ["RPL3"], PROFILES["cancer"])
    assert gains["RPL3"].value == 0
    assert gains["RPL3"].rationale == "non_druggable"


def test_negative_polarity_protective():
    graph = simple_graph([("GENE1", "END", -1)])
    gains = assign_target_gains(graph, ["GENE1"], PROFILES["other"])
    assert gains["GENE1"].value == 0
    assert gains["GENE1"].rationale == "protective"


def test_profile_lowers_threshold():
    # polarity 1/3: below the default 0.5 but above the prioritized 0.3
    edges = [
        ("TNF", "A1", 1), ("A1", "END", 1),
        ("TNF", "A2", 1), ("A2", "END", 1),
        ("TNF", "A3", 1), ("A3", "END", -1),
    ]
    graph = simple_graph(edges)
    # relay genes carry the betweenness, so TNF is not top-decile central
    candidates = ["TNF", "A1", "A2", "A3"]
    infection = assign_target_gains(graph, candidates, PROFILES["infection"])
    other = assign_target_gains(graph, candidates, PROFILES["other"])
    assert infection["TNF"].value == 2
    assert other["TNF"].value == 1


def test_no_endpoints_raises():
    graph = replace(simple_graph([("A", "B", 1)]), endpoints=())
    with pytest.raises(InsufficientEvidence, match="has no disease endpoints"):
        assign_target_gains(graph, ["A"], PROFILES["other"])


def test_nearest_rank_percentile():
    assert nearest_rank_percentile([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 90) == 9
    assert nearest_rank_percentile([5.0], 90) == 5.0


def test_is_blacklisted_prefix_and_word():
    graph = simple_graph([("TUBB1", "END", 1)], genes=["BRAF"])
    assert is_blacklisted(graph, "TUBB1")
    assert not is_blacklisted(graph, "BRAF")


@pytest.mark.parametrize("words, text, found", [
    ([], "", False),
    ([], "anything", False),
    (["ribosomal", "keratin"], "60s ribosomal protein l5", True),
    (["a.b"], "axb", False),  # a word matches as written, not as a pattern
    (["a.b", "(x"], "1 (x 2", True),
])
def test_substring_pattern_finds_any_word_as_written(words, text, found):
    assert (substring_pattern(words).search(text) is not None) is found


# -- UC fixture ---------------------------------------------------------------

def test_uc_fixture_answers_tnf_il6(uc_graph):
    item = build_target_item(uc_graph, PROFILES["infection"], seed=42)
    answer_texts = sorted(o.text for o in item.options if o.label in item.answers)
    assert answer_texts == ["IL6 : cytokine", "TNF : cytokine"]
    assert len(item.options) == 10


def test_uc_fixture_option_rendering(uc_graph):
    item = build_target_item(uc_graph, PROFILES["infection"], seed=42)
    texts = {o.text for o in item.options}
    assert "NOD2 : pattern recognition receptor" in texts
    assert "SMAD7 : transcription regulator" in texts


def test_insufficient_candidates():
    graph = simple_graph([(f"G{i}", "END", 1) for i in range(7)])
    with pytest.raises(InsufficientCandidates, match="7 candidates < option count 10"):
        build_target_item(graph, PROFILES["other"], option_count=10)


def test_target_item_deterministic(uc_graph):
    a = build_target_item(uc_graph, PROFILES["infection"], seed=42)
    b = build_target_item(uc_graph, PROFILES["infection"], seed=42)
    assert a.to_dict() == b.to_dict()
    c = build_target_item(uc_graph, PROFILES["infection"], seed=43)
    assert [o.text for o in c.options] != [o.text for o in a.options] or c.item_id != a.item_id


def test_generated_target_item_bytes_are_pinned(tmp_path):
    # two cascades (one with two endpoints) and one whose dense core hits the
    # path cap, so the gains of core genes rest on the capped path prefix
    items = []
    truncated = 0
    for seed, n_genes, dense_core in ((5, 30, 0), (7, 40, 0), (3, 20, 14)):
        graph, _rg = parse_kgml(cascade_kgml(seed, n_genes, dense_core))
        topology = graph.topology
        polarities = [topology.path_polarity(g, graph.endpoints) for g in graph.gene_symbols()]
        truncated += sum(p.truncated and p.path_count == MAX_PATHS_PER_PAIR for p in polarities)
        items.append(build_target_item(graph, PROFILES["cancer"], seed=seed))
    assert truncated == 14
    write_items_jsonl(items, tmp_path / "items.jsonl")
    digest = hashlib.sha256((tmp_path / "items.jsonl").read_bytes()).hexdigest()
    assert digest == "f2780a15746681403ec1acd690064f6cbb348cf9ae4fedbcc31851b2cc19faf0"


def test_shuffle_preserves_text_gain_pairs(uc_graph):
    a = build_target_item(uc_graph, PROFILES["infection"], seed=1)
    b = build_target_item(uc_graph, PROFILES["infection"], seed=2)
    assert sorted((o.text, o.gain) for o in a.options) == sorted(
        (o.text, o.gain) for o in b.options
    )


# -- flux classification -----------------------------------------------------------

def test_flux_downstream_decrease_within_two_steps(shmt2_facts):
    score = classify_flux_option(shmt2_facts, FluxOption("downstream", "decrease", "Glycine"))
    assert score.value == 2


def test_flux_downstream_increase_is_mass_balance_violation(shmt2_facts):
    score = classify_flux_option(shmt2_facts, FluxOption("downstream", "increase", "Glycine"))
    assert score.value == 0
    assert score.rationale == "mass_balance_violation"


def test_flux_upstream_accumulation(shmt2_facts):
    score = classify_flux_option(shmt2_facts, FluxOption("upstream", "increase", "Serine"))
    assert score.value == 2


def test_flux_terminal_endpoint_sustained(shmt2_facts):
    score = classify_flux_option(shmt2_facts, FluxOption("downstream", "sustained", "Purine"))
    assert score.value == 2
    assert score.rationale == "endpoint_suppression"


def test_flux_cycle_capped_at_one(shmt2_facts):
    score = classify_flux_option(shmt2_facts, FluxOption("downstream", "sustained", "CycloA"))
    assert score.value == 1
    assert score.rationale in ("feedback_transient", "neutral")


def test_flux_no_change_zero(shmt2_facts):
    assert classify_flux_option(shmt2_facts, FluxOption("none", "no_change")).value == 0


def test_flux_unlinked_target(shmt2):
    _graph, rg = shmt2
    with pytest.raises(TargetNotInPathway, match="'NOPE' is not linked to any reaction"):
        classify_flux_option(target_facts(rg, "NOPE"), FluxOption("none", "no_change"))


# -- flux item ------------------------------------------------------------------

def test_flux_item_has_seven_options(shmt2):
    graph, rg = shmt2
    item = build_flux_item(graph, rg, "SHMT2", seed=3)
    assert len(item.options) == 7
    assert len(item.answers) == 2


def test_flux_item_answer_patterns(shmt2):
    graph, rg = shmt2
    item = build_flux_item(graph, rg, "SHMT2", seed=3)
    answers = [o for o in item.options if o.label in item.answers]
    texts = sorted(o.text for o in answers)
    assert any("sustained" in t and "decrease in Glycine labeling" in t for t in texts)
    assert any("consistent suppression of Purine synthesis" in t for t in texts)


def test_flux_item_names_real_compounds(shmt2):
    graph, rg = shmt2
    item = build_flux_item(graph, rg, "SHMT2", seed=3)
    joined = " ".join(o.text for o in item.options)
    assert "Glycine" in joined and "Purine" in joined


def test_flux_item_template_fallback():
    # target linked to a reaction whose products are all inside a cycle and
    # whose graph has no terminal: texts fall back to template descriptors
    graph = SignedPathwayGraph(pathway_id="p", title="t", nodes={"ENZ": PathwayNode(symbol="ENZ")})
    rg = ReactionGraph(
        compounds={"X1": "X1", "X2": "X2"},
        edges=[("X1", "X2", "R1"), ("X2", "X1", "R2")],
        enzymes={"ENZ": ("R1",)},
        reaction_substrates={"R1": ("X1",), "R2": ("X2",)},
        reaction_products={"R1": ("X2",), "R2": ("X1",)},
    )
    item = build_flux_item(graph, rg, "ENZ", seed=5)
    joined = " ".join(o.text for o in item.options)
    assert "tracer labeling" in joined
    assert len(item.options) == 7


def test_flux_item_deterministic(shmt2):
    graph, rg = shmt2
    a = build_flux_item(graph, rg, "SHMT2", seed=9)
    b = build_flux_item(graph, rg, "SHMT2", seed=9)
    assert a.to_dict() == b.to_dict()


def test_flux_item_absent_gene(shmt2):
    graph, rg = shmt2
    with pytest.raises(TargetNotInPathway, match="'TP53' is not linked to any reaction"):
        build_flux_item(graph, rg, "TP53", seed=0)


# -- one topology per item --------------------------------------------------------

def count_calls(monkeypatch, module, name) -> list[int]:
    """Replace `module.name` with a wrapper that appends to the returned list."""
    calls: list[int] = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_target_item_computes_betweenness_once(monkeypatch):
    graph, _rg = parse_kgml(ulcerative_colitis_kgml())  # a topology not yet built
    calls = count_calls(monkeypatch, analytics, "_brandes")
    build_target_item(graph, PROFILES["infection"], seed=42)
    build_target_item(graph, PROFILES["cancer"], seed=43)
    assert len(calls) == 1


def test_flux_item_computes_the_scc_partition_once(monkeypatch):
    graph, rg = parse_kgml(shmt2_flux_kgml())
    calls = count_calls(monkeypatch, analytics, "_tarjan")
    build_flux_item(graph, rg, "SHMT2", seed=3)
    build_flux_item(graph, rg, "SHMT2", seed=4)
    assert len(calls) == 1


# -- invariants over random graphs ------------------------------------------------

def test_gain_invariants_on_random_graphs():
    rng = random.Random(101)
    checked = 0
    for _ in range(60):
        graph = random_signed_graph(rng, max_nodes=20)
        nodes = sorted(graph.nodes)
        endpoint = nodes[-1]
        graph = replace(graph, endpoints={endpoint})
        candidates = nodes[:-1]
        gains = assign_target_gains(graph, candidates, PROFILES["cancer"])
        from biokgr.pathways.analytics import path_polarity

        for candidate, score in gains.items():
            polarity = path_polarity(graph, candidate, {endpoint})
            if polarity.value < 0:
                assert score.value == 0
            checked += 1
    assert checked > 100
