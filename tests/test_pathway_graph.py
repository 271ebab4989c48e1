"""KGML/flat parsing and graph analytics against brute-force oracles."""
import ast
import gc
import random
from dataclasses import replace
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import biokgr
from biokgr.pathways import (
    MalformedKgml,
    MalformedRecord,
    NodeNotFound,
    infer_functional_type,
    parse_flat_record,
    parse_kgml,
)
from biokgr.pathways.analytics import (
    DIRECTIONS,
    MAX_PATH_EDGES,
    MAX_PATHS_PER_PAIR,
    Topology,
    _brandes,
    betweenness,
    k_step_neighborhood,
    path_polarity,
)
from biokgr.pathways.graphs import PathwayNode, ReactionGraph, SignedEdge, SignedPathwayGraph

from kgmlgen import (
    blank_name_kgml,
    cascade_kgml,
    cyclic_group_kgml,
    egfr_cancer_kgml,
    group_chain_kgml,
    make_kgml,
    pde4_inflammation_kgml,
    random_signed_graph,
    shmt2_flux_kgml,
    ulcerative_colitis_kgml,
)
from oracles import (
    betweenness_oracle,
    brandes_reference,
    capped_polarity_reference,
    distance_oracle,
    k_step_oracle,
    kgml_reference,
    polarity_oracle,
    scc_oracle,
    terminal_oracle,
)


# -- KGML parsing -------------------------------------------------------------

def test_activation_maps_to_plus_one():
    doc = make_kgml(
        entries=[
            {"id": "1", "name": "hsa:1", "graphics": "AAA"},
            {"id": "2", "name": "hsa:2", "graphics": "BBB"},
        ],
        relations=[("1", "2", ["activation"])],
    )
    graph, _rg = parse_kgml(doc)
    assert len(graph.edges) == 1
    edge = graph.edges[0]
    assert (edge.source, edge.target, edge.weight) == ("AAA", "BBB", 1)


def test_inhibition_maps_to_minus_one():
    doc = make_kgml(
        entries=[
            {"id": "1", "name": "hsa:1", "graphics": "AAA"},
            {"id": "2", "name": "hsa:2", "graphics": "BBB"},
        ],
        relations=[("1", "2", ["inhibition"])],
    )
    graph, _rg = parse_kgml(doc)
    assert graph.edges[0].weight == -1


def test_expression_and_repression_signs():
    doc = make_kgml(
        entries=[
            {"id": "1", "name": "hsa:1", "graphics": "AAA"},
            {"id": "2", "name": "hsa:2", "graphics": "BBB"},
            {"id": "3", "name": "hsa:3", "graphics": "CCC"},
        ],
        relations=[("1", "2", ["expression"]), ("2", "3", ["repression"])],
    )
    graph, _rg = parse_kgml(doc)
    weights = {(e.source, e.target): e.weight for e in graph.edges}
    assert weights == {("AAA", "BBB"): 1, ("BBB", "CCC"): -1}


def test_unmapped_subtype_is_recorded_as_skipped():
    doc = make_kgml(
        entries=[
            {"id": "1", "name": "hsa:1", "graphics": "AAA"},
            {"id": "2", "name": "hsa:2", "graphics": "BBB"},
        ],
        relations=[("1", "2", ["binding/association"])],
    )
    graph, _rg = parse_kgml(doc)
    assert graph.edges == ()
    assert graph.skipped_relations == (("1", "2", "binding/association"),)


def test_reaction_becomes_substrate_product_edge():
    doc = make_kgml(
        entries=[
            {"id": "9", "name": "hsa:9", "graphics": "ENZ", "reaction": "rn:R00001"},
            {"id": "20", "name": "cpd:C00022", "type": "compound", "graphics": "Pyruvate"},
            {"id": "21", "name": "cpd:C00024", "type": "compound", "graphics": "AcCoA"},
        ],
        reactions=[
            {"name": "rn:R00001", "substrates": [("20", "cpd:C00022")],
             "products": [("21", "cpd:C00024")]},
        ],
    )
    _graph, rg = parse_kgml(doc)
    assert ("Pyruvate", "AcCoA", "R00001") in rg.edges
    assert rg.enzymes == {"ENZ": ("R00001",)}
    assert rg.gene_products("ENZ") == ["AcCoA"]


def test_group_relations_expand_to_members():
    doc = make_kgml(
        entries=[
            {"id": "1", "name": "hsa:1", "graphics": "AAA"},
            {"id": "2", "name": "hsa:2", "graphics": "BBB"},
            {"id": "3", "name": "hsa:3", "graphics": "CCC"},
            {"id": "4", "name": "undefined", "type": "group", "graphics": None,
             "components": ["1", "2"]},
        ],
        relations=[("4", "3", ["activation"])],
    )
    graph, _rg = parse_kgml(doc)
    pairs = {(e.source, e.target) for e in graph.edges}
    assert pairs == {("AAA", "CCC"), ("BBB", "CCC")}


def test_endpoint_lexicon_marks_map_nodes():
    graph, _rg = parse_kgml(ulcerative_colitis_kgml())
    assert graph.endpoints == {"Inflammation"}
    assert graph.title == "Inflammatory bowel disease"
    assert "TNF" in graph.gene_symbols()
    assert "Inflammation" not in graph.gene_symbols()


def test_malformed_kgml_raises_with_context():
    with pytest.raises(MalformedKgml):
        parse_kgml("<pathway><entry></pathway>")
    with pytest.raises(MalformedKgml, match="expected <pathway>"):
        parse_kgml("<notkgml/>")


def test_kgml_parse_and_analytics_leave_no_garbage_cycle():
    document = cascade_kgml(3, n_genes=30, dense_core=6)
    graph = parse_kgml(document)[0]
    genes = graph.gene_symbols()

    def topologies():  # fresh ones, so that no analytic is a cache hit
        signed, reactions = parse_kgml(shmt2_flux_kgml())
        return signed.topology, reactions.topology

    def refused(text):
        with pytest.raises(MalformedKgml):
            parse_kgml(text)
        return True

    operations = {
        "parse": lambda: parse_kgml(document),
        "parse with groups and reactions": lambda: parse_kgml(shmt2_flux_kgml()),
        "refused: a group that contains itself": lambda: refused(cyclic_group_kgml()),
        "refused: not well-formed": lambda: refused(ulcerative_colitis_kgml()[:300]),
        "betweenness, components, cyclic and terminals": lambda: [
            (topology.betweenness, topology.components, topology.cyclic, topology.terminals)
            for topology in topologies()],
        "path_polarity": lambda: [graph.topology.path_polarity(gene, sorted(graph.endpoints))
                                  for gene in genes[:5]],
        "distances": lambda: [graph.topology.distances(genes[:2], 3, direction)
                              for direction in DIRECTIONS],
    }
    gc.collect()
    gc.disable()
    try:
        for name, operation in operations.items():
            assert operation(), name
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_duplicate_symbol_entries_merge():
    doc = make_kgml(
        entries=[
            {"id": "1", "name": "hsa:7124", "graphics": "TNF, DIF"},
            {"id": "2", "name": "hsa:7124", "graphics": "TNF, TNFA"},
            {"id": "3", "name": "hsa:2", "graphics": "BBB"},
        ],
        relations=[("1", "3", ["activation"]), ("2", "3", ["activation"])],
    )
    graph, _rg = parse_kgml(doc)
    assert list(graph.nodes) == ["TNF", "BBB"]
    assert len(graph.edges) == 1  # deduplicated after symbol merge


@pytest.mark.parametrize("cycle", [("5",), ("5", "6"), ("5", "6", "7")],
                         ids=["lists-itself", "two-groups", "three-groups"])
def test_a_group_that_contains_itself_is_malformed(cycle):
    with pytest.raises(MalformedKgml, match="group '5' contains itself"):
        parse_kgml(cyclic_group_kgml(cycle))


def test_a_group_no_relation_uses_is_never_expanded():
    graph, _rg = parse_kgml(cyclic_group_kgml(("5",)).replace('entry1="5"', 'entry1="1"'))
    assert [(e.source, e.target) for e in graph.edges] == [("TNF", "TNF")]


def test_a_chain_of_1200_nested_groups_expands_to_its_innermost_member():
    document = group_chain_kgml(1200)
    graph, _rg = parse_kgml(document)
    assert graph.edges == (SignedEdge("TNF", "IL6", 1, "activation"),)
    assert _parsed(parse_kgml, document) == _parsed(kgml_reference, document)


def test_groups_listing_one_subgroup_twice_at_30_levels_expand_each_group_once():
    graph, _rg = parse_kgml(group_chain_kgml(30, copies=2))
    assert graph.edges == (SignedEdge("TNF", "IL6", 1, "activation"),)
    document = group_chain_kgml(8, copies=2)
    assert _parsed(parse_kgml, document) == _parsed(kgml_reference, document)


def test_a_chain_of_1200_nested_groups_that_closes_on_itself_is_malformed():
    document = group_chain_kgml(1200).replace('<component id="1"/>', '<component id="100"/>')
    with pytest.raises(MalformedKgml, match="group '100' contains itself"):
        parse_kgml(document)


def test_an_entry_named_only_by_whitespace_is_named_by_its_id():
    graph, _rg = parse_kgml(blank_name_kgml())
    assert list(graph.nodes) == ["1", "BBB", "3"]
    assert [(e.source, e.target) for e in graph.edges] == [("1", "BBB"), ("BBB", "3")]


# -- KGML parsing against the ElementTree reference ------------------------------

KEGG_PROLOG = ('<?xml version="1.0"?>\n<!DOCTYPE pathway SYSTEM '
               '"https://www.kegg.jp/kegg/xml/KGML_v0.7.2_.dtd">\n')


def _without_prolog(document: str) -> str:
    return document.split("\n", 1)[1]


def _relations_first(document: str) -> str:
    """`document` with its relations moved before its entries."""
    head, rest = document.split("\n  <entry", 1)
    entries, relations = rest.split("\n  <relation", 1)
    relations, tail = relations.split("\n</pathway>")
    return f"{head}\n  <relation{relations}\n  <entry{entries}\n</pathway>{tail}"


def _kgml_edge_cases() -> dict[str, str]:
    nested_groups = make_kgml(
        entries=[{"id": str(i), "name": f"hsa:{i}", "graphics": f"G{i}"} for i in range(1, 6)]
        + [{"id": "10", "name": "undefined", "type": "group", "graphics": None,
            "components": ["1", "11", "11"]},
           {"id": "11", "name": "undefined", "type": "group", "graphics": None,
            "components": ["2", "3", "99"]},
           {"id": "12", "name": "undefined", "type": "group", "graphics": None}],
        relations=[("10", "4", ["activation"]), ("5", "11", ["inhibition"]),
                   ("12", "4", ["activation"]), ("11", "10", ["expression"])],
    )
    duplicates = make_kgml(
        entries=[
            {"id": "1", "name": "hsa:7124 ec:3.4.21.1", "graphics": "TNF, DIF, 1.1.1.1",
             "reaction": "rn:R00001 rn:R00002"},
            {"id": "2", "name": "hsa:7125", "graphics": "TNF, TNFA, 2.7.11.1", "reaction": "rn:R00003"},
            {"id": "3", "name": "hsa:2", "graphics": "BBB", "type": "ortholog"},
            {"id": "4", "name": "ko:K00001", "graphics": "TNF.", "type": "enzyme"},
            {"id": "5", "name": "ko:K00002", "graphics": "1.14.13.39", "type": "enzyme"},
            {"id": "1", "name": "hsa:9", "graphics": "CCC"},
        ],
        relations=[("1", "3", ["activation"]), ("2", "3", ["activation"]),
                   ("4", "3", ["repression"]), ("3", "1", ["inhibition", "activation"])],
    )
    title_maps = make_kgml(entries=[
        {"id": "1", "name": "path:hsa04210", "type": "map", "graphics": "TITLE:Apoptosis"},
        {"id": "2", "name": "path:hsa04110", "type": "map", "graphics": "Cell cycle progression"},
        {"id": "3", "name": "path:hsa00000", "type": "map", "graphics": None},
        {"id": "4", "name": "", "type": "map", "graphics": "TITLE:"},
        {"id": "5", "name": "hsa:5", "graphics": "Proliferation marker"},
        {"id": "6", "name": "br:ko01000", "type": "brite", "graphics": "Apoptosis"},
    ], relations=[("5", "1", ["activation"]), ("5", "2", ["expression"]), ("5", "3", [])])
    compounds = make_kgml(
        entries=[
            {"id": "1", "name": "hsa:1", "graphics": "ENZ", "reaction": "rn:R00001"},
            {"id": "20", "name": "cpd:C00022", "type": "compound", "graphics": "C00022"},
            {"id": "21", "name": "cpd:C00024 cpd:C00025", "type": "compound", "graphics": None},
            {"id": "22", "name": "gl:G00001", "type": "compound", "graphics": "G00001"},
            {"id": "23", "name": "", "type": "compound", "graphics": None},
            {"id": "24", "name": "cpd:C00026", "type": "compound", "graphics": "Oxoglutarate, 2-OG"},
        ],
        reactions=[
            {"name": "rn:R00001", "substrates": [("20", "cpd:C00022"), ("23", "")],
             "products": [("21", "cpd:C00024"), ("98", "cpd:C99999")]},
            {"name": "rn:R00002", "type": "reversible", "substrates": [("22", "gl:G00001")],
             "products": [("24", "cpd:C00026"), ("99", "")]},
            {"name": "rn:R00003"},
        ],
    )
    unsigned = make_kgml(
        entries=[{"id": "1", "name": "hsa:1", "graphics": "AAA"},
                 {"id": "2", "name": "hsa:2", "graphics": "BBB"}],
        relations=[("1", "2", ["binding/association"]), ("1", "2", []),
                   ("1", "2", ["phosphorylation", "inhibition"]), ("1", "9", ["activation"]),
                   ("2", "1", ["indirect effect", "dissociation"])],
    ).replace('<subtype name="dissociation"', "<subtype")
    ids_shared = make_kgml(
        entries=[{"id": "1", "name": "hsa:1", "graphics": "AAA"},
                 {"id": "2", "name": "hsa:2", "graphics": "BBB"},
                 {"id": "7", "name": "hsa:7", "graphics": "GENE7"},
                 {"id": "7", "name": "undefined", "type": "group", "graphics": None,
                  "components": ["1", "2"]},
                 {"id": "8", "name": "undefined", "type": "group", "graphics": None,
                  "components": ["2"]},
                 {"id": "8", "name": "hsa:8", "graphics": "GENE8"}],
        relations=[("7", "8", ["activation"]), ("8", "1", ["inhibition"])],
    )
    colitis = ulcerative_colitis_kgml()
    return {
        "kegg-doctype": KEGG_PROLOG + _without_prolog(colitis),
        "declared-encoding-non-ascii": '<?xml version="1.0" encoding="ISO-8859-1"?>\n'
        + _without_prolog(colitis).replace("TNF, DIF", "TNF, TNF-\u03b1, Gr\u00f6\u00dfe")
        .replace('"Inflammation"', '"Inflammation \u2013 acute"'),
        "entity-references-in-attributes": colitis.replace(
            "IL10, CSIF", "IL10, &#946;-catenin, A&amp;B, &lt;x&gt;, &quot;q&quot;, &#x3b3;"),
        "nested-groups": nested_groups,
        "duplicate-symbols": duplicates,
        "title-maps": title_maps,
        "compound-name-fallbacks": compounds,
        "unsigned-subtypes": unsigned,
        "relations-before-entries": _relations_first(colitis),
        "elements-nested-below-the-records": colitis.replace(
            "</pathway>", '<x><y><entry id="90" name="hsa:90" type="gene"><graphics name="ZZZ"/>'
            '</entry></y></x><x><entry id="91" name="hsa:91" type="gene"/></x></pathway>').replace(
            '<graphics name="TNF, DIF', '<graphics/><graphics name="TNF, DIF').replace(
            '<graphics name="IL10', '<x><graphics name="NESTED"/></x><graphics name="IL10').replace(
            '<subtype name="inhibition"', '<x><subtype name="activation"/></x><subtype name="inhibition"'),
        "ids-shared-by-a-gene-and-a-group": ids_shared,
        "names-of-only-whitespace": blank_name_kgml(),
    }


def _parsed(parse, document: str):
    """Everything `parse` makes of `document`, in order, or the failure it raises."""
    try:
        graph, rg = parse(document)
    except MalformedKgml as exc:
        return "raises", str(exc)
    return (graph.pathway_id, graph.title, list(graph.nodes.values()),
            graph.edges, graph.skipped_relations, sorted(graph.endpoints),
            list(rg.compounds.items()), rg.edges, list(rg.enzymes.items()),
            list(rg.reaction_substrates.items()), list(rg.reaction_products.items()))


KGML_FIXTURES = {
    "make-kgml": make_kgml(),
    "ulcerative-colitis": ulcerative_colitis_kgml(),
    "shmt2-flux": shmt2_flux_kgml(),
    "pde4-inflammation": pde4_inflammation_kgml(),
    "egfr-cancer": egfr_cancer_kgml(),
    **{f"cascade-{seed}": cascade_kgml(seed) for seed in range(4)},
    **{f"cascade-{seed}-dense": cascade_kgml(seed, n_genes=40, dense_core=14) for seed in range(4)},
    **_kgml_edge_cases(),
}


@pytest.mark.parametrize("document", KGML_FIXTURES.values(), ids=KGML_FIXTURES.keys())
def test_parse_kgml_reads_what_the_elementtree_reference_reads(document):
    ours = _parsed(parse_kgml, document)
    assert ours[0] != "raises", ours
    assert ours == _parsed(kgml_reference, document)


MALFORMED_KGML = {
    **{f"truncated-at-{cut}": ulcerative_colitis_kgml()[:cut] for cut in range(0, 2000, 97)},
    "undefined-entity-after-doctype": KEGG_PROLOG + _without_prolog(
        ulcerative_colitis_kgml()).replace("</pathway>", "&nbsp;</pathway>"),
    "undefined-entity": ulcerative_colitis_kgml().replace("</pathway>", "&nbsp;</pathway>"),
    "external-entity-in-content": '<!DOCTYPE pathway [<!ENTITY e SYSTEM "e.xml">]>\n'
    + _without_prolog(make_kgml()).replace("</pathway>", "  &e;\n</pathway>"),
    "external-entity-inside-an-internal-one": '<!DOCTYPE pathway [<!ENTITY a "1">'
    '<!ENTITY e SYSTEM "e.xml"><!ENTITY outer "&a;&e;">]>\n'
    + _without_prolog(make_kgml()).replace("</pathway>", "  &outer;\n</pathway>"),
    "unbound-prefix": make_kgml().replace("</pathway>", "<k:entry/></pathway>"),
    "mismatched-tag": make_kgml().replace("</pathway>", "</pathways>"),
    "repeated-attribute": make_kgml().replace('org="hsa"', 'org="hsa" org="mmu"'),
    "text-after-root": make_kgml() + "\n<pathway/>",
    "empty": "",
    "wrong-root": "<notkgml/>",
    "namespaced-root": make_kgml().replace("<pathway ", '<pathway xmlns="urn:kgml" '),
}


@pytest.mark.parametrize("document", MALFORMED_KGML.values(), ids=MALFORMED_KGML.keys())
def test_parse_kgml_refuses_what_the_elementtree_reference_refuses(document):
    # the message names the same line and column
    ours = _parsed(parse_kgml, document)
    assert ours[0] == "raises"
    assert ours == _parsed(kgml_reference, document)


# -- flat records --------------------------------------------------------------

NERANDOMILAST = """\
ENTRY       D12975                      Drug
NAME        Nerandomilast (JAN/USAN/INN);
            BI-1015550
FORMULA     C23H26N8O2
EFFICACY    Anti-inflammatory, Antifibrotic, Phosphodiesterase IV inhibitor
COMMENT     Treatment of idiopathic pulmonary fibrosis
TARGET      PDE4B [HSA:5142] [KO:K13293]
  PATHWAY   hsa04024(5142)  cAMP signaling pathway
CLASS       Anti-inflammatory
             DG03205  Phosphodiesterase IV inhibitor
DISEASE     Idiopathic pulmonary fibrosis [DS:H01299]
///
"""


def test_minimal_record_two_fields():
    record = parse_flat_record("ENTRY       D00001 Drug\nNAME        Examplestat\nEFFICACY    Antineoplastic\n")
    assert record.name == "Examplestat"
    assert record.efficacy == "Antineoplastic"


def test_nerandomilast_record():
    record = parse_flat_record(NERANDOMILAST)
    assert record.accession == "D12975"
    assert record.name == "Nerandomilast"
    assert any("Phosphodiesterase IV" in c for c in record.class_labels)
    assert any("pulmonary fibrosis" in d for d in record.diseases)
    assert record.target_symbols == ("PDE4B",)
    assert record.target_hsa_ids == ("5142",)
    assert record.pathways == ("hsa04024",)
    assert "FORMULA" in record.residual


def test_record_without_name_raises():
    with pytest.raises(MalformedRecord):
        parse_flat_record("ENTRY       D00001 Drug\nEFFICACY    Something\n")


def test_continuation_lines_fold():
    record = parse_flat_record(
        "ENTRY       D1 Drug\nNAME        Alpha;\n            Beta\nCOMMENT     line one\n            line two\n"
    )
    assert record.names == ("Alpha", "Beta")
    assert record.comment == "line one line two"


# -- functional types -----------------------------------------------------------

@pytest.mark.parametrize(
    "symbol,expected",
    [
        ("TNF", "cytokine"),
        ("IL10", "cytokine"),
        ("VEGFA", "growth factor"),
        ("MMP9", "enzyme"),
        ("PTPN2", "phosphatase"),
        ("SMAD7", "transcription regulator"),
        ("NOD2", "pattern recognition receptor"),
        ("IL6", "cytokine"),
        ("STAT3", "transcription factor"),
        ("CXCR2", "receptor"),
    ],
)
def test_supp_table_functional_types(symbol, expected):
    assert infer_functional_type(PathwayNode(symbol=symbol)) == expected


def test_ec_number_falls_back_to_enzyme():
    node = PathwayNode(symbol="UNKNOWN1", ec_numbers=("2.7.11.1",))
    assert infer_functional_type(node) == "enzyme"


def test_specific_class_beats_ec_rule():
    node = PathwayNode(symbol="MAPK1", ec_numbers=("2.7.11.24",))
    assert infer_functional_type(node) == "kinase"


def test_unknown_symbol_is_other():
    assert infer_functional_type(PathwayNode(symbol="ZZZUNKNOWN")) == "other"


@pytest.mark.parametrize("node", [
    PathwayNode(symbol="TNF"),
    PathwayNode(symbol="MAPK1", ec_numbers=("2.7.11.24",)),
    PathwayNode(symbol="UNKNOWN1", ec_numbers=("2.7.11.1",)),
    PathwayNode(symbol="Inflammation", entry_type="map"),
], ids=["family", "family-beats-ec", "ec", "other"])
def test_a_hand_built_node_reports_the_inferred_functional_type(node):
    assert node.functional_type == infer_functional_type(node)


# -- frozen graph values --------------------------------------------------------

@pytest.mark.parametrize("change", [
    lambda graph, rg: setattr(graph, "nodes", {}),
    lambda graph, rg: setattr(graph, "edges", []),
    lambda graph, rg: setattr(graph, "endpoints", set()),
    lambda graph, rg: graph.nodes.__setitem__("X", PathwayNode(symbol="X")),
    lambda graph, rg: graph.edges.append(graph.edges[0]),
    lambda graph, rg: graph.endpoints.add("TNF"),
    lambda graph, rg: setattr(graph.nodes["TNF"], "ec_numbers", ("1.1.1.1",)),
    lambda graph, rg: setattr(graph.edges[0], "weight", -1),
    lambda graph, rg: setattr(rg, "edges", []),
    lambda graph, rg: rg.compounds.__setitem__("X", "X"),
    lambda graph, rg: rg.enzymes.__setitem__("X", ("R1",)),
], ids=["nodes", "edges", "endpoints", "add-node", "add-edge", "add-endpoint", "node-field",
        "edge-field", "reaction-edges", "add-compound", "add-enzyme"])
def test_a_parsed_graph_cannot_be_changed(change):
    graph, _rg = parse_kgml(ulcerative_colitis_kgml())
    _graph, rg = parse_kgml(shmt2_flux_kgml())
    with pytest.raises((AttributeError, TypeError)):
        change(graph, rg)


def test_a_graph_copies_what_it_is_built_from():
    nodes = {"A": PathwayNode(symbol="A")}
    edges = [SignedEdge("A", "A", 1)]
    graph = SignedPathwayGraph(nodes=nodes, edges=edges, endpoints={"A"})
    nodes["B"] = PathwayNode(symbol="B")
    edges.append(SignedEdge("A", "B", 1))
    assert (list(graph.nodes), graph.edges) == (["A"], (SignedEdge("A", "A", 1),))


def test_a_graph_builds_one_topology():
    graph, rg = parse_kgml(shmt2_flux_kgml())
    assert graph.topology is graph.topology
    assert rg.topology is rg.topology


def test_a_changed_graph_is_a_new_value_with_its_own_topology():
    graph, _rg = parse_kgml(ulcerative_colitis_kgml())
    other, rg = parse_kgml(shmt2_flux_kgml())
    merged = graph.merged_with(other)
    assert merged.topology is not graph.topology
    assert merged.topology.nodes == graph.topology.nodes | other.topology.nodes
    unlinked = replace(rg, edges=())
    assert unlinked.topology is not rg.topology
    assert unlinked.topology.terminals == frozenset(rg.compounds) != rg.topology.terminals


# -- one place builds a topology --------------------------------------------------

def _constructs_topology(call: ast.Call) -> bool:
    return getattr(call.func, "id", getattr(call.func, "attr", None)) == "Topology"


def topology_constructions(package: Path) -> list[str]:
    """Every call under `package` that constructs a `Topology`, outside
    `pathways/graphs.py`, whose graphs each keep the one they build."""
    offences = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "pathways" / "graphs.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offences += [f"{path.relative_to(package)}:{node.lineno} constructs Topology"
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and _constructs_topology(node)]
    return offences


def test_only_the_graph_values_construct_a_topology():
    assert topology_constructions(Path(biokgr.__file__).resolve().parent) == []


@pytest.mark.parametrize("call, constructs", [
    ("Topology(nodes, edges)", True),
    ("analytics.Topology(nodes, edges)", True),
    ("graph.topology.distances(roots, 2)", False),
    ("topology(graph)", False),
])
def test_the_topology_guard_finds_each_construction(call, constructs):
    assert _constructs_topology(ast.parse(call, mode="eval").body) == constructs


# -- analytics: pinned examples --------------------------------------------------

def signed_graph(names, edges, **fields) -> SignedPathwayGraph:
    """A signed graph of plain nodes named `names` and `(source, target, weight)` edges."""
    return SignedPathwayGraph(nodes={name: PathwayNode(symbol=name) for name in names},
                              edges=[SignedEdge(*edge) for edge in edges], **fields)


def chain_graph(signs, extra=()):
    names = [chr(ord("A") + i) for i in range(len(signs) + 1)]
    edges = [(names[i], names[i + 1], sign) for i, sign in enumerate(signs)]
    return signed_graph(names + list(extra), edges), names


def test_polarity_single_positive_chain():
    graph, names = chain_graph([1, 1])
    result = path_polarity(graph, "A", {names[-1]})
    assert result.value == 1.0 and result.path_count == 1 and not result.no_path


def test_polarity_single_negative_edge():
    graph, names = chain_graph([-1])
    result = path_polarity(graph, "A", {names[-1]})
    assert result.value == -1.0


def test_polarity_no_path_flag():
    graph, _names = chain_graph([1], extra=["Z"])
    result = path_polarity(graph, "Z", {"B"})
    assert result.value == 0.0 and result.no_path


def test_polarity_unknown_gene_raises():
    graph, _names = chain_graph([1])
    with pytest.raises(NodeNotFound):
        path_polarity(graph, "NOPE", {"B"})


def test_polarity_respects_length_cap():
    graph, names = chain_graph([1] * 10)  # 10 edges: beyond the 8-edge cap
    result = path_polarity(graph, "A", {names[-1]})
    assert result.no_path


def test_betweenness_chain_midpoint():
    graph, _names = chain_graph([1, 1])
    assert betweenness(graph)["B"] == pytest.approx(1.0)


def test_betweenness_star():
    graph = signed_graph(["I1", "I2", "C", "O1", "O2", "O3"],
                         [(src, "C", 1) for src in ["I1", "I2"]]
                         + [("C", dst, 1) for dst in ["O1", "O2", "O3"]])
    assert betweenness(graph)["C"] == pytest.approx(6.0)


def test_scc_dag_is_singletons():
    graph, names = chain_graph([1, 1, 1])
    components = graph.topology.components
    assert all(len(c) == 1 for c in components)
    assert len(components) == len(names)


def test_scc_cycle_detected():
    graph = signed_graph("ABC", [("A", "B", 1), ("B", "C", 1), ("C", "A", 1)])
    components = graph.topology.components
    assert components == [{"A", "B", "C"}]


def reaction_graph(names, edges) -> ReactionGraph:
    """A reaction graph of compounds `names` and `(substrate, product, reaction)` edges."""
    return ReactionGraph(compounds={name: name for name in names}, edges=edges)


def reaction_chain(names):
    return reaction_graph(names, [(names[i], names[i + 1], f"R{i}") for i in range(len(names) - 1)])


def test_k_step_zero_is_empty():
    rg = reaction_chain(["C1", "C2", "C3"])
    assert k_step_neighborhood(rg, "C1", 0) == set()


def test_k_step_two_downstream():
    rg = reaction_chain(["C1", "C2", "C3", "C4"])
    assert k_step_neighborhood(rg, "C1", 2, "downstream") == {"C2", "C3"}


def test_k_step_upstream():
    rg = reaction_chain(["C1", "C2", "C3", "C4"])
    assert k_step_neighborhood(rg, "C4", 2, "upstream") == {"C2", "C3"}


def test_k_step_missing_node():
    rg = reaction_chain(["C1", "C2"])
    with pytest.raises(NodeNotFound):
        k_step_neighborhood(rg, "C9", 1)


def test_terminal_chain_tail():
    rg = reaction_chain(["C1", "C2", "C3"])
    assert rg.topology.terminals == {"C3"}


def test_terminal_cycle_is_empty():
    rg = reaction_graph(["C1", "C2", "C3"],
                        [("C1", "C2", "R1"), ("C2", "C3", "R2"), ("C3", "C1", "R3")])
    assert rg.topology.terminals == set()


def test_shmt2_fixture_shapes():
    _graph, rg = parse_kgml(shmt2_flux_kgml())
    assert rg.reactions_for_gene("SHMT2") == ("R00945",)
    assert rg.gene_products("SHMT2") == ["Glycine"]
    assert rg.gene_substrates("SHMT2") == ["Serine"]
    assert "Purine" in rg.topology.terminals


# -- analytics: randomized oracle equivalence ------------------------------------

def test_polarity_matches_enumeration_oracle():
    rng = random.Random(7)
    for _ in range(40):
        graph = random_signed_graph(rng, max_nodes=12)
        nodes = sorted(graph.nodes)
        gene = rng.choice(nodes)
        endpoints = set(rng.sample(nodes, k=min(3, len(nodes))))
        endpoints.discard(gene)
        if not endpoints:
            continue
        result = path_polarity(graph, gene, endpoints)
        expected, count = polarity_oracle(graph, gene, sorted(endpoints))
        assert not result.truncated
        assert result.path_count == count
        assert abs(result.value - expected) < 1e-12


def test_parallel_edges_are_distinct_paths():
    # A->B as both activation and expression keeps two +1 edges; with
    # A->C->B (-1) the mean is (1 + 1 - 1) / 3, where one A->B edge gives 0
    doc = make_kgml(
        entries=[
            {"id": "1", "name": "hsa:1", "graphics": "A"},
            {"id": "2", "name": "hsa:2", "graphics": "B"},
            {"id": "3", "name": "hsa:3", "graphics": "C"},
        ],
        relations=[
            ("1", "2", ["activation"]),
            ("1", "2", ["expression"]),
            ("1", "3", ["inhibition"]),
            ("3", "2", ["activation"]),
        ],
    )
    graph, _rg = parse_kgml(doc)
    assert [(e.source, e.target, e.subtype) for e in graph.edges][:2] == [
        ("A", "B", "activation"), ("A", "B", "expression")
    ]
    result = path_polarity(graph, "A", {"B"})
    assert (result.value, result.path_count) == (1 / 3, 3)
    assert polarity_oracle(graph, "A", ["B"]) == (1 / 3, 3)


NAMES = "ABCDEFGHI"


@st.composite
def polarity_cases(draw):
    """A digraph over NAMES: parallel edges, self-loops and edge endpoints
    that are not declared nodes; endpoints may repeat or include the gene."""
    declared = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=7, unique=True))
    edges = draw(st.lists(
        st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES), st.sampled_from((1, -1))),
        max_size=30,
    ))
    endpoints = draw(st.lists(st.sampled_from(declared), min_size=1, max_size=4))
    max_paths = draw(st.one_of(st.integers(1, 4), st.just(MAX_PATHS_PER_PAIR)))
    return declared, edges, endpoints, max_paths


@st.composite
def layered_polarity_cases(draw):
    """Six to nine layers of one to three nodes, each node joined to at least
    one of the next layer, plus a few extra edges (skips, back edges,
    self-loops), so that walks from the first layers use all `MAX_PATH_EDGES`
    edges."""
    widths = draw(st.lists(st.integers(1, 3), min_size=6, max_size=9))
    layers = [[f"L{depth}{'abc'[i]}" for i in range(width)] for depth, width in enumerate(widths)]
    declared = [name for layer in layers for name in layer]
    sign = st.sampled_from((1, -1))
    edges = [(src, dst, draw(sign)) for upper, lower in zip(layers, layers[1:]) for src in upper
             for dst in draw(st.lists(st.sampled_from(lower), min_size=1, unique=True))]
    edges += draw(st.lists(st.tuples(st.sampled_from(declared), st.sampled_from(declared), sign),
                           max_size=4))
    endpoints = [draw(st.sampled_from(layers[-1]))]
    endpoints += draw(st.lists(st.sampled_from(declared), max_size=2))
    max_paths = draw(st.one_of(st.integers(1, 4), st.just(MAX_PATHS_PER_PAIR)))
    return declared, edges, endpoints, max_paths


# the random digraphs seldom hold a path of MAX_PATH_EDGES edges; the layered ones often do
@settings(max_examples=500, deadline=None)
@given(st.one_of(polarity_cases(), layered_polarity_cases()))
def test_one_walk_per_gene_equals_one_dfs_per_endpoint(case):
    declared, edges, endpoints, max_paths = case
    topology = Topology(declared, edges)
    # every declared gene on one topology, so the calls share its cached pruned lists
    for gene in declared:
        ours = topology.path_polarity(gene, endpoints, max_paths)
        assert ours == capped_polarity_reference(declared, edges, gene, endpoints, max_paths)


# G0 -> G1 -> ... -> G5 takes five of the eight edges, so a walk scans the
# last three in place from G5: the sixth (third-to-last) edge, then the
# second-to-last and the final edge
CHAIN = [(f"G{i}", f"G{i + 1}", 1) for i in range(5)]


@pytest.mark.parametrize("edges, expected", [
    # E1 is reached on the seventh edge from P (-1), Q (+1) and R (-1), and
    # its cap of two retires it at Q, so R -> E1 is not counted; E2 stays
    # live and is counted once, on the final edge R -> S -> E2 (+1). The
    # self-loop on E1 is on no simple path.
    (CHAIN + [("G5", "P", 1), ("G5", "Q", 1), ("G5", "R", 1), ("P", "E1", -1), ("Q", "E1", 1),
              ("R", "E1", -1), ("R", "S", 1), ("S", "E2", 1), ("E1", "E1", 1)],
     (1 / 3, 3, True)),
    # two parallel edges retire E2 on the first edge; then E1 is reached on
    # the final edge from M1 (-1) and M2 (-1), its cap retires the last live
    # endpoint and the walk returns before M3 (+1)
    (CHAIN + [("G0", "E2", -1), ("G0", "E2", 1), ("G5", "P", 1), ("P", "M1", -1),
              ("P", "M2", 1), ("P", "M3", 1), ("M1", "E1", 1), ("M2", "E1", -1),
              ("M3", "E1", 1)],
     (-0.5, 4, True)),
], ids=["retired-second-to-last-edge", "last-retired-on-final-edge"])
def test_caps_that_fire_on_the_last_two_edges(edges, expected):
    declared = sorted({name for src, dst, _sign in edges for name in (src, dst)})
    result = Topology(declared, edges).path_polarity("G0", ["E1", "E2"], max_paths=2)
    assert (result.value, result.path_count, result.truncated) == expected
    assert result == capped_polarity_reference(declared, edges, "G0", ["E1", "E2"], max_paths=2)


@pytest.mark.parametrize("edges, expected", [
    # E1 is counted on the fifth edge G4 -> E1 (+1) and again on the sixth,
    # G5 -> E1 (-1), where its cap of two retires it, so G5 -> P -> E1 is
    # not counted; E2 stays live and is counted on the final edge (-1)
    (CHAIN + [("G4", "E1", 1), ("G5", "E1", -1), ("G5", "P", 1), ("P", "E1", 1),
              ("P", "Q", -1), ("Q", "E2", 1)],
     (-1 / 3, 3, True)),
    # two parallel edges retire E2 on the first edge; E1 is counted on the
    # fifth edge and retired on the sixth, the last live endpoint, so the
    # walk returns before G5 -> P -> E1
    (CHAIN + [("G0", "E2", -1), ("G0", "E2", 1), ("G4", "E1", 1), ("G5", "E1", 1),
              ("G5", "P", 1), ("P", "E1", -1)],
     (0.5, 4, True)),
    # E2 is reached on the fifth edge and E1 on the sixth, from E2; the final
    # edges M -> E1 (back to the sixth edge's node, a 2-cycle) and M -> E2
    # (back to the fifth edge's node) would repeat a node, so neither counts
    (CHAIN + [("G4", "E2", 1), ("E2", "E1", -1), ("E1", "M", 1), ("M", "E1", 1),
              ("M", "E2", 1)],
     (0.0, 2, False)),
], ids=["retired-third-to-last-edge", "last-retired-on-third-to-last-edge",
        "no-node-twice"])
def test_caps_and_repeats_on_the_third_to_last_edge(edges, expected):
    declared = sorted({name for src, dst, _sign in edges for name in (src, dst)})
    result = Topology(declared, edges).path_polarity("G0", ["E1", "E2"], max_paths=2)
    assert (result.value, result.path_count, result.truncated) == expected
    assert result == capped_polarity_reference(declared, edges, "G0", ["E1", "E2"], max_paths=2)


@st.composite
def within_cases(draw):
    """A chain of up to twelve nodes into a target, so some nodes lie farther
    than a walk can use, plus random edges (self-loops, parallel edges) over
    the chain and nodes that reach no target."""
    chain = [f"C{i:02}" for i in range(draw(st.integers(0, 12)))] + ["T"]
    names = chain + ["U", "V", "W"]
    edges = [(src, dst, 1) for src, dst in zip(chain, chain[1:])]
    edges += draw(st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from(names), st.sampled_from((1, -1))),
        max_size=20,
    ))
    targets = ["T"] + draw(st.lists(st.sampled_from(names), max_size=2))
    return names, edges, targets


@settings(max_examples=300, deadline=None)
@given(within_cases())
def test_pruned_successors_match_their_definition(case):
    """`within[s][n]` is the successors of n other than n, at most s edges from
    the targets, in successor order."""
    names, edges, targets = case
    topology = Topology(names, edges)
    within = topology._within(frozenset(targets))
    distance = distance_oracle(edges, targets, len(names), "upstream")
    assert len(within) == MAX_PATH_EDGES
    for s, level in enumerate(within):
        for node in topology._names:
            expected = sorted((dst, sign) for src, dst, sign in edges
                              if src == node and dst != node and distance.get(dst, s + 1) <= s)
            assert [(topology._names[v], sign) for v, sign in level[topology._ids[node]]] == expected


@settings(max_examples=300, deadline=None)
@given(polarity_cases())
def test_betweenness_and_sccs_match_networkx(case):
    declared, edges, _endpoints, _max_paths = case
    topology = Topology(declared, edges)
    graph = nx.DiGraph()
    graph.add_nodes_from(declared)
    graph.add_edges_from((src, dst) for src, dst, _sign in edges)
    expected = nx.betweenness_centrality(graph, normalized=False)
    # every node, undeclared edge endpoints included
    assert topology.betweenness.keys() == expected.keys()
    for node, value in expected.items():
        assert abs(topology.betweenness[node] - value) < 1e-9
    assert topology.components == sorted(map(set, nx.strongly_connected_components(graph)), key=min)
    cycles = {n for c in nx.strongly_connected_components(graph) if len(c) > 1 for n in c}
    assert topology.cyclic == cycles | set(nx.nodes_with_selfloops(graph))


@settings(max_examples=300, deadline=None)
@given(polarity_cases(), st.data())
def test_distances_from_several_roots_match_a_level_by_level_oracle(case, data):
    declared, edges, _endpoints, _max_paths = case
    topology = Topology(declared, edges)
    roots = data.draw(st.lists(st.sampled_from(declared), max_size=4))
    limit = data.draw(st.integers(0, 6))
    for direction in DIRECTIONS:
        assert topology.distances(roots, limit, direction) == distance_oracle(
            edges, roots, limit, direction)


@pytest.mark.parametrize("roots, limit, direction, error", [
    (["Z"], 1, "downstream", NodeNotFound),
    (["A"], -1, "downstream", ValueError),
    (["A"], 1, "sideways", ValueError),
], ids=["undeclared-root", "negative-limit", "unknown-direction"])
def test_distances_rejects_a_bad_query(roots, limit, direction, error):
    # Z is an edge endpoint, not a declared node
    with pytest.raises(error):
        Topology(["A", "B"], [("A", "B", 1), ("B", "Z", 1)]).distances(roots, limit, direction)


def test_cap_keeps_the_lexicographic_prefix_per_endpoint():
    # SRC->{A+, B-, C+}->{D+, E-}->T1 gives six T1 paths with signs
    # +1 -1 -1 +1 +1 -1 in lexicographic order; the cap of 3 keeps the first
    # three (sum -1), where the last three would sum +1. T2 is reached by
    # SRC-A-T2 (+1) and SRC-T2 (-1), under the cap.
    edges = [("SRC", "A", 1), ("SRC", "B", -1), ("SRC", "C", 1), ("SRC", "T2", -1),
             ("A", "T2", 1)]
    edges += [(mid, last, w) for mid in "ABC" for last, w in (("D", 1), ("E", -1))]
    edges += [("D", "T1", 1), ("E", "T1", 1)]
    topology = Topology(["SRC", "A", "B", "C", "D", "E", "T1", "T2"], edges)

    t1 = topology.path_polarity("SRC", ["T1"], max_paths=3)
    assert (t1.value, t1.path_count, t1.truncated) == (-1 / 3, 3, True)
    t2 = topology.path_polarity("SRC", ["T2"], max_paths=3)
    assert (t2.value, t2.path_count, t2.truncated) == (0.0, 2, False)
    both = topology.path_polarity("SRC", ["T1", "T2"], max_paths=3)
    assert (both.value, both.path_count, both.truncated) == (-1 / 5, 5, True)
    assert topology.path_polarity("SRC", ["T1"]).value == 0.0  # all six paths


def test_betweenness_matches_counting_oracle():
    rng = random.Random(11)
    for _ in range(25):
        graph = random_signed_graph(rng, max_nodes=30)
        ours = betweenness(graph)
        expected = betweenness_oracle(graph)
        for node in graph.nodes:
            assert abs(ours.get(node, 0.0) - expected[node]) < 1e-9


@st.composite
def brandes_graphs(draw):
    """Successor lists over ids 0..n+1: random edges over the first n ids,
    parallel edges and self-loops among them, then a sink that some of them
    feed and an isolated id."""
    n = draw(st.integers(1, 12))
    ids = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ids, ids), max_size=40))
    edges += [(v, n) for v in draw(st.lists(ids, max_size=4))]
    successors = [[] for _ in range(n + 2)]
    for v, w in edges:
        successors[v].append((w, 1))
    return [sorted(out) for out in successors]


@settings(max_examples=500, deadline=None)
@given(brandes_graphs())
def test_brandes_equals_the_predecessor_list_reference(successors):
    assert _brandes(successors) == brandes_reference(successors)


@pytest.mark.parametrize("document", [cascade_kgml(seed, n_genes=40, dense_core=dense)
                                      for seed in range(3) for dense in (0, 14)])
def test_brandes_equals_the_reference_on_generated_pathways(document):
    # many shortest paths per pair, so the float sums are long
    for graph in parse_kgml(document):
        successors = graph.topology._successors
        assert _brandes(successors) == brandes_reference(successors)


def test_scc_matches_reachability_oracle():
    rng = random.Random(13)
    for _ in range(30):
        graph = random_signed_graph(rng, max_nodes=25)
        assert graph.topology.components == scc_oracle(graph)


def test_sign_flip_antisymmetry_on_odd_length_paths():
    # flipping every sign multiplies a k-edge path's product by (-1)^k, so
    # antisymmetry of the mean holds exactly when all paths have odd length
    rng = random.Random(17)
    for _ in range(20):
        length = rng.choice([1, 3, 5, 7])
        signs = [rng.choice([1, -1]) for _ in range(length)]
        graph, names = chain_graph(signs)
        flipped = replace(graph, edges=[e._replace(weight=-e.weight) for e in graph.edges])
        base = path_polarity(graph, "A", {names[-1]})
        neg = path_polarity(flipped, "A", {names[-1]})
        assert abs(base.value + neg.value) < 1e-12
        assert base.path_count == neg.path_count


def test_sign_flip_twice_is_identity():
    rng = random.Random(18)
    for _ in range(10):
        graph = random_signed_graph(rng, max_nodes=12)
        twice = replace(graph, edges=[e._replace(weight=-(-e.weight)) for e in graph.edges])
        nodes = sorted(graph.nodes)
        gene, endpoint = rng.sample(nodes, 2)
        assert path_polarity(graph, gene, {endpoint}) == path_polarity(twice, gene, {endpoint})


def test_k_step_monotone_and_matches_oracle():
    rng = random.Random(19)
    for _ in range(20):
        graph = random_signed_graph(rng, max_nodes=20)
        rg = reaction_graph(graph.nodes, [(e.source, e.target, "R") for e in graph.edges])
        node = rng.choice(sorted(rg.compounds))
        previous = set()
        for k in range(0, 5):
            for direction in ("downstream", "upstream"):
                assert k_step_neighborhood(rg, node, k, direction) == k_step_oracle(
                    rg, node, k, direction
                )
            current = k_step_neighborhood(rg, node, k, "downstream")
            assert previous <= current
            previous = current
        assert rg.topology.terminals == terminal_oracle(rg)


def test_upstream_equals_downstream_on_reversed_graph():
    rng = random.Random(23)
    graph = random_signed_graph(rng, max_nodes=15)
    rg = reaction_graph(graph.nodes, [(e.source, e.target, "R") for e in graph.edges])
    reversed_rg = replace(rg, edges=[(dst, src, r) for src, dst, r in rg.edges])
    for node in sorted(rg.compounds)[:5]:
        assert k_step_neighborhood(rg, node, 3, "upstream") == k_step_neighborhood(
            reversed_rg, node, 3, "downstream"
        )


def test_polarity_truncation_flag_on_dense_graphs():
    # layered graph with 3 parallel nodes per layer: 3^4 = 81 paths
    layers = [[f"L{d}N{i}" for i in range(3)] for d in range(4)]
    edges = [("SRC", name, 1) for name in layers[0]]
    edges += [(src, dst, 1) for a, b in zip(layers, layers[1:]) for src in a for dst in b]
    edges += [(name, "DST", 1) for name in layers[-1]]
    graph = signed_graph([name for layer in layers for name in layer] + ["SRC", "DST"], edges)

    full = path_polarity(graph, "SRC", {"DST"})
    assert full.path_count == 81 and not full.truncated
    capped = path_polarity(graph, "SRC", {"DST"}, max_paths=10)
    assert capped.truncated and capped.path_count == 10
    assert capped.value == 1.0  # all-activation graph stays +1


def test_capped_polarity_of_every_gene_of_a_dense_generated_pathway():
    graph, _rg = parse_kgml(cascade_kgml(3, 20, 14))
    topology = graph.topology
    edges = [(e.source, e.target, e.weight) for e in graph.edges]
    genes = graph.gene_symbols()
    capped = 0
    for gene in genes:
        ours = topology.path_polarity(gene, graph.endpoints)
        assert ours == capped_polarity_reference(graph.nodes, edges, gene, graph.endpoints)
        capped += ours.truncated
    # the 14 genes of the dense core each hit MAX_PATHS_PER_PAIR
    assert (len(genes), capped) == (34, 14)
