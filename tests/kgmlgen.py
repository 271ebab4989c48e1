"""Helpers to synthesize KGML documents and random signed digraphs for tests."""
from __future__ import annotations

import random
from xml.sax.saxutils import quoteattr

from biokgr.pathways.graphs import PathwayNode, SignedEdge, SignedPathwayGraph


def make_kgml(
    pathway_id: str = "hsa99999",
    title: str = "Test pathway",
    entries: list[dict] | None = None,
    relations: list[tuple] | None = None,
    reactions: list[dict] | None = None,
) -> str:
    """Render a KGML document.

    entries: {"id", "name", "type", "graphics", "reaction"(opt), "components"(opt)}
    relations: (entry1, entry2, [subtype names]) tuples
    reactions: {"name", "type", "substrates": [(id, name)], "products": [(id, name)]}
    """
    lines = [
        '<?xml version="1.0"?>',
        f'<pathway name={quoteattr("path:" + pathway_id)} org="hsa" number="99999" '
        f"title={quoteattr(title)}>",
    ]
    for entry in entries or []:
        attrs = f'id="{entry["id"]}" name={quoteattr(entry.get("name", ""))} type="{entry.get("type", "gene")}"'
        if entry.get("reaction"):
            attrs += f' reaction={quoteattr(entry["reaction"])}'
        lines.append(f"  <entry {attrs}>")
        if entry.get("graphics") is not None:
            lines.append(f"    <graphics name={quoteattr(entry['graphics'])} type=\"rectangle\"/>")
        for comp in entry.get("components", []):
            lines.append(f'    <component id="{comp}"/>')
        lines.append("  </entry>")
    for entry1, entry2, subtypes in relations or []:
        lines.append(f'  <relation entry1="{entry1}" entry2="{entry2}" type="PPrel">')
        for subtype in subtypes:
            lines.append(f"    <subtype name={quoteattr(subtype)} value=\"--&gt;\"/>")
        lines.append("  </relation>")
    for reaction in reactions or []:
        lines.append(
            f'  <reaction id="{reaction.get("id", "0")}" '
            f"name={quoteattr(reaction['name'])} type=\"{reaction.get('type', 'irreversible')}\">"
        )
        for sid, sname in reaction.get("substrates", []):
            lines.append(f'    <substrate id="{sid}" name={quoteattr(sname)}/>')
        for pid, pname in reaction.get("products", []):
            lines.append(f'    <product id="{pid}" name={quoteattr(pname)}/>')
        lines.append("  </reaction>")
    lines.append("</pathway>")
    return "\n".join(lines)


def ulcerative_colitis_kgml() -> str:
    """Hand-built pathway echoing the inflammatory-disease option pattern.

    Topology is tuned so that TNF and IL6 (and only they) end up with both
    positive polarity toward the inflammation endpoint and top-decile
    betweenness: IL10/PTPN2/SMAD7 suppress the endpoint, VEGFA/MMP9/STAT3 have
    sign-balanced routes, NOD2/CXCR2 reach no endpoint.
    """
    genes = [
        (1, "hsa:7124", "TNF, DIF, TNF-alpha"),
        (2, "hsa:3586", "IL10, CSIF"),
        (3, "hsa:7422", "VEGFA, VEGF"),
        (4, "hsa:4318", "MMP9, GELB"),
        (5, "hsa:5771", "PTPN2, PTN2"),
        (6, "hsa:4092", "SMAD7, MADH7"),
        (7, "hsa:64127", "NOD2, CARD15"),
        (8, "hsa:3569", "IL6, BSF-2"),
        (9, "hsa:6774", "STAT3, APRF"),
        (10, "hsa:3579", "CXCR2, IL8RB"),
    ]
    entries = [
        {"id": str(i), "name": name, "type": "gene", "graphics": label}
        for i, name, label in genes
    ]
    entries.append(
        {"id": "11", "name": "path:hsa04750", "type": "map", "graphics": "Inflammation"}
    )
    relations = [
        ("1", "11", ["activation"]),   # TNF -> Inflammation
        ("1", "8", ["activation"]),    # TNF -> IL6
        ("8", "11", ["activation"]),   # IL6 -> Inflammation
        ("2", "11", ["inhibition"]),   # IL10 -| Inflammation
        ("5", "11", ["inhibition"]),   # PTPN2 -| Inflammation
        ("6", "11", ["inhibition"]),   # SMAD7 -| Inflammation
        ("3", "1", ["activation"]),    # VEGFA -> TNF
        ("3", "2", ["activation"]),    # VEGFA -> IL10
        ("4", "11", ["activation"]),   # MMP9 -> Inflammation
        ("4", "2", ["activation"]),    # MMP9 -> IL10
        ("9", "8", ["activation"]),    # STAT3 -> IL6
        ("9", "5", ["activation"]),    # STAT3 -> PTPN2
        ("1", "7", ["activation"]),    # TNF -> NOD2 (dead end)
        ("8", "10", ["activation"]),   # IL6 -> CXCR2 (dead end)
    ]
    return make_kgml(
        pathway_id="hsa04750",
        title="Inflammatory bowel disease",
        entries=entries,
        relations=relations,
    )


def cyclic_group_kgml(cycle: tuple[str, ...] = ("5",)) -> str:
    """Groups with the ids in `cycle`, each listing the next and the last the
    first (one group lists itself), and a relation from the first to TNF."""
    entries = [{"id": "1", "name": "hsa:7124", "graphics": "TNF"}]
    entries += [{"id": group, "name": "undefined", "type": "group", "graphics": None,
                 "components": [cycle[(i + 1) % len(cycle)]]} for i, group in enumerate(cycle)]
    return make_kgml(entries=entries, relations=[(cycle[0], "1", ["activation"])])


def blank_name_kgml() -> str:
    """A gene and a map entry whose names are only whitespace and that have no
    graphics label, each in a relation with BBB."""
    entries = [{"id": "1", "name": " ", "graphics": None},
               {"id": "2", "name": "hsa:2", "graphics": "BBB"},
               {"id": "3", "name": "  ", "type": "map", "graphics": None}]
    return make_kgml(entries=entries, relations=[("1", "2", ["activation"]),
                                                 ("2", "3", ["inhibition"])])


def group_chain_kgml(depth: int, copies: int = 1) -> str:
    """`depth` groups nested in a chain, each listing the next and the innermost
    TNF, `copies` times over, and a relation from the outermost group to IL6.
    With two copies, expanding every listing apart makes 2**depth keys."""
    groups = [str(100 + i) for i in range(depth)]
    entries = [{"id": "1", "name": "hsa:7124", "graphics": "TNF"},
               {"id": "2", "name": "hsa:3569", "graphics": "IL6"}]
    entries += [{"id": group, "name": "undefined", "type": "group", "graphics": None,
                 "components": [(groups[1:] + ["1"])[i]] * copies}
                for i, group in enumerate(groups)]
    return make_kgml(entries=entries, relations=[(groups[0], "2", ["activation"])])


def shmt2_flux_kgml() -> str:
    """Reaction-graph fixture: SHMT2 feeds a chain with a terminal endpoint
    and a two-compound feedback cycle branching off it."""
    entries = [
        {"id": "1", "name": "hsa:6472", "type": "gene", "graphics": "SHMT2",
         "reaction": "rn:R00945"},
        {"id": "20", "name": "cpd:C00065", "type": "compound", "graphics": "Serine"},
        {"id": "21", "name": "cpd:C00037", "type": "compound", "graphics": "Glycine"},
        {"id": "22", "name": "cpd:C00058", "type": "compound", "graphics": "Formate"},
        {"id": "23", "name": "cpd:C00144", "type": "compound", "graphics": "Purine"},
        {"id": "24", "name": "cpd:C90001", "type": "compound", "graphics": "CycloA"},
        {"id": "25", "name": "cpd:C90002", "type": "compound", "graphics": "CycloB"},
        {"id": "11", "name": "path:hsa00000", "type": "map", "graphics": "Nucleotide biosynthesis"},
    ]
    reactions = [
        {"id": "1", "name": "rn:R00945", "substrates": [("20", "cpd:C00065")],
         "products": [("21", "cpd:C00037")]},
        {"id": "2", "name": "rn:R00946", "substrates": [("21", "cpd:C00037")],
         "products": [("22", "cpd:C00058")]},
        {"id": "3", "name": "rn:R00947", "substrates": [("22", "cpd:C00058")],
         "products": [("23", "cpd:C00144")]},
        {"id": "4", "name": "rn:R90001", "substrates": [("21", "cpd:C00037")],
         "products": [("24", "cpd:C90001")]},
        {"id": "5", "name": "rn:R90002", "substrates": [("24", "cpd:C90001")],
         "products": [("25", "cpd:C90002")]},
        {"id": "6", "name": "rn:R90003", "substrates": [("25", "cpd:C90002")],
         "products": [("24", "cpd:C90001")]},
    ]
    return make_kgml(
        pathway_id="hsa00670",
        title="One carbon pool by folate",
        entries=entries,
        reactions=reactions,
    )


def random_signed_graph(rng: random.Random, max_nodes: int = 30) -> SignedPathwayGraph:
    """Random signed digraph with stable, lexicographically ordered node names."""
    n = rng.randint(3, max_nodes)
    names = [f"N{i:02d}" for i in range(n)]
    target_edges = rng.randint(n, 2 * n)
    seen: set[tuple[str, str]] = set()
    edges = []
    for _ in range(target_edges):
        src, dst = rng.sample(names, 2)
        if (src, dst) in seen:
            continue
        seen.add((src, dst))
        weight = rng.choice((1, -1))
        edges.append(SignedEdge(src, dst, weight, "activation" if weight > 0 else "inhibition"))
    return SignedPathwayGraph(pathway_id="random", title="random",
                              nodes={name: PathwayNode(symbol=name) for name in names}, edges=edges)


def pde4_inflammation_kgml() -> str:
    """Drug-target pathway: PDE4B upstream of NF-kB-driven cytokine markers."""
    entries = [
        {"id": "1", "name": "hsa:5142", "type": "gene", "graphics": "PDE4B"},
        {"id": "2", "name": "hsa:4790", "type": "gene", "graphics": "NFKB1"},
        {"id": "3", "name": "hsa:7124", "type": "gene", "graphics": "TNF, DIF"},
        {"id": "4", "name": "hsa:3569", "type": "gene", "graphics": "IL6, BSF-2"},
        {"id": "5", "name": "hsa:3553", "type": "gene", "graphics": "IL1B"},
        {"id": "6", "name": "path:hsa04064", "type": "map", "graphics": "Inflammation"},
    ]
    relations = [
        ("1", "2", ["activation"]),
        ("2", "3", ["expression"]),
        ("2", "4", ["expression"]),
        ("2", "5", ["expression"]),
        ("3", "6", ["activation"]),
        ("4", "6", ["activation"]),
    ]
    return make_kgml(
        pathway_id="hsa04064",
        title="cAMP signaling pathway",
        entries=entries,
        relations=relations,
    )


def egfr_cancer_kgml() -> str:
    """Second drug-target pathway: EGFR driving proliferation/apoptosis markers."""
    entries = [
        {"id": "1", "name": "hsa:1956", "type": "gene", "graphics": "EGFR, ERBB1"},
        {"id": "2", "name": "hsa:4609", "type": "gene", "graphics": "MYC"},
        {"id": "3", "name": "hsa:595", "type": "gene", "graphics": "CCND1"},
        {"id": "4", "name": "hsa:836", "type": "gene", "graphics": "CASP3"},
        {"id": "5", "name": "path:hsa05200", "type": "map", "graphics": "Proliferation"},
    ]
    relations = [
        ("1", "2", ["activation"]),
        ("1", "3", ["expression"]),
        ("2", "5", ["activation"]),
        ("1", "4", ["inhibition"]),
    ]
    return make_kgml(
        pathway_id="hsa05200",
        title="Pathways in cancer",
        entries=entries,
        relations=relations,
    )


_CASCADE_STEMS = ["MAPK", "JAK", "STAT", "CXCL", "SMAD", "PTPN", "SLC", "ZNF", "CYP", "HDAC"]


def cascade_kgml(seed: int, n_genes: int = 30, dense_core: int = 0) -> str:
    """A seeded signalling cascade with mixed signs, feeding 1-2 endpoint map nodes.

    Genes form four layers with random forward and feedback edges; some
    pairs carry two relations (activation and expression), and one gene is
    ribosomal so the druggability blacklist applies. With `dense_core` > 0
    that many extra genes form a ring in which each sends edges to the next
    six, and every third one feeds the first endpoint, so polarity from a
    core gene hits `MAX_PATHS_PER_PAIR` and the value covers a capped prefix.
    """
    rng = random.Random(seed)
    symbols: list[str] = []
    for i in range(n_genes + dense_core):
        symbols.append("RPL5" if i == 3 else f"{_CASCADE_STEMS[i % len(_CASCADE_STEMS)]}{i + 1}")
    entries = [
        {"id": str(i + 1), "name": f"hsa:{1000 + i}", "type": "gene",
         "graphics": f"{symbol}, {symbol}L" + (", ribosomal protein" if symbol == "RPL5" else "")}
        for i, symbol in enumerate(symbols)
    ]
    endpoint_ids = []
    for label in rng.sample(["Apoptosis", "Cell proliferation", "Inflammation"], rng.randint(1, 2)):
        endpoint_ids.append(str(len(entries) + 1))
        entries.append({"id": endpoint_ids[-1], "name": f"path:hsa0{len(entries)}", "type": "map",
                        "graphics": label})

    def sign(positive_share: float = 0.6) -> list[str]:
        return [rng.choice(["activation", "expression"]) if rng.random() < positive_share
                else rng.choice(["inhibition", "repression"])]

    cascade = [str(i + 1) for i in range(n_genes)]
    layers = [cascade[k::4] for k in range(4)]
    relations = []
    for depth, layer in enumerate(layers[:-1]):
        for src in layer:
            for dst in rng.sample(layers[depth + 1], min(2, len(layers[depth + 1]))):
                relations.append((src, dst, sign()))
            if depth > 0 and rng.random() < 0.2:
                relations.append((src, rng.choice(layers[depth - 1]), sign()))
    for src, dst, subtypes in relations[:4]:
        relations.append((src, dst, ["expression"] if subtypes == ["activation"] else ["activation"]))
    for src in layers[-1]:
        relations.append((src, rng.choice(endpoint_ids), sign(0.85)))

    core = [str(n_genes + i + 1) for i in range(dense_core)]
    for i, src in enumerate(core):
        for step in range(1, 7):
            relations.append((src, core[(i + step) % dense_core], sign(0.6)))
        if i % 3 == 0:
            relations.append((src, endpoint_ids[0], sign(0.85)))
    if core:
        relations.append((layers[0][0], core[0], ["activation"]))
    return make_kgml(pathway_id=f"hsa9{seed:04d}", title=f"Generated cascade {seed}",
                     entries=entries, relations=relations)
