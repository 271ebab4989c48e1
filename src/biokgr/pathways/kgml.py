"""KGML parsing into signed interaction and reaction graphs.

Relation subtypes map to edge signs: activation and expression contribute +1,
inhibition and repression contribute -1. Relations whose subtypes have no sign
mapping (binding, phosphorylation, indirect effect, ...) are not dropped
silently; they are recorded on the graph as skipped. Reaction elements become
substrate→product edges keyed by compound display names, and gene entries
carrying a `reaction` attribute provide the enzyme annotations linking gene
symbols to those edges.
"""
from __future__ import annotations

import re
import xml.etree.ElementTree as ET

from biokgr import Error, load_data
from biokgr.pathways.graphs import PathwayNode, ReactionGraph, SignedEdge, SignedPathwayGraph

SUBTYPE_SIGNS = {
    "activation": 1,
    "expression": 1,
    "inhibition": -1,
    "repression": -1,
}

_EC_PATTERN = re.compile(r"\b(\d+\.\d+\.\d+\.[\dn-]+)\b")
_ACCESSION_LIKE = re.compile(r"^(C|D|G|R)\d{5}$")


class MalformedKgml(Error):
    """Raised when a document is not well-formed KGML; carries context."""


def _graphics_label(entry: ET.Element) -> str:
    graphics = entry.find("graphics")
    if graphics is None:
        return ""
    return graphics.get("name") or ""


def _primary_alias(label: str) -> str:
    first = label.split(",")[0].strip()
    return first.rstrip(".").strip()


def _compound_display(entry: ET.Element) -> str:
    label = _primary_alias(_graphics_label(entry))
    if label and not _ACCESSION_LIKE.match(label):
        return label
    for token in (entry.get("name") or "").split():
        if token.startswith("cpd:"):
            return token[len("cpd:"):]
    return label or (entry.get("name") or "").strip()


def parse_kgml(document: str) -> tuple[SignedPathwayGraph, ReactionGraph]:
    """Parse one KGML document into its signed and reaction graphs.

    A node whose label contains any term of the shipped disease-endpoint
    lexicon (case-insensitive) is marked as a disease endpoint of the signed
    graph.
    """
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        line, column = getattr(exc, "position", (0, 0))
        raise MalformedKgml(f"XML parse failure at line {line}, column {column}: {exc}") from exc
    if root.tag != "pathway":
        raise MalformedKgml(f"root element is <{root.tag}>, expected <pathway>")

    graph = SignedPathwayGraph(
        pathway_id=(root.get("name") or "").replace("path:", ""),
        title=root.get("title") or "",
    )
    reaction_graph = ReactionGraph()

    entry_key: dict[str, str] = {}        # entry id -> signed-graph node key
    group_members: dict[str, list[str]] = {}
    compound_key: dict[str, str] = {}     # entry id -> reaction-graph node key
    enzyme_reactions: dict[str, set[str]] = {}

    for entry in root.findall("entry"):
        entry_id = entry.get("id") or ""
        entry_type = entry.get("type") or ""
        label = _graphics_label(entry)
        if entry_type == "group":
            group_members[entry_id] = [
                comp.get("id") or "" for comp in entry.findall("component")
            ]
            continue
        if entry_type == "compound":
            display = _compound_display(entry)
            if display:
                compound_key[entry_id] = display
                reaction_graph.compounds.setdefault(display, display)
            continue
        if entry_type not in ("gene", "map", "enzyme", "ortholog"):
            continue

        if entry_type == "map":
            symbol = _primary_alias(label).removeprefix("TITLE:").strip()
        else:
            symbol = _primary_alias(label)
        if not symbol:
            symbol = (entry.get("name") or "").split()[0] if entry.get("name") else entry_id
        entry_key[entry_id] = symbol

        kegg_ids = tuple(t for t in (entry.get("name") or "").split() if ":" in t)
        ec_numbers = tuple(sorted(set(
            _EC_PATTERN.findall(label) + [t[len("ec:"):] for t in kegg_ids if t.startswith("ec:")]
        )))
        aliases = tuple(a.strip().rstrip(".") for a in label.split(",") if a.strip())

        node = graph.nodes.get(symbol)
        if node is None:
            graph.nodes[symbol] = PathwayNode(
                symbol=symbol,
                entry_type="gene" if entry_type in ("gene", "enzyme", "ortholog") else entry_type,
                aliases=aliases,
                ec_numbers=ec_numbers,
                graphics_label=label,
                kegg_ids=kegg_ids,
            )
        else:
            node.aliases = tuple(dict.fromkeys(node.aliases + aliases))
            node.ec_numbers = tuple(sorted(set(node.ec_numbers) | set(ec_numbers)))
            node.kegg_ids = tuple(dict.fromkeys(node.kegg_ids + kegg_ids))

        reaction_names = [t for t in (entry.get("reaction") or "").split() if t]
        if reaction_names and entry_type in ("gene", "enzyme", "ortholog"):
            enzyme_reactions.setdefault(symbol, set()).update(
                name.removeprefix("rn:") for name in reaction_names
            )

    def resolve_endpoints(entry_id: str) -> list[str]:
        if entry_id in group_members:
            keys = []
            for member in group_members[entry_id]:
                keys.extend(resolve_endpoints(member))
            return keys
        key = entry_key.get(entry_id)
        return [key] if key else []

    seen: set[tuple[str, str, int, str]] = set()
    for relation in root.findall("relation"):
        subtypes = [s.get("name") or "" for s in relation.findall("subtype")]
        sign = next((SUBTYPE_SIGNS[s] for s in subtypes if s in SUBTYPE_SIGNS), None)
        sources = resolve_endpoints(relation.get("entry1") or "")
        targets = resolve_endpoints(relation.get("entry2") or "")
        if sign is None or not sources or not targets:
            graph.skipped_relations.append(
                (relation.get("entry1") or "", relation.get("entry2") or "",
                 ";".join(subtypes) or "(no subtype)")
            )
            continue
        subtype_name = next(s for s in subtypes if s in SUBTYPE_SIGNS)
        for src in sources:
            for dst in targets:
                sig = (src, dst, sign, subtype_name)
                if sig not in seen:
                    graph.edges.append(SignedEdge(src, dst, sign, subtype_name))
                    seen.add(sig)

    for reaction in root.findall("reaction"):
        name = (reaction.get("name") or "").removeprefix("rn:")
        substrates = [
            compound_key.get(s.get("id") or "", _strip_cpd(s.get("name")))
            for s in reaction.findall("substrate")
        ]
        products = [
            compound_key.get(p.get("id") or "", _strip_cpd(p.get("name")))
            for p in reaction.findall("product")
        ]
        substrates = [s for s in substrates if s]
        products = [p for p in products if p]
        for compound in substrates + products:
            reaction_graph.compounds.setdefault(compound, compound)
        for substrate in substrates:
            for product in products:
                reaction_graph.edges.append((substrate, product, name))
        reaction_graph.reaction_substrates[name] = tuple(substrates)
        reaction_graph.reaction_products[name] = tuple(products)

    reaction_graph.enzymes = {
        symbol: tuple(sorted(reactions))
        for symbol, reactions in sorted(enzyme_reactions.items())
    }

    terms = [t.casefold() for t in load_data("endpoint_lexicon.json")["terms"]]
    for key, node in graph.nodes.items():
        haystack = f"{node.graphics_label} {key}".casefold()
        if any(term in haystack for term in terms):
            graph.endpoints.add(key)

    return graph, reaction_graph


def _strip_cpd(name: str | None) -> str:
    if not name:
        return ""
    return name.removeprefix("cpd:").strip()
