"""Functional-type inference for pathway genes.

Classification order: curated gene-family dictionaries (most specific class
wins, in the precedence order shipped with the dictionaries), then the
generic EC-number→enzyme rule, then "other". The dictionaries live in an
editable JSON data file so coverage can grow without code changes.
"""
from __future__ import annotations

from biokgr import load_data
from biokgr.pathways.graphs import PathwayNode

FUNCTIONAL_TYPES = (
    "enzyme",
    "kinase",
    "cytokine",
    "receptor",
    "transporter",
    "transcription factor",
    "transcription regulator",
    "phosphatase",
    "pattern recognition receptor",
    "growth factor",
    "other",
)


def infer_functional_type(node: PathwayNode, families: dict | None = None) -> str:
    """Classify a pathway node into one of the closed functional-type labels."""
    data = families if families is not None else load_data("gene_families.json")
    symbol = node.symbol.upper()
    for label in data["precedence"]:
        family = data["families"].get(label, {})
        if symbol in set(family.get("symbols", [])):
            return label
        if any(symbol.startswith(prefix) for prefix in family.get("prefixes", [])):
            return label
    if node.ec_numbers:
        return "enzyme"
    return "other"


def annotate_functional_types(graph, families: dict | None = None) -> None:
    """Fill `functional_type` on every node of a signed pathway graph."""
    for node in graph.nodes.values():
        node.functional_type = infer_functional_type(node, families)
