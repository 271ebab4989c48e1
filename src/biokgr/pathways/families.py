"""Functional-type inference for pathway genes.

Classification order: curated gene-family dictionaries (most specific class
wins, in the precedence order shipped with the dictionaries), then the
generic EC-number→enzyme rule, then "other". The dictionaries live in an
editable JSON data file so coverage can grow without code changes. Each
`PathwayNode` derives its type here, through its `functional_type` property.
"""
from __future__ import annotations

from functools import cache

from biokgr import load_data


@cache
def _family_lookup() -> tuple[tuple[str, frozenset[str], tuple[str, ...]], ...]:
    """(label, symbols, prefixes) per family, in precedence order."""
    data = load_data("gene_families.json")
    lookup = []
    for label in data["precedence"]:
        family = data["families"].get(label, {})
        lookup.append((label, frozenset(family.get("symbols", [])),
                       tuple(family.get("prefixes", []))))
    return tuple(lookup)


def infer_functional_type(node) -> str:
    """Classify a `PathwayNode` into one of the closed functional-type labels."""
    symbol = node.symbol.upper()
    for label, symbols, prefixes in _family_lookup():
        if symbol in symbols or symbol.startswith(prefixes):
            return label
    if node.ec_numbers:
        return "enzyme"
    return "other"


def annotate_functional_types(graph) -> dict[str, str]:
    """Each node's `functional_type` by key: a reader of the node property,
    kept while `perfbench/curate_kgml.py` still times an annotate step."""
    return {key: node.functional_type for key, node in graph.nodes.items()}
