"""Typed pathway graph values.

A graph is built complete and then frozen: its constructor copies its fields
into tuples, frozensets and read-only mappings, and nodes and edges are named
tuples. So each graph builds its `topology` once, for every analytic and
curator that reads it; other contents make a new graph with its own.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, NamedTuple

from biokgr.pathways.analytics import Topology
from biokgr.pathways.families import infer_functional_type


class PathwayNode(NamedTuple):
    """A gene/protein (or pathway-map) entry in a signed pathway graph."""

    symbol: str
    entry_type: str = "gene"
    aliases: tuple[str, ...] = ()
    ec_numbers: tuple[str, ...] = ()
    graphics_label: str = ""
    kegg_ids: tuple[str, ...] = ()

    @property
    def functional_type(self) -> str:
        """The node's functional-type label, by `infer_functional_type`."""
        return infer_functional_type(self)


class SignedEdge(NamedTuple):
    source: str
    target: str
    weight: int  # +1 activation/expression, -1 inhibition/repression
    subtype: str = ""


def _freeze(value, **fields) -> None:
    """Set `fields` on the frozen dataclass `value` while it is being built."""
    for name, field_value in fields.items():
        object.__setattr__(value, name, field_value)


@dataclass(frozen=True)
class SignedPathwayGraph:
    """Directed gene/protein graph with ±1 edge weights and disease endpoints."""

    pathway_id: str = ""
    title: str = ""
    nodes: Mapping[str, PathwayNode] = field(default_factory=dict)
    edges: tuple[SignedEdge, ...] = ()
    endpoints: frozenset[str] = frozenset()
    skipped_relations: tuple[tuple[str, str, str], ...] = ()

    def __post_init__(self) -> None:
        _freeze(self, nodes=MappingProxyType(dict(self.nodes)), edges=tuple(self.edges),
                endpoints=frozenset(self.endpoints),
                skipped_relations=tuple(self.skipped_relations))

    @cached_property
    def topology(self) -> Topology:
        return Topology(self.nodes, ((e.source, e.target, e.weight) for e in self.edges))

    def gene_symbols(self) -> list[str]:
        return [key for key, node in self.nodes.items() if node.entry_type == "gene"]

    def merged_with(self, other: SignedPathwayGraph) -> SignedPathwayGraph:
        """Union of nodes/edges/endpoints; first graph wins on node metadata."""
        seen = set(self.edges)
        return SignedPathwayGraph(
            pathway_id=self.pathway_id or other.pathway_id,
            title=self.title or other.title,
            nodes={**self.nodes, **{k: n for k, n in other.nodes.items() if k not in self.nodes}},
            edges=self.edges + tuple(e for e in dict.fromkeys(other.edges) if e not in seen),
            endpoints=self.endpoints | other.endpoints,
            skipped_relations=self.skipped_relations + other.skipped_relations,
        )


@dataclass(frozen=True)
class ReactionGraph:
    """Directed substrate→product compound graph with enzyme annotations."""

    compounds: Mapping[str, str] = field(default_factory=dict)  # key -> display name
    edges: tuple[tuple[str, str, str], ...] = ()  # (substrate, product, reaction)
    enzymes: Mapping[str, tuple[str, ...]] = field(default_factory=dict)  # gene symbol -> reactions
    reaction_substrates: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    reaction_products: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _freeze(self, compounds=MappingProxyType(dict(self.compounds)), edges=tuple(self.edges),
                enzymes=MappingProxyType(dict(self.enzymes)),
                reaction_substrates=MappingProxyType(dict(self.reaction_substrates)),
                reaction_products=MappingProxyType(dict(self.reaction_products)))

    @cached_property
    def topology(self) -> Topology:
        """Compounds and substrate→product edges, every edge with weight 1."""
        return Topology(self.compounds, ((s, p, 1) for s, p, _r in self.edges))

    def reactions_for_gene(self, symbol: str) -> tuple[str, ...]:
        return self.enzymes.get(symbol, ())

    def gene_products(self, symbol: str) -> list[str]:
        """Immediate products of the reactions a gene catalyzes, sorted."""
        out: set[str] = set()
        for reaction in self.reactions_for_gene(symbol):
            out.update(self.reaction_products.get(reaction, ()))
        return sorted(out)

    def gene_substrates(self, symbol: str) -> list[str]:
        out: set[str] = set()
        for reaction in self.reactions_for_gene(symbol):
            out.update(self.reaction_substrates.get(reaction, ()))
        return sorted(out)
