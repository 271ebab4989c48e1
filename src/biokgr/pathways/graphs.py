"""Typed pathway graph values.

Both graph classes are immutable-by-convention value objects: the analytics
functions never mutate them, so they are safe to share across threads.
`topology()` compiles a graph for the analytics; it does not follow later
changes to the graph, so build it after the graph is complete.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from biokgr.pathways.analytics import Topology


@dataclass
class PathwayNode:
    """A gene/protein (or pathway-map) entry in a signed pathway graph."""

    symbol: str
    entry_type: str = "gene"
    aliases: tuple[str, ...] = ()
    ec_numbers: tuple[str, ...] = ()
    graphics_label: str = ""
    kegg_ids: tuple[str, ...] = ()
    functional_type: str | None = None


@dataclass(frozen=True)
class SignedEdge:
    source: str
    target: str
    weight: int  # +1 activation/expression, -1 inhibition/repression
    subtype: str = ""


@dataclass
class SignedPathwayGraph:
    """Directed gene/protein graph with ±1 edge weights and disease endpoints."""

    pathway_id: str = ""
    title: str = ""
    nodes: dict[str, PathwayNode] = field(default_factory=dict)
    edges: list[SignedEdge] = field(default_factory=list)
    endpoints: set[str] = field(default_factory=set)
    skipped_relations: list[tuple[str, str, str]] = field(default_factory=list)

    def topology(self) -> Topology:
        return Topology(self.nodes, ((e.source, e.target, e.weight) for e in self.edges))

    def gene_symbols(self) -> list[str]:
        return [key for key, node in self.nodes.items() if node.entry_type == "gene"]

    def merged_with(self, other: "SignedPathwayGraph") -> "SignedPathwayGraph":
        """Union of nodes/edges/endpoints; first graph wins on node metadata."""
        merged = SignedPathwayGraph(
            pathway_id=self.pathway_id or other.pathway_id,
            title=self.title or other.title,
            nodes=dict(self.nodes),
            edges=list(self.edges),
            endpoints=set(self.endpoints),
            skipped_relations=list(self.skipped_relations),
        )
        for key, node in other.nodes.items():
            merged.nodes.setdefault(key, node)
        seen = set(merged.edges)
        merged.edges.extend(e for e in dict.fromkeys(other.edges) if e not in seen)
        merged.endpoints |= other.endpoints
        merged.skipped_relations.extend(other.skipped_relations)
        return merged


@dataclass
class ReactionGraph:
    """Directed substrate→product compound graph with enzyme annotations."""

    compounds: dict[str, str] = field(default_factory=dict)  # key -> display name
    edges: list[tuple[str, str, str]] = field(default_factory=list)  # (substrate, product, reaction)
    enzymes: dict[str, tuple[str, ...]] = field(default_factory=dict)  # gene symbol -> reactions
    reaction_substrates: dict[str, tuple[str, ...]] = field(default_factory=dict)
    reaction_products: dict[str, tuple[str, ...]] = field(default_factory=dict)

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
