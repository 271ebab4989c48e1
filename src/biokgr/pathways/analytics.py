"""Graph analytics used by the benchmark curators.

Every analytic reads a `Topology`: the structure of one pathway graph,
compiled by `SignedPathwayGraph.topology()` or `ReactionGraph.topology()`,
with betweenness, SCCs, cyclic and terminal nodes cached on first use. A
curator holds one topology per item; the module functions build one per call.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

import networkx as nx

if TYPE_CHECKING:
    from biokgr.pathways.graphs import ReactionGraph, SignedPathwayGraph

MAX_PATH_EDGES = 8
MAX_PATHS_PER_PAIR = 10_000


class NodeNotFound(Exception):
    pass


@dataclass(frozen=True)
class PolarityResult:
    """Mean product of edge signs over enumerated simple paths.

    `no_path` marks a well-defined zero (no evidence of a disease-promoting
    route) rather than an error; `truncated` flags that enumeration hit the
    path-count cap, so the mean covers only the enumerated prefix.
    """

    value: float
    path_count: int
    no_path: bool = False
    truncated: bool = False


class Topology:
    """The structure of one directed graph, compiled once and shared by its analytics.

    Built from the declared nodes and `(source, target, weight)` edges. Edge
    endpoints need not be declared; they take part in paths, betweenness and
    SCCs but are never members of `nodes`. The cached results are shared
    between readers and must not be mutated.
    """

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str, int]]):
        self._order = list(nodes)
        self._edges = list(edges)
        self.nodes = frozenset(self._order)
        self.successors: dict[str, list[tuple[str, int]]] = {n: [] for n in self._order}
        self.predecessors: dict[str, list[tuple[str, int]]] = {}
        for src, dst, weight in self._edges:
            self.successors.setdefault(src, []).append((dst, weight))
            self.predecessors.setdefault(dst, []).append((src, weight))
        for out in self.successors.values():
            out.sort()

    @cached_property
    def _networkx(self) -> nx.DiGraph:
        # declared nodes first, then edges in their stored order, so that
        # networkx iterates (and betweenness sums) in a fixed order
        g = nx.DiGraph()
        g.add_nodes_from(self._order)
        g.add_edges_from((src, dst) for src, dst, _w in self._edges)
        return g

    @cached_property
    def betweenness(self) -> dict[str, float]:
        """Unnormalized directed betweenness centrality with unit edge lengths."""
        return dict(nx.betweenness_centrality(self._networkx, normalized=False))

    @cached_property
    def components(self) -> list[set[str]]:
        """Strongly connected components, ordered by their smallest member."""
        components = [set(c) for c in nx.strongly_connected_components(self._networkx)]
        return sorted(components, key=min)

    @cached_property
    def cyclic(self) -> set[str]:
        """Nodes on a directed cycle: members of a multi-node SCC or a self-loop."""
        cyclic = {n for c in self.components if len(c) > 1 for n in c}
        return cyclic | {src for src, dst, _w in self._edges if src == dst}

    @cached_property
    def terminals(self) -> set[str]:
        """Exactly the declared nodes with out-degree zero."""
        return {n for n in self.nodes if not self.successors[n]}

    def path_polarity(
        self,
        gene: str,
        endpoints: Iterable[str],
        max_edges: int = MAX_PATH_EDGES,
        max_paths: int = MAX_PATHS_PER_PAIR,
    ) -> PolarityResult:
        """Average signed-path polarity from `gene` to `endpoints`.

        Simple paths are expanded depth-first in lexicographic neighbor order,
        up to `max_edges` edges per path and `max_paths` paths per (gene,
        endpoint) pair. Each path contributes the product of its edge weights;
        the result is the mean over every enumerated path against every
        endpoint.
        """
        if gene not in self.nodes:
            raise NodeNotFound(f"gene {gene!r} not in pathway graph")
        targets = sorted(endpoints)
        for endpoint in targets:
            if endpoint not in self.nodes:
                raise NodeNotFound(f"endpoint {endpoint!r} not in pathway graph")

        adjacency = self.successors
        total = 0
        count = 0
        truncated = False

        for endpoint in targets:
            if endpoint == gene:
                continue
            # iterative DFS over (node, product, depth) with an explicit path set
            stack: list[tuple[str, int, int, tuple[str, ...]]] = [(gene, 1, 0, (gene,))]
            pair_count = 0
            while stack:
                node, product, depth, path = stack.pop()
                if node == endpoint:
                    total += product
                    count += 1
                    pair_count += 1
                    if pair_count >= max_paths:
                        truncated = True
                        break
                    continue
                if depth == max_edges:
                    continue
                # reversed so the lexicographically smallest neighbor pops first
                for nxt, weight in reversed(adjacency.get(node, [])):
                    if nxt in path:
                        continue
                    stack.append((nxt, product * weight, depth + 1, path + (nxt,)))

        if count == 0:
            return PolarityResult(value=0.0, path_count=0, no_path=True)
        return PolarityResult(value=total / count, path_count=count, truncated=truncated)

    def k_step_neighborhood(self, node: str, k: int, direction: str = "downstream") -> set[str]:
        """Nodes reachable within 1..k steps of `node`, excluding `node` itself."""
        if direction not in ("downstream", "upstream"):
            raise ValueError(f"direction must be downstream or upstream, got {direction!r}")
        if node not in self.nodes:
            raise NodeNotFound(f"node {node!r} not in graph")
        if k < 0:
            raise ValueError("k must be >= 0")

        step = self.successors if direction == "downstream" else self.predecessors
        reached: set[str] = set()
        frontier = {node}
        for _ in range(k):
            frontier = {m for n in frontier for m, _w in step.get(n, ())} - reached - {node}
            reached |= frontier
        return reached


def path_polarity(
    graph: SignedPathwayGraph,
    gene: str,
    endpoints: set[str] | list[str] | None = None,
    max_edges: int = MAX_PATH_EDGES,
    max_paths: int = MAX_PATHS_PER_PAIR,
) -> PolarityResult:
    """`Topology.path_polarity`; `endpoints` defaults to the graph's disease endpoints."""
    return graph.topology().path_polarity(
        gene, graph.endpoints if endpoints is None else endpoints, max_edges, max_paths
    )


def betweenness(graph) -> dict[str, float]:
    """Unnormalized directed betweenness centrality with unit edge lengths."""
    return graph.topology().betweenness


def strongly_connected_components(graph) -> list[set[str]]:
    """Partition of the node set into strongly connected components."""
    return graph.topology().components


def cyclic_nodes(graph) -> set[str]:
    """Nodes on a directed cycle: members of a multi-node SCC or a self-loop."""
    return graph.topology().cyclic


def k_step_neighborhood(
    graph: ReactionGraph,
    node: str,
    k: int,
    direction: str = "downstream",
) -> set[str]:
    """Nodes reachable within 1..k steps of `node`, excluding `node` itself."""
    return graph.topology().k_step_neighborhood(node, k, direction)


def terminal_endpoints(graph: ReactionGraph) -> set[str]:
    """Exactly the nodes with out-degree zero."""
    return graph.topology().terminals
