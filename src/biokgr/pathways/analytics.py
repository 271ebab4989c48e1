"""Graph analytics used by the benchmark curators.

Every analytic reads a `Topology`: the structure of one pathway graph,
compiled by `SignedPathwayGraph.topology()` or `ReactionGraph.topology()`,
with betweenness, SCCs, cyclic and terminal nodes cached on first use. A
curator holds one topology per item; the module functions build one per call.

Path polarity walks the simple paths from a gene once for all its endpoints,
with a path cap per endpoint and exact distance pruning, over an integer index
compiled on first use; the pruned successor lists are cached per endpoint set,
so a curator's calls for every candidate gene share them.
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
        self._withins: dict[frozenset[int], list[list[list[tuple[int, int]]]]] = {}

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
        max_paths: int = MAX_PATHS_PER_PAIR,
    ) -> PolarityResult:
        """Average signed-path polarity from `gene` to `endpoints`.

        Counts the simple paths of up to `MAX_PATH_EDGES` edges from `gene` to
        each endpoint other than `gene`, the first `max_paths` of them per
        endpoint in lexicographic (neighbor name, weight) order; a path may
        pass through other endpoints. Each path contributes the product of its
        edge weights, and the result is the mean over every counted path
        against every endpoint (an endpoint listed twice counts twice).

        One depth-first walk from `gene` serves every endpoint. An endpoint
        leaves the walk when its cap is reached, and the walk ends when none
        is left. It never enters a node whose shortest distance to the
        endpoint set exceeds the edges left: that distance ignores the
        simple-path rule, so it is a lower bound and no counted path is lost.
        """
        if gene not in self.nodes:
            raise NodeNotFound(f"gene {gene!r} not in pathway graph")
        targets = sorted(endpoints)
        for endpoint in targets:
            if endpoint not in self.nodes:
                raise NodeNotFound(f"endpoint {endpoint!r} not in pathway graph")

        ids = self._index[0]
        source = ids[gene]
        within = self._within(frozenset(ids[e] for e in targets))
        listed = [0] * len(ids)  # how often each endpoint under its cap is listed
        for endpoint in targets:
            if endpoint != gene:
                listed[ids[endpoint]] += 1
        live = sum(1 for times in listed if times)
        found = [0] * len(ids)
        total = count = 0
        truncated = False

        # product[n] is the sign product of the walked path up to n while n
        # is on it, and 0 otherwise
        product = [0] * len(ids)
        product[source] = here = 1
        path = [source]
        slack = MAX_PATH_EDGES - 1  # edges left after the next one
        stack = [iter(within[slack][source])]
        while stack:
            for nxt, sign in stack[-1]:
                if product[nxt]:
                    continue
                times = listed[nxt]
                if times:
                    total += here * sign * times
                    count += times
                    found[nxt] += 1
                    if found[nxt] >= max_paths:
                        listed[nxt] = 0
                        truncated = True
                        live -= 1
                        if not live:
                            return PolarityResult(total / count, count, truncated=True)
                if slack:
                    product[nxt] = here = here * sign
                    path.append(nxt)
                    slack -= 1
                    stack.append(iter(within[slack][nxt]))
                    break
            else:
                stack.pop()
                product[path.pop()] = 0
                if path:
                    here = product[path[-1]]
                slack += 1

        if count == 0:
            return PolarityResult(value=0.0, path_count=0, no_path=True)
        return PolarityResult(value=total / count, path_count=count, truncated=truncated)

    @cached_property
    def _index(self) -> tuple[dict[str, int], list[list[tuple[int, int]]], list[list[int]]]:
        """Integer ids in name order, each id's sorted `(id, weight)` successors
        and its predecessor ids."""
        names = sorted(self.successors.keys() | self.predecessors.keys())
        ids = {name: i for i, name in enumerate(names)}
        # ids follow name order, so the sorted successor lists stay sorted
        successors = [[(ids[dst], w) for dst, w in self.successors.get(n, ())] for n in names]
        predecessors = [[ids[src] for src, _w in self.predecessors.get(n, ())] for n in names]
        return ids, successors, predecessors

    def _within(self, targets: frozenset[int]) -> list[list[list[tuple[int, int]]]]:
        """`within[s][n]`: the successors of id `n` at most `s` edges from the
        nearest of `targets`, in successor order. Cached per target set."""
        within = self._withins.get(targets)
        if within is None:
            _ids, successors, predecessors = self._index
            # reverse BFS from the targets, up to the longest distance a walk can use
            distance = [MAX_PATH_EDGES] * len(predecessors)
            frontier = list(targets)
            for node in frontier:
                distance[node] = 0
            for step in range(1, MAX_PATH_EDGES):
                reached = []
                for node in frontier:
                    for src in predecessors[node]:
                        if distance[src] > step:
                            distance[src] = step
                            reached.append(src)
                frontier = reached
            # top level first: each level filters the (shorter) lists of the one above
            level = successors
            within = []
            for s in reversed(range(MAX_PATH_EDGES)):
                level = [[e for e in out if distance[e[0]] <= s] if out else out for out in level]
                within.append(level)
            within.reverse()
            self._withins[targets] = within
        return within

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
    max_paths: int = MAX_PATHS_PER_PAIR,
) -> PolarityResult:
    """`Topology.path_polarity`; `endpoints` defaults to the graph's disease endpoints."""
    return graph.topology().path_polarity(
        gene, graph.endpoints if endpoints is None else endpoints, max_paths
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
