"""Graph analytics used by the benchmark curators.

Every analytic reads a `Topology`: the structure of one pathway graph, which
each graph builds once as its `topology`, with betweenness, SCCs, cyclic and
terminal nodes cached on first use. The module functions at the end read it
too; they remain only while `perfbench/curate_kgml.py` calls them.

Every analytic runs over one integer index built with the topology: ids in
name order, sorted `(id, weight)` successors and predecessor ids. One
breadth-first search, `Topology.distances`, serves k-step, flux and surrogate
reach and the pruning of path polarity, which walks the simple paths from a
gene once for all its endpoints, with a path cap per endpoint; the pruned
successor lists are cached per endpoint set, so a curator's calls for every
candidate gene share them, and a node that is too far from the endpoints for
any successor to be kept at a level shares one empty sequence there. The
walk keeps stack frames only for nodes with four or more edges left, and
scans the last three edges of each path in place, in nested loops over the
pruned lists; most of the nodes a walk visits lie on those three levels. The
loops take the successors in the order the frames would, so the paths are
counted in the same order and each cap keeps the same prefix. Betweenness is
Brandes' algorithm (J. Math. Sociol. 25(2), 2001): a BFS per source that
counts shortest paths, then dependencies accumulated in reverse BFS order
into each node's in-neighbours one level up, over tables allocated once per
call and reset only where a BFS reached. SCCs are Tarjan's algorithm (SIAM
J. Comput. 1(2), 1972) with an explicit stack in place of recursion.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

MAX_PATH_EDGES = 8
MAX_PATHS_PER_PAIR = 10_000
DIRECTIONS = ("downstream", "upstream", "both")


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
    SCCs but are never members of `nodes`. Betweenness treats the graph as
    simple, so parallel edges count once and self-loops add nothing. The
    cached results are shared between readers and must not be mutated.
    """

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str, int]]):
        self.nodes = frozenset(nodes)
        edges = list(edges)
        # ids follow name order, so sorting successors by id sorts them by name
        self._names = sorted(self.nodes.union(*((src, dst) for src, dst, _w in edges)))
        self._ids = {name: i for i, name in enumerate(self._names)}
        self._successors: list[list[tuple[int, int]]] = [[] for _ in self._names]
        self._predecessors: list[list[int]] = [[] for _ in self._names]
        for src, dst, weight in edges:
            source, target = self._ids[src], self._ids[dst]
            self._successors[source].append((target, weight))
            self._predecessors[target].append(source)
        for out in self._successors:
            out.sort()
        self._withins: dict[frozenset[str], list[list[Sequence[tuple[int, int]]]]] = {}

    @cached_property
    def betweenness(self) -> dict[str, float]:
        """Unnormalized directed betweenness centrality with unit edge lengths,
        keyed by node name in name order."""
        return dict(zip(self._names, _brandes(self._successors)))

    @cached_property
    def components(self) -> list[set[str]]:
        """Strongly connected components, ordered by their smallest member."""
        components = [{self._names[v] for v in c} for c in _tarjan(self._successors)]
        return sorted(components, key=min)

    @cached_property
    def cyclic(self) -> frozenset[str]:
        """Nodes on a directed cycle: members of a multi-node SCC or a self-loop."""
        cyclic = {n for c in self.components if len(c) > 1 for n in c}
        return frozenset(cyclic).union(
            n for v, n in enumerate(self._names) if v in self._predecessors[v])

    @cached_property
    def terminals(self) -> frozenset[str]:
        """Exactly the declared nodes with out-degree zero."""
        return frozenset(n for n in self.nodes if not self._successors[self._ids[n]])

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

        The walk pushes a frame for each node with four or more edges left.
        A node with three edges left gets none: the walk scans those three
        edges in place, counting each successor in order and then, depth
        first, that successor's own successors and theirs before it takes the
        next one. That is the order in which frames would visit them, so the
        paths are counted in the same lexicographic order and each cap keeps
        the same prefix. The scan marks the successor whose subtree it is in
        as on the path, so no path takes a node twice.
        """
        if gene not in self.nodes:
            raise NodeNotFound(f"gene {gene!r} not in pathway graph")
        targets = sorted(endpoints)
        within = self._within(frozenset(targets))  # raises NodeNotFound for an unknown endpoint
        ids = self._ids
        source = ids[gene]
        listed = [0] * len(ids)  # how often each endpoint under its cap is listed
        live = 0  # endpoints listed and under their cap
        for endpoint in targets:
            if endpoint != gene:
                target = ids[endpoint]
                if not listed[target]:
                    live += 1
                listed[target] += 1
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
        far, near, last = within[2], within[1], within[0]
        while stack:
            for nxt, sign in stack[-1]:
                if product[nxt]:
                    continue
                step = here * sign
                times = listed[nxt]
                if times:
                    total += step * times
                    count += times
                    found[nxt] += 1
                    if found[nxt] >= max_paths:
                        listed[nxt] = 0
                        truncated = True
                        live -= 1
                        if not live:
                            return PolarityResult(total / count, count, truncated=True)
                if slack > 3:
                    product[nxt] = here = step
                    path.append(nxt)
                    slack -= 1
                    stack.append(iter(within[slack][nxt]))
                    break
                # the three edges left after nxt, in the order their frames would take
                product[nxt] = step
                for top, sign in far[nxt]:
                    if product[top]:
                        continue
                    top_step = step * sign
                    times = listed[top]
                    if times:
                        total += top_step * times
                        count += times
                        found[top] += 1
                        if found[top] >= max_paths:
                            listed[top] = 0
                            truncated = True
                            live -= 1
                            if not live:
                                return PolarityResult(total / count, count, truncated=True)
                    product[top] = top_step
                    for mid, sign in near[top]:
                        if product[mid]:
                            continue
                        mid_step = top_step * sign
                        times = listed[mid]
                        if times:
                            total += mid_step * times
                            count += times
                            found[mid] += 1
                            if found[mid] >= max_paths:
                                listed[mid] = 0
                                truncated = True
                                live -= 1
                                if not live:
                                    return PolarityResult(total / count, count, truncated=True)
                        for end, sign in last[mid]:
                            times = listed[end]
                            if times and not product[end]:
                                total += mid_step * sign * times
                                count += times
                                found[end] += 1
                                if found[end] >= max_paths:
                                    listed[end] = 0
                                    truncated = True
                                    live -= 1
                                    if not live:
                                        return PolarityResult(total / count, count, truncated=True)
                    product[top] = 0
                product[nxt] = 0
            else:
                stack.pop()
                product[path.pop()] = 0
                if path:
                    here = product[path[-1]]
                slack += 1

        if count == 0:
            return PolarityResult(value=0.0, path_count=0, no_path=True)
        return PolarityResult(value=total / count, path_count=count, truncated=truncated)

    def distances(
        self, roots: Iterable[str], limit: int, direction: str = "downstream"
    ) -> dict[str, int]:
        """Steps from the nearest of `roots` (declared nodes, at 0) to each node
        at most `limit` steps away, by breadth-first search: downstream along
        edges, upstream against them, or both ways at each step."""
        if direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {', '.join(DIRECTIONS)}, got {direction!r}")
        if limit < 0:
            raise ValueError("limit must be >= 0")
        steps: dict[int, int] = {}
        for root in roots:
            if root not in self.nodes:
                raise NodeNotFound(f"node {root!r} not in graph")
            steps[self._ids[root]] = 0
        frontier = set(steps)
        for step in range(1, limit + 1):
            reached: set[int] = set()
            if direction != "upstream":
                reached.update(w for v in frontier for w, _sign in self._successors[v])
            if direction != "downstream":
                reached.update(w for v in frontier for w in self._predecessors[v])
            frontier = reached.difference(steps)
            steps.update(dict.fromkeys(frontier, step))
        return {self._names[v]: n for v, n in steps.items()}

    def _within(self, targets: frozenset[str]) -> list[list[Sequence[tuple[int, int]]]]:
        """`within[s][n]`: the successors of id `n`, other than `n` itself, at
        most `s` edges from the nearest of `targets`, in successor order. A
        node more than `s + 1` edges from the targets has none, and gets one
        shared empty tuple. Cached per target set."""
        within = self._withins.get(targets)
        if within is None:
            # distances up to the longest a walk can use; farther ids are left out
            distance = [MAX_PATH_EDGES] * len(self._names)
            for name, steps in self.distances(targets, MAX_PATH_EDGES - 1, "upstream").items():
                distance[self._ids[name]] = steps
            # the top level drops self-loops: no simple path takes one, and the
            # in-place scan of a walk's last edge does not check for one
            top = MAX_PATH_EDGES - 1
            level = [[e for e in out if distance[e[0]] <= top and e[0] != n] if out else ()
                     for n, out in enumerate(self._successors)]
            # each lower level filters the (shorter) lists of the one above; a
            # node more than s + 1 edges away has no successor within s, so it
            # gets the one shared empty sequence unfiltered
            within = [level]
            for s in reversed(range(top)):
                level = [[e for e in out if distance[e[0]] <= s] if out and d <= s + 1 else ()
                         for d, out in zip(distance, level)]
                within.append(level)
            within.reverse()
            self._withins[targets] = within
        return within


def _brandes(successors: list[list[tuple[int, int]]]) -> list[float]:
    """Unnormalized betweenness of each id, by Brandes (2001).

    One BFS per source counts the shortest paths to every node (`sigma`);
    walking the BFS order backwards then accumulates each node's dependency
    on the source into its in-neighbours one level up, which are exactly its
    predecessors on those paths. Parallel edges count once and self-loops
    never lie on a shortest path. A source without successors reaches no
    other node and is skipped.

    The tables are allocated once and each BFS resets what it reached. Path
    counts are ints, so while they stay below 2**53 every float operation
    sees the same operands, in the same order, as with float counts.
    """
    n = len(successors)
    out = [list(dict.fromkeys(w for w, _sign in adjacent)) for adjacent in successors]
    into: list[list[int]] = [[] for _ in range(n)]
    for v, adjacent in enumerate(out):
        for w in adjacent:
            into[w].append(v)
    centrality = [0.0] * n
    distance = [-1] * n
    sigma = [0] * n  # set when the BFS reaches a node, so it needs no reset
    delta = [0.0] * n
    for source in range(n):
        if not out[source]:
            continue
        distance[source] = 0
        sigma[source] = 1
        order = [source]
        for v in order:  # the BFS queue: iteration reaches the nodes appended below
            step = distance[v] + 1
            paths = sigma[v]
            for w in out[v]:
                if distance[w] < 0:
                    distance[w] = step
                    sigma[w] = paths
                    order.append(w)
                elif distance[w] == step:
                    sigma[w] += paths
        for w in order[:0:-1]:  # every reached node but the source, farthest first
            coeff = (1 + delta[w]) / sigma[w]
            up = distance[w] - 1
            for v in into[w]:
                if distance[v] == up:
                    delta[v] += sigma[v] * coeff
            centrality[w] += delta[w]
            # the nodes still to come are no farther from the source than w, so
            # none has w one level up: reset w for the next source
            distance[w] = -1
            delta[w] = 0.0
        distance[source] = -1
        delta[source] = 0.0
    return centrality


def _tarjan(successors: list[list[tuple[int, int]]]) -> list[list[int]]:
    """Strongly connected components of the ids, by Tarjan (1972).

    The depth-first search keeps an explicit stack of successor iterators, so
    no graph is too deep for it. `low[v]` is the smallest visit number that v
    reaches through nodes not yet in a component; v roots a component when
    that is its own visit number.
    """
    n = len(successors)
    visit = [0] * n  # 1-based visit numbers; 0 until visited
    low = [0] * n
    finished = n + 1  # the low of a node once its component is emitted
    pending: list[int] = []  # visited nodes not yet in a component
    components = []
    count = 0
    for root in range(n):
        if visit[root]:
            continue
        count += 1
        visit[root] = low[root] = count
        pending.append(root)
        stack = [(root, iter(successors[root]))]
        while stack:
            v, out = stack[-1]
            for w, _sign in out:
                if not visit[w]:
                    count += 1
                    visit[w] = low[w] = count
                    pending.append(w)
                    stack.append((w, iter(successors[w])))
                    break
                low[v] = min(low[v], low[w])
            else:
                stack.pop()
                if low[v] == visit[v]:
                    component = []
                    while not component or component[-1] != v:
                        w = pending.pop()
                        low[w] = finished
                        component.append(w)
                    components.append(component)
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
    return components


def path_polarity(graph, gene: str, endpoints,
                  max_paths: int = MAX_PATHS_PER_PAIR) -> PolarityResult:
    """`Topology.path_polarity` on the graph's topology."""
    return graph.topology.path_polarity(gene, endpoints, max_paths)


def betweenness(graph) -> dict[str, float]:
    """`Topology.betweenness` of the graph's topology."""
    return graph.topology.betweenness


def cyclic_nodes(graph) -> frozenset[str]:
    """`Topology.cyclic` of the graph's topology."""
    return graph.topology.cyclic


def k_step_neighborhood(graph, node: str, k: int, direction: str = "downstream") -> set[str]:
    """Nodes reachable within 1..k steps of `node`, excluding `node` itself."""
    return set(graph.topology.distances([node], k, direction)) - {node}
