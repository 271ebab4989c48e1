"""Independent brute-force oracles for the graph analytics and the evidence store.

Deliberately naive implementations kept separate from the library code paths:
polarity by exhaustive simple-path enumeration via networkx, betweenness by
per-pair shortest-path counting over all-sources BFS tables, SCCs by mutual
reachability, neighborhoods by explicit level-by-level expansion, and
evidence-store reads and lint counts by full scans of every stored relation.
"""
from __future__ import annotations

from collections import deque

import networkx as nx


def polarity_oracle(graph, gene: str, endpoints, max_edges: int = 8) -> tuple[float, int]:
    """(mean product of signs, path count) over all simple paths up to max_edges."""
    g = nx.DiGraph()
    g.add_nodes_from(graph.nodes)
    for edge in graph.edges:
        g.add_edge(edge.source, edge.target, weight=edge.weight)
    total = 0
    count = 0
    for endpoint in endpoints:
        if endpoint == gene or endpoint not in g:
            continue
        for path in nx.all_simple_paths(g, gene, endpoint, cutoff=max_edges):
            product = 1
            for u, v in zip(path, path[1:]):
                product *= g[u][v]["weight"]
            total += product
            count += 1
    if count == 0:
        return 0.0, 0
    return total / count, count


def _bfs_tables(nodes, adjacency) -> dict:
    """For each source: shortest-path distance and path-count tables."""
    tables = {}
    for source in nodes:
        dist = {source: 0}
        sigma = {source: 1}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in adjacency.get(u, ()):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    sigma[v] = sigma[u]
                    queue.append(v)
                elif dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
        tables[source] = (dist, sigma)
    return tables


def betweenness_oracle(graph) -> dict[str, float]:
    """Sum over ordered pairs (s, t) of the fraction of shortest s->t paths through v."""
    nodes = list(graph.nodes)
    adjacency: dict[str, list[str]] = {}
    for edge in graph.edges:
        adjacency.setdefault(edge.source, []).append(edge.target)
    tables = _bfs_tables(nodes, adjacency)
    centrality = {v: 0.0 for v in nodes}
    for s in nodes:
        dist_s, sigma_s = tables[s]
        for t in nodes:
            if t == s or t not in dist_s:
                continue
            for v in nodes:
                if v == s or v == t or v not in dist_s:
                    continue
                dist_v, sigma_v = tables[v]
                if t in dist_v and dist_s[v] + dist_v[t] == dist_s[t]:
                    centrality[v] += sigma_s[v] * sigma_v[t] / sigma_s[t]
    return centrality


def scc_oracle(graph) -> list[set[str]]:
    """Mutual-reachability partition via per-node BFS closures."""
    nodes = list(graph.nodes)
    adjacency: dict[str, set[str]] = {}
    for edge in graph.edges:
        adjacency.setdefault(edge.source, set()).add(edge.target)

    def reachable(start: str) -> set[str]:
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adjacency.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen

    closures = {v: reachable(v) for v in nodes}
    assigned: set[str] = set()
    components: list[set[str]] = []
    for v in nodes:
        if v in assigned:
            continue
        component = {u for u in closures[v] if v in closures[u]}
        components.append(component)
        assigned |= component
    return sorted(components, key=lambda c: sorted(c)[0])


def k_step_oracle(rg, node: str, k: int, direction: str) -> set[str]:
    adjacency: dict[str, set[str]] = {}
    for src, dst, _reaction in rg.edges:
        if direction == "downstream":
            adjacency.setdefault(src, set()).add(dst)
        else:
            adjacency.setdefault(dst, set()).add(src)
    levels = [{node}]
    seen = {node}
    for _ in range(k):
        nxt = set()
        for u in levels[-1]:
            nxt |= adjacency.get(u, set())
        nxt -= seen
        if not nxt:
            break
        seen |= nxt
        levels.append(nxt)
    return seen - {node}


def terminal_oracle(rg) -> set[str]:
    return {n for n in rg.compounds if all(src != n for src, _dst, _r in rg.edges)}


def subgraph_oracle(store, seeds, depth: int) -> dict:
    """`query_subgraph` by full scans: adjacency rebuilt from every stored
    relation on each call, and every relation filtered for the result."""
    relations = store.relations()
    adjacency: dict[str, set[str]] = {}
    for r in relations:
        adjacency.setdefault(r.subject, set()).add(r.object)
        adjacency.setdefault(r.object, set()).add(r.subject)
    frontier = {k for k in map(store.resolve_key, seeds) if k is not None}
    reached = set(frontier)
    for _ in range(depth):
        frontier = set().union(*(adjacency.get(k, set()) for k in frontier)) - reached
        if not frontier:
            break
        reached |= frontier
    return {
        "entities": {e.key: e for e in store.entities() if e.key in reached},
        "relations": [r for r in relations if r.subject in reached and r.object in reached],
    }


def findings_over_context_cap_oracle(store, predicates, cap: int) -> set[str]:
    """Findings whose outgoing contextual relations number more than `cap`."""
    kinds = {e.key: e.kind for e in store.entities()}
    counts: dict[str, int] = {}
    for r in store.relations():
        if r.predicate in predicates and kinds[r.subject] == "FINDING":
            counts[r.subject] = counts.get(r.subject, 0) + 1
    return {key for key, n in counts.items() if n > cap}
