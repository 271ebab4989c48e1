"""Independent brute-force oracles for the graph analytics and the evidence store.

Deliberately naive implementations kept separate from the library code paths:
polarity by exhaustive simple-path enumeration via networkx, capped polarity
by one depth-first search per endpoint (the library's former algorithm, which
fixes what the path cap keeps), betweenness by
per-pair shortest-path counting over all-sources BFS tables, SCCs by mutual
reachability, neighborhoods by explicit level-by-level expansion,
evidence-store reads, name resolution, lint counts and conflict groups by full
scans of every stored entity or relation, and a batch's new entities and
relations by applying its entities one at a time to a copy of the store
(`new_entities_oracle`, `new_relations_oracle`).
Four former library algorithms are kept whole as references for their
replacements, which must give the same results: KGML parsing over an
ElementTree (`kgml_reference`), Brandes' betweenness with a predecessor
list per node (`brandes_reference`), a merge that counts its new
entities and relations on every batch (`counted_upsert`), and label
normalization that always strips outer punctuation by regex
(`normalize_label_reference`).
"""
from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from collections import deque

import networkx as nx

from biokgr import load_data
from biokgr.evidence import (
    ENTITY_KIND_ORDER,
    MAX_CONTEXT_EDGES_PER_FINDING,
    MAX_NEW_ENTITIES_PER_BATCH,
    MAX_NEW_RELATIONS_PER_BATCH,
    BatchLimitExceeded,
    EmptyLabel,
    EvidenceGraphStore,
    MergeBatch,
    MergeReport,
    _ENTITIES,
    normalize_curie,
    normalize_label,
)
from biokgr.pathways.analytics import (
    MAX_PATH_EDGES,
    MAX_PATHS_PER_PAIR,
    NodeNotFound,
    PolarityResult,
)
from biokgr.pathways.graphs import PathwayNode, ReactionGraph, SignedEdge, SignedPathwayGraph
from biokgr.pathways.kgml import SUBTYPE_SIGNS, MalformedKgml


def polarity_oracle(graph, gene: str, endpoints, max_edges: int = 8) -> tuple[float, int]:
    """(mean product of signs, path count) over all simple paths up to max_edges.

    Parallel edges are distinct paths, so the graph is a multigraph.
    """
    g = nx.MultiDiGraph()
    g.add_nodes_from(graph.nodes)
    for edge in graph.edges:
        g.add_edge(edge.source, edge.target, weight=edge.weight)
    total = 0
    count = 0
    for endpoint in endpoints:
        if endpoint == gene or endpoint not in g:
            continue
        for path in nx.all_simple_edge_paths(g, gene, endpoint, cutoff=max_edges):
            product = 1
            for u, v, key in path:
                product *= g[u][v][key]["weight"]
            total += product
            count += 1
    if count == 0:
        return 0.0, 0
    return total / count, count


def capped_polarity_reference(
    nodes,
    edges,
    gene: str,
    endpoints,
    max_paths: int = MAX_PATHS_PER_PAIR,
) -> PolarityResult:
    """`Topology.path_polarity` by one iterative DFS per endpoint.

    Reads the declared `nodes` and the `(source, target, weight)` `edges`.
    Simple paths are expanded depth-first in lexicographic neighbor order,
    up to `MAX_PATH_EDGES` edges per path and `max_paths` paths per (gene,
    endpoint) pair; the mean is over every enumerated path against every
    endpoint.
    """
    declared = set(nodes)
    if gene not in declared:
        raise NodeNotFound(f"gene {gene!r} not in pathway graph")
    targets = sorted(endpoints)
    for endpoint in targets:
        if endpoint not in declared:
            raise NodeNotFound(f"endpoint {endpoint!r} not in pathway graph")

    adjacency: dict[str, list[tuple[str, int]]] = {}
    for src, dst, weight in edges:
        adjacency.setdefault(src, []).append((dst, weight))
    for out in adjacency.values():
        out.sort()
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
            if depth == MAX_PATH_EDGES:
                continue
            # reversed so the lexicographically smallest neighbor pops first
            for nxt, weight in reversed(adjacency.get(node, [])):
                if nxt in path:
                    continue
                stack.append((nxt, product * weight, depth + 1, path + (nxt,)))

    if count == 0:
        return PolarityResult(value=0.0, path_count=0, no_path=True)
    return PolarityResult(value=total / count, path_count=count, truncated=truncated)


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


def distance_oracle(edges, roots, limit: int, direction: str) -> dict[str, int]:
    """Steps from the nearest root to each node within `limit` steps, by
    explicit level-by-level expansion over `(source, target, ...)` edges;
    direction is downstream, upstream or both."""
    adjacency: dict[str, set[str]] = {}
    for src, dst, *_rest in edges:
        if direction in ("downstream", "both"):
            adjacency.setdefault(src, set()).add(dst)
        if direction in ("upstream", "both"):
            adjacency.setdefault(dst, set()).add(src)
    levels = [set(roots)]
    seen = set(roots)
    for _ in range(limit):
        nxt = set()
        for u in levels[-1]:
            nxt |= adjacency.get(u, set())
        nxt -= seen
        if not nxt:
            break
        seen |= nxt
        levels.append(nxt)
    return {node: step for step, level in enumerate(levels) for node in level}


def k_step_oracle(rg, node: str, k: int, direction: str) -> set[str]:
    return set(distance_oracle(rg.edges, [node], k, direction)) - {node}


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


def normalize_label_reference(raw: str) -> str:
    """`normalize_label` as it was when every label went through the
    outer-punctuation regex, whatever its first and last characters."""
    if raw is None or not raw.strip():
        raise EmptyLabel("label is blank after trimming")
    key = re.sub(r"^[\W_]+|[\W_]+$", "", " ".join(raw.split()).casefold())
    if not key:
        raise EmptyLabel(f"label {raw!r} is only punctuation")
    return key


def resolve_oracle(store, ref: str) -> str | None:
    """`resolve_key` by scans of every stored entity: an exact storage key,
    then a CURIE, then the label's entity whose kind comes first in
    ENTITY_KIND_ORDER."""
    entities = store.entities()
    if any(e.key == ref for e in entities):
        return ref
    curie = normalize_curie(ref)
    for e in entities:
        if e.curie and normalize_curie(e.curie) == curie:
            return e.key
    try:
        label = normalize_label(ref)
    except EmptyLabel:
        return None
    named = [e for e in entities if normalize_label(e.name) == label]
    return min(named, key=lambda e: ENTITY_KIND_ORDER.index(e.kind)).key if named else None


def findings_over_context_cap_oracle(store, predicates, cap: int) -> set[str]:
    """Findings whose outgoing contextual relations number more than `cap`."""
    kinds = {e.key: e.kind for e in store.entities()}
    counts: dict[str, int] = {}
    for r in store.relations():
        if r.predicate in predicates and kinds[r.subject] == "FINDING":
            counts[r.subject] = counts.get(r.subject, 0) + 1
    return {key for key, n in counts.items() if n > cap}


def grouping_oracle(store) -> dict[str, list[tuple[str, str, str]]]:
    """Each conflict group a stored relation names, in id order, with the
    sorted triples of every relation that names it."""
    groups: dict[str, list[tuple[str, str, str]]] = {}
    for r in store.relations():
        if r.conflict_group is not None:
            groups.setdefault(r.conflict_group, []).append(r.key)
    return {gid: sorted(groups[gid]) for gid in sorted(groups)}


def _entities_applied(store, entities):
    """A copy of `store`'s entities, rebuilt through `from_document`, with
    `entities` applied to it one at a time, and the `created` each reports.

    Which entities a merge creates, and which key a name resolves to,
    depend on the stored entities alone, so the copy holds no relation or
    observation.
    """
    fields = _ENTITIES.shape.fields
    copy = EvidenceGraphStore.from_document({
        "entities": [{name: getattr(e, name) for name in fields} for e in store.entities()],
        "relations": [], "observations": [], "conflict_groups": []})
    return copy, [copy.upsert_batch(MergeBatch(entities=(entity,))).created for entity in entities]


def new_entities_oracle(store, entities) -> int:
    """The entities a merge of `entities` creates: each applied alone, in order,
    to a copy of `store`, summing `created`."""
    return sum(_entities_applied(store, entities)[1])


def new_relations_oracle(store, batch) -> int:
    """The relations of `batch` that are new to `store`: its entities applied
    one at a time to a copy of `store`, then the distinct triples not stored,
    each endpoint resolved in the copy by `resolve_oracle`. An endpoint that
    resolves to nothing stands for its normalized label, or for itself."""
    copy, _created = _entities_applied(store, batch.entities)

    def resolve(ref):
        key = resolve_oracle(copy, ref)
        if key is None:
            try:
                key = normalize_label(ref)
            except EmptyLabel:
                key = ref
        return key

    triples = {(resolve(r.subject), r.predicate, resolve(r.object)) for r in batch.relations}
    return len(triples - {r.key for r in store.relations()})


def counted_upsert(store, batch, counts: dict | None = None) -> MergeReport:
    """`EvidenceGraphStore.upsert_batch` as it was when every batch was counted.

    After validation, and the refusal of a name that normalizes to nothing
    unless its CURIE is stored, the new entities (by `new_entities_oracle`)
    and the new relations (by `new_relations_oracle`) are counted on every
    batch, whatever its length, before the store is touched; `counts`, when
    given, receives them under "entities" and "relations". The batch is then
    applied through the store's own record steps. The context-lint warnings
    go to the report only.
    """
    with store._lock:
        for entity in batch.entities:
            entity.validate()
        for relation in batch.relations:
            relation.validate()
        for obs in batch.observations:
            obs.validate()
        for entity in batch.entities:
            if not (entity.curie and store._curie_index.get(normalize_curie(entity.curie))):
                normalize_label(entity.name)

        counts = {} if counts is None else counts
        counts.update(entities=new_entities_oracle(store, batch.entities),
                      relations=new_relations_oracle(store, batch))
        for records, cap in (("entities", MAX_NEW_ENTITIES_PER_BATCH),
                             ("relations", MAX_NEW_RELATIONS_PER_BATCH)):
            if counts[records] > cap:
                raise BatchLimitExceeded(
                    f"batch introduces {counts[records]} new {records} (limit {cap})")

        report = MergeReport()
        crossed: set[str] = set()
        for entity in batch.entities:
            store._apply_entity(entity, report, None)
        for relation in batch.relations:
            store._apply_relation(relation, report, crossed)
        for obs in batch.observations:
            store._apply_observation(obs, report)
        for key in sorted(crossed):
            report.warnings.append(
                f"finding {key!r} carries {store._context_edges[key]} contextual edges "
                f"(recommended max {MAX_CONTEXT_EDGES_PER_FINDING})"
            )
        return report


_EC_PATTERN = re.compile(r"\b(\d+\.\d+\.\d+\.[\dn-]+)\b")
_ACCESSION_LIKE = re.compile(r"^(C|D|G|R)\d{5}$")


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


def _strip_cpd(name: str | None) -> str:
    if not name:
        return ""
    return name.removeprefix("cpd:").strip()


def kgml_reference(document: str) -> tuple[SignedPathwayGraph, ReactionGraph]:
    """`parse_kgml` over an ElementTree: `ET.fromstring`, then one `findall`
    pass each over the entries, relations and reactions. Groups expand from a
    work list, so nesting of any depth is followed; a group that contains
    itself raises `MalformedKgml`."""
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        line, column = getattr(exc, "position", (0, 0))
        raise MalformedKgml(f"XML parse failure at line {line}, column {column}: {exc}") from exc
    if root.tag != "pathway":
        raise MalformedKgml(f"root element is <{root.tag}>, expected <pathway>")

    nodes: dict[str, PathwayNode] = {}
    compounds: dict[str, str] = {}
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
                compounds.setdefault(display, display)
            continue
        if entry_type not in ("gene", "map", "enzyme", "ortholog"):
            continue

        if entry_type == "map":
            symbol = _primary_alias(label).removeprefix("TITLE:").strip()
        else:
            symbol = _primary_alias(label)
        if not symbol:
            name_tokens = (entry.get("name") or "").split()
            symbol = name_tokens[0] if name_tokens else entry_id
        entry_key[entry_id] = symbol

        kegg_ids = tuple(t for t in (entry.get("name") or "").split() if ":" in t)
        ec_numbers = tuple(sorted(set(
            _EC_PATTERN.findall(label) + [t[len("ec:"):] for t in kegg_ids if t.startswith("ec:")]
        )))
        aliases = tuple(a.strip().rstrip(".") for a in label.split(",") if a.strip())

        node = nodes.get(symbol)
        if node is None:
            nodes[symbol] = PathwayNode(
                symbol=symbol,
                entry_type="gene" if entry_type in ("gene", "enzyme", "ortholog") else entry_type,
                aliases=aliases,
                ec_numbers=ec_numbers,
                graphics_label=label,
                kegg_ids=kegg_ids,
            )
        else:
            nodes[symbol] = PathwayNode(
                symbol=node.symbol,
                entry_type=node.entry_type,
                aliases=tuple(dict.fromkeys(node.aliases + aliases)),
                ec_numbers=tuple(sorted(set(node.ec_numbers) | set(ec_numbers))),
                graphics_label=node.graphics_label,
                kegg_ids=tuple(dict.fromkeys(node.kegg_ids + kegg_ids)),
            )

        reaction_names = [t for t in (entry.get("reaction") or "").split() if t]
        if reaction_names and entry_type in ("gene", "enzyme", "ortholog"):
            enzyme_reactions.setdefault(symbol, set()).update(
                name.removeprefix("rn:") for name in reaction_names
            )

    def resolve_endpoints(entry_id: str) -> list[str]:
        keys = []
        work = [(entry_id, ())]  # (id, the groups that contain it), next to expand last
        while work:
            member, groups = work.pop()
            if member in groups:
                raise MalformedKgml(f"group {member!r} contains itself")
            if member in group_members:
                work += [(m, groups + (member,)) for m in reversed(group_members[member])]
            elif entry_key.get(member):
                keys.append(entry_key[member])
        return keys

    seen: set[tuple[str, str, int, str]] = set()
    edges: list[SignedEdge] = []
    skipped: list[tuple[str, str, str]] = []
    for relation in root.findall("relation"):
        subtypes = [s.get("name") or "" for s in relation.findall("subtype")]
        sign = next((SUBTYPE_SIGNS[s] for s in subtypes if s in SUBTYPE_SIGNS), None)
        sources = resolve_endpoints(relation.get("entry1") or "")
        targets = resolve_endpoints(relation.get("entry2") or "")
        if sign is None or not sources or not targets:
            skipped.append(
                (relation.get("entry1") or "", relation.get("entry2") or "",
                 ";".join(subtypes) or "(no subtype)")
            )
            continue
        subtype_name = next(s for s in subtypes if s in SUBTYPE_SIGNS)
        for src in sources:
            for dst in targets:
                sig = (src, dst, sign, subtype_name)
                if sig not in seen:
                    edges.append(SignedEdge(src, dst, sign, subtype_name))
                    seen.add(sig)

    reaction_edges: list[tuple[str, str, str]] = []
    reaction_substrates: dict[str, tuple[str, ...]] = {}
    reaction_products: dict[str, tuple[str, ...]] = {}
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
            compounds.setdefault(compound, compound)
        for substrate in substrates:
            for product in products:
                reaction_edges.append((substrate, product, name))
        reaction_substrates[name] = tuple(substrates)
        reaction_products[name] = tuple(products)

    terms = [t.casefold() for t in load_data("endpoint_lexicon.json")["terms"]]
    endpoints = {key for key, node in nodes.items()
                 if any(term in f"{node.graphics_label} {key}".casefold() for term in terms)}
    graph = SignedPathwayGraph(
        pathway_id=(root.get("name") or "").replace("path:", ""),
        title=root.get("title") or "",
        nodes=nodes,
        edges=edges,
        endpoints=endpoints,
        skipped_relations=skipped,
    )
    reaction_graph = ReactionGraph(
        compounds=compounds,
        edges=reaction_edges,
        enzymes={symbol: tuple(sorted(reactions))
                 for symbol, reactions in sorted(enzyme_reactions.items())},
        reaction_substrates=reaction_substrates,
        reaction_products=reaction_products,
    )
    return graph, reaction_graph


def brandes_reference(successors: list[list[tuple[int, int]]]) -> list[float]:
    """`analytics._brandes` with float path counts, fresh tables per source
    and a predecessor list per node, built during the BFS."""
    n = len(successors)
    out = [list(dict.fromkeys(w for w, _sign in adjacent)) for adjacent in successors]
    centrality = [0.0] * n
    for source in range(n):
        distance = [-1] * n
        distance[source] = 0
        sigma = [0.0] * n
        sigma[source] = 1.0
        preds: list[list[int]] = [[] for _ in range(n)]
        order = [source]
        for v in order:  # the BFS queue: iteration reaches the nodes appended below
            step = distance[v] + 1
            for w in out[v]:
                if distance[w] < 0:
                    distance[w] = step
                    order.append(w)
                if distance[w] == step:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * n
        for w in reversed(order):
            coeff = (1 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != source:
                centrality[w] += delta[w]
    return centrality
