"""Unified multi-source entity search, relation search, and citation lookup.

Sources are registry entries (see `descriptors`): `Federation` builds every
request from the entry's template for the operation and reads every reply
through one checked reader, `_read`, so no source has code of its own. A
reply the reader cannot follow, or a leaf of the wrong type, raises
`MalformedResponse`, which fails that source alone.

`Federation` owns one client per registered source, all sharing one rate
limiter, one clock and one transport (the stateless `HttpTransport` unless
one is injected), and fans a search out concurrently: the highest-priority
source runs on the caller's thread and the others on at most `MAX_WORKERS`
threads, so a one-source search starts no thread. It merges per-source
records into `UnifiedRecord`s with deterministic ordering: source priority
first, then the source's native rank. Records from different sources that
share a cross-reference id enrich each other's xref maps; conflicting ids are
never overwritten silently, they are recorded side by side with their
sources.
"""
from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from urllib.parse import quote

from biokgr import load_data
from biokgr.evidence import EntityRef
from biokgr.federation.client import (
    FederationError, FetchRequest, InvalidQuery, KgClient, MalformedResponse)
from biokgr.federation.descriptors import SLOT, QuerySpec, SourceDescriptor, default_registry
from biokgr.federation.queries import validate_predicate
from biokgr.federation.ratelimit import RateLimiter, SystemClock

logger = logging.getLogger(__name__)

MAX_WORKERS = 6

_KIND_MAP = {
    "gene": "GENE_PROTEIN",
    "protein": "GENE_PROTEIN",
    "disease": "DISEASE_PHENOTYPE",
    "phenotype": "DISEASE_PHENOTYPE",
    "chemical": "CHEMICAL_DRUG",
    "drug": "CHEMICAL_DRUG",
    "paper": "PAPER",
    "trial": "FINDING",
}


class AllSourcesFailed(FederationError):
    pass


@dataclass
class UnifiedRecord:
    name: str
    xrefs: dict = field(default_factory=dict)            # namespace -> id
    sources: list[str] = field(default_factory=list)     # attribution, >= 1
    rank: int = 0                                        # source-native rank
    xref_conflicts: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "xrefs": dict(sorted(self.xrefs.items())),
            "sources": list(self.sources),
            "rank": self.rank,
            "xref_conflicts": list(self.xref_conflicts),
        }


@dataclass
class SourceStatus:
    source_id: str
    ok: bool
    reason: str = ""


@dataclass
class FetchResult:
    records: list[UnifiedRecord]
    summary: str
    statuses: list[SourceStatus] = field(default_factory=list)


# -- request templates and the checked reply reader ------------------------------

def _request(template: dict, text: str, kind: str = "", limit: int | None = None) -> FetchRequest:
    """`template` with its slots filled; a slot in the path is percent-encoded."""
    kinds = template.get("kinds", {})
    values = {"text": text, "limit": limit, "kind": kinds.get(kind, kinds.get("*", kind))}

    def fill(value):
        if isinstance(value, dict):
            if set(value) == {"file"}:
                return load_data(value["file"])
            return {key: fill(item) for key, item in value.items()}
        if isinstance(value, list):
            return [fill(item) for item in value]
        if not isinstance(value, str):  # a literal number, boolean or null
            return value
        lone = SLOT.fullmatch(value)  # keeps the value's type: an integer limit stays one
        return values[lone[1]] if lone else SLOT.sub(lambda m: str(values[m[1]]), value)

    # http.client rejects a space or a non-ASCII character in the path;
    # reserved characters such as "/" and "+" go through as they are
    path = SLOT.sub(lambda m: quote(str(values[m[1]]), safe="!#$&'()*+,/:;=?@[]~"),
                    template["path"])
    body = template.get("body")
    return FetchRequest(
        path=path, params=fill(template.get("params", {})), method=template.get("method", "GET"),
        body=None if body is None else json.dumps(fill(body), sort_keys=True),
        headers={} if body is None else {"Content-Type": "application/json"},
    )


def _read(payload, reply: dict | None, limit: int | None) -> list[tuple[int, str, dict]]:
    """`(rank, name, xrefs)` for each record of `payload` read through a reply shape.

    A missing, null or empty value is absent, and so is a value under a step
    that is not an object; records that are not a list, or a leaf of the
    wrong type, raise `TypeError`. Without a shape, every object row of the
    list under ``results`` or ``hits`` is read with its ``name`` (else its
    ``id``) as the name and its ``id`` and ``*_id`` fields as xrefs, each an
    ``id`` leaf.
    """
    if reply is None:
        if not isinstance(payload, dict):
            return []
        rows = payload.get("results") or payload.get("hits") or []
        if not isinstance(rows, list):
            raise TypeError(f"the records hold {type(rows).__name__}, not a list")
        records = []
        for i, row in enumerate(rows[:limit]):
            if isinstance(row, dict):
                ids = {k: _leaf(v, "id", k) for k, v in row.items() if k == "id" or k.endswith("_id")}
                name = _leaf(row.get("name"), "id", "name") or ids.get("id") or ""
                records.append((i, name, {k: v for k, v in ids.items() if v is not None}))
        return records
    tsv = reply.get("form") == "tsv"
    if not isinstance(payload, str if tsv else dict):
        raise TypeError(f"expected {'text' if tsv else 'a JSON object'}, got {payload!r:.60}")
    if tsv:  # "id<TAB>synonym, synonym; description" lines; the name is the first synonym
        lines = [line.partition("\t") for line in payload.splitlines() if line.strip()]
        rows = [{"id": ident.strip(), "name": label.split(";")[0].split(",")[0].strip()}
                for ident, _, label in lines]
    else:
        rows = _walk(payload, reply.get("records", ""))
        if not isinstance(rows, (list, type(None))):
            raise TypeError(f"{reply.get('records')!r} holds {type(rows).__name__}, not a list")
    names, xrefs = reply.get("names", ()), reply.get("xrefs", {})
    reads_fields = any(path for path, _type in [*names, *xrefs.values()])
    records = []
    for i, row in enumerate((rows or [])[:limit]):
        if reads_fields and not isinstance(row, dict):
            raise TypeError(f"record {row!r} is not an object")
        name = None
        for path, leaf_type in names:
            if (name := _leaf(_walk(row, path), leaf_type, path)) is not None:
                break
        fields = {key: value for key, (path, leaf_type) in xrefs.items()
                  if (value := _leaf(_walk(row, path), leaf_type, path)) is not None}
        records.append((i, "" if name is None else reply.get("name_prefix", "") + name, fields))
    return records


def _walk(value, path: str):
    """The value at a dotted path (the empty path is `value` itself); None past a non-object."""
    for key in path.split(".") if path else ():
        value = value.get(key) if isinstance(value, dict) else None
    return value


def _leaf(value, leaf_type: str, path: str):
    """`value`, read at `path`, as a string (a list of them for `ids`); None when absent."""
    if value is None or value == "":
        return None
    if leaf_type == "ids":
        if isinstance(value, list) and all(isinstance(v, str) or type(v) is int for v in value):
            return [str(v) for v in value]
    elif isinstance(value, str) or (leaf_type == "id" and type(value) is int):
        return str(value)  # an integer id becomes a string
    raise TypeError(f"{path or 'the record'} holds {value!r}, not a valid {leaf_type} leaf")


class Federation:
    """Shareable facade over all registered knowledge-base clients."""

    def __init__(
        self,
        registry: dict[str, SourceDescriptor] | None = None,
        transport=None,
        clock=None,
        env=None,
    ):
        self.registry = registry or default_registry()
        clock = clock or SystemClock()
        limiter = RateLimiter(clock)
        self.clients: dict[str, KgClient] = {
            source_id: KgClient(descriptor, transport=transport, limiter=limiter,
                                clock=clock, env=env)
            for source_id, descriptor in self.registry.items()
        }

    @property
    def invocations(self) -> int:
        """Total fetch attempts so far, summed over every source's client."""
        return sum(c.attempts for c in self.clients.values())

    def client(self, source_id: str) -> KgClient:
        if source_id not in self.clients:
            raise InvalidQuery(f"unknown source {source_id!r}")
        return self.clients[source_id]

    def _fetch(self, source_id: str, operation: str, text: str, kind: str = "",
               limit: int | None = None) -> list[tuple[int, str, dict]]:
        """The records `source_id` answers to `operation`; raises `MalformedResponse`."""
        client = self.client(source_id)
        template = client.descriptor.operations.get(operation)
        if template is None:
            raise InvalidQuery(f"source {source_id!r} serves no {operation} requests")
        payload = client.fetch_with_policy(_request(template, text, kind, limit))
        try:
            return _read(payload, template.get("reply"), limit)
        except TypeError as exc:
            raise MalformedResponse(
                f"{source_id} sent a body its adapter cannot read: {exc}") from exc

    # -- unified entity search ------------------------------------------------

    def search_entities_unified(self, spec: QuerySpec) -> FetchResult:
        if not spec.text or not spec.text.strip():
            raise InvalidQuery("query text is empty")
        if spec.limit < 1:
            raise InvalidQuery("result cap must be >= 1")
        if not spec.sources:
            raise InvalidQuery("at least one source required")
        for source_id in spec.sources:
            if source_id not in self.registry:
                raise InvalidQuery(f"unknown source {source_id!r}")

        ordered = sorted(spec.sources, key=lambda s: self.registry[s].priority)
        statuses: list[SourceStatus] = []
        per_source: dict[str, list[UnifiedRecord]] = {}

        def run_one(source_id: str) -> list[UnifiedRecord] | FederationError:
            try:
                return [UnifiedRecord(name=name, xrefs=xrefs, rank=rank) for rank, name, xrefs
                        in self._fetch(source_id, "search", spec.text, spec.kind, spec.limit)]
            except FederationError as exc:
                return exc

        # the pool starts a thread per submitted source only, so a one-source search starts none
        with ThreadPoolExecutor(max_workers=min(MAX_WORKERS, len(ordered))) as pool:
            futures = [pool.submit(run_one, source_id) for source_id in ordered[1:]]
            outcomes = [run_one(ordered[0])] + [future.result() for future in futures]
        for source_id, outcome in zip(ordered, outcomes):
            if isinstance(outcome, FederationError):
                statuses.append(SourceStatus(source_id, ok=False, reason=str(outcome)))
                logger.warning("source %s failed: %s", source_id, outcome)
                continue
            for record in outcome:
                record.sources = [source_id]
            per_source[source_id] = outcome
            statuses.append(SourceStatus(source_id, ok=True))

        if not per_source:
            raise AllSourcesFailed(
                f"all of {list(spec.sources)} failed for {spec.text!r}"
            )

        merged: list[UnifiedRecord] = []
        for source_id in ordered:
            merged.extend(per_source.get(source_id, []))
        _merge_xrefs(merged)

        ok = sum(1 for s in statuses if s.ok)
        summary_lines = [
            f"# Unified {spec.kind} search: {spec.text}",
            f"{len(merged)} records from {ok}/{len(spec.sources)} sources",
        ]
        for record in merged[:5]:
            summary_lines.append(f"- {record.name} [{', '.join(record.sources)}]")
        for status in statuses:
            if not status.ok:
                summary_lines.append(f"! {status.source_id} failed: {status.reason}")

        return FetchResult(
            records=merged, summary="\n".join(summary_lines), statuses=statuses
        )

    # -- relation search --------------------------------------------------------

    def find_related_entities(self, entity: EntityRef,
                              predicate: str) -> list[tuple[EntityRef, list[str]]]:
        """Entities related to `entity` under a typed predicate, with PMID evidence."""
        source_id = self._serving("relations")
        rows = self._fetch(source_id, "relations", entity.curie or entity.name,
                           validate_predicate(predicate))
        return [
            (EntityRef(name=name, kind=_KIND_MAP.get(fields.get("kind", "").lower(), "FINDING"),
                       curie=fields.get("curie"), source=source_id), fields.get("pmids", []))
            for _rank, name, fields in rows
        ]

    # -- citation lookup ----------------------------------------------------------

    def fetch_citations(self, pmid: str) -> list[str]:
        """PMIDs cited by / citing the given paper, for citation-chain traversal."""
        return [name for _rank, name, _xrefs
                in self._fetch(self._serving("citations"), "citations", pmid)]

    def _serving(self, operation: str) -> str:
        """The highest-priority source whose registry entry declares `operation`."""
        serving = [d for d in self.registry.values() if operation in d.operations]
        if not serving:
            raise InvalidQuery(f"no registered source serves {operation} requests")
        return min(serving, key=lambda d: d.priority).source_id


def _merge_xrefs(records: list[UnifiedRecord]) -> None:
    """Union xref maps across records sharing any (namespace, id) pair.

    Uses union-find over shared ids; within each group, missing namespaces are
    adopted and namespaces with more than one distinct value are flagged in
    `xref_conflicts` with the contributing sources.
    """
    parent = list(range(len(records)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    owners: dict[tuple[str, str], int] = {}
    for i, record in enumerate(records):
        for namespace, value in record.xrefs.items():
            key = (namespace, str(value))
            if key in owners:
                union(i, owners[key])
            else:
                owners[key] = i

    groups: dict[int, list[int]] = {}
    for i in range(len(records)):
        groups.setdefault(find(i), []).append(i)

    for members in groups.values():
        if len(members) < 2:
            continue
        values: dict[str, dict[str, list[str]]] = {}
        for i in members:
            for namespace, value in records[i].xrefs.items():
                values.setdefault(namespace, {}).setdefault(str(value), [])
                for source in records[i].sources:
                    if source not in values[namespace][str(value)]:
                        values[namespace][str(value)].append(source)
        conflicts = [
            {
                "namespace": namespace,
                "values": [
                    {"value": value, "sources": sources}
                    for value, sources in sorted(variants.items())
                ],
            }
            for namespace, variants in sorted(values.items())
            if len(variants) > 1
        ]
        for i in members:
            for namespace, variants in values.items():
                if namespace not in records[i].xrefs and len(variants) == 1:
                    records[i].xrefs[namespace] = next(iter(variants))
            records[i].xref_conflicts = conflicts
