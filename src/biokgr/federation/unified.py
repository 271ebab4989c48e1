"""Unified multi-source entity search, relation search, and citation lookup.

`Federation` owns one client per registered source, all sharing one rate
limiter, one clock and one transport (the stateless `HttpTransport` unless
one is injected), fans searches out concurrently over at most `MAX_WORKERS`
threads, and merges per-source records into `UnifiedRecord`s
with deterministic ordering: source priority first, then the source's native
rank. Records from different sources that share a cross-reference id enrich
each other's xref maps; conflicting ids are never overwritten silently, they
are recorded side by side with their sources.
"""
from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from urllib.parse import quote

from biokgr import load_data
from biokgr.evidence import EntityRef
from biokgr.federation.client import FederationError, FetchRequest, InvalidQuery, KgClient
from biokgr.federation.descriptors import QuerySpec, SourceDescriptor, default_registry
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


class MalformedResponse(FederationError):
    """A source answered with a body its adapter cannot read (an HTML page, a wrong shape)."""


@dataclass
class UnifiedRecord:
    name: str
    xrefs: dict = field(default_factory=dict)            # namespace -> id
    sources: list[str] = field(default_factory=list)     # attribution, >= 1
    rank: int = 0                                        # source-native rank
    raw: dict = field(default_factory=dict)
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


# -- per-source response adapters ----------------------------------------------

def _adapt_mygene(payload, limit: int) -> list[UnifiedRecord]:
    records = []
    for i, hit in enumerate((payload or {}).get("hits", [])[:limit]):
        xrefs = {}
        if hit.get("entrezgene") is not None:
            xrefs["entrez"] = str(hit["entrezgene"])
        ensembl = hit.get("ensembl") or {}
        if isinstance(ensembl, dict) and ensembl.get("gene"):
            xrefs["ensembl"] = ensembl["gene"]
        if hit.get("symbol"):
            xrefs["symbol"] = hit["symbol"]
        records.append(
            UnifiedRecord(name=hit.get("symbol") or hit.get("name", ""), xrefs=xrefs,
                          rank=i, raw=hit)
        )
    return records


def _adapt_kegg(payload, limit: int) -> list[UnifiedRecord]:
    # KEGG replies in TSV: "hsa:7157\tTP53, BCC7; tumor protein p53"
    records = []
    text = payload if isinstance(payload, str) else ""
    for i, line in enumerate(line for line in text.splitlines() if line.strip()):
        if i >= limit:
            break
        ident, _, label = line.partition("\t")
        name = label.split(";")[0].split(",")[0].strip() or ident
        records.append(
            UnifiedRecord(name=name, xrefs={"kegg": ident.strip()}, rank=i,
                          raw={"line": line})
        )
    return records


def _adapt_pubmed(payload, limit: int) -> list[UnifiedRecord]:
    ids = ((payload or {}).get("esearchresult") or {}).get("idlist", [])
    return [
        UnifiedRecord(name=f"PMID:{pmid}", xrefs={"pmid": str(pmid)}, rank=i,
                      raw={"pmid": pmid})
        for i, pmid in enumerate(ids[:limit])
    ]


def _adapt_pubtator(payload, limit: int) -> list[UnifiedRecord]:
    records = []
    for i, hit in enumerate((payload or {}).get("results", [])[:limit]):
        xrefs = {}
        if hit.get("curie"):
            xrefs["curie"] = hit["curie"]
        if hit.get("entrez"):
            xrefs["entrez"] = str(hit["entrez"])
        records.append(
            UnifiedRecord(name=hit.get("name", ""), xrefs=xrefs, rank=i, raw=hit)
        )
    return records


def _adapt_clinicaltrials(payload, limit: int) -> list[UnifiedRecord]:
    records = []
    for i, study in enumerate((payload or {}).get("studies", [])[:limit]):
        ident = ((study.get("protocolSection") or {}).get("identificationModule") or {})
        nct = ident.get("nctId", "")
        records.append(
            UnifiedRecord(name=ident.get("briefTitle") or nct,
                          xrefs={"nct": nct} if nct else {}, rank=i, raw=study)
        )
    return records


def _adapt_generic(payload, limit: int) -> list[UnifiedRecord]:
    if not isinstance(payload, dict):
        return []
    rows = payload.get("results") or payload.get("hits") or []
    records = []
    for i, row in enumerate(rows[:limit]):
        if not isinstance(row, dict):
            continue
        xrefs = {k: str(v) for k, v in row.items() if k.endswith("_id") or k in ("id",)}
        records.append(
            UnifiedRecord(name=str(row.get("name") or row.get("id") or ""), xrefs=xrefs,
                          rank=i, raw=row)
        )
    return records


def _adapt_opentargets(payload, limit: int) -> list[UnifiedRecord]:
    hits = (((payload or {}).get("data") or {}).get("search") or {}).get("hits", [])
    return [
        UnifiedRecord(name=hit.get("name", ""), xrefs={"opentargets": hit.get("id", "")},
                      rank=i, raw=hit)
        for i, hit in enumerate(hits[:limit])
    ]


def _adapt_relations(payload, source_id: str) -> list[tuple[EntityRef, list[str]]]:
    related: list[tuple[EntityRef, list[str]]] = []
    for row in (payload or {}).get("relations", []):
        kind = _KIND_MAP.get(str(row.get("kind", "")).lower(), "FINDING")
        ref = EntityRef(
            name=row.get("name", ""),
            kind=kind,
            curie=row.get("curie"),
            source=source_id,
        )
        pmids = [str(p) for p in row.get("pmids", [])]
        related.append((ref, pmids))
    return related


def _adapt_citations(payload) -> list[str]:
    return [str(p) for p in payload.get("citations") or payload.get("linked") or []]


ADAPTERS = {
    "mygene": _adapt_mygene,
    "kegg": _adapt_kegg,
    "pubmed": _adapt_pubmed,
    "pubtator": _adapt_pubtator,
    "clinicaltrials": _adapt_clinicaltrials,
    "opentargets": _adapt_opentargets,
}


def _search_request(descriptor: SourceDescriptor, spec: QuerySpec) -> FetchRequest:
    if descriptor.protocol == "graphql":
        # parameterized query template shipped as a data file
        body = json.dumps({
            "query": load_data(f"graphql/{descriptor.source_id}_search.graphql"),
            "variables": {"queryString": spec.text, "entityNames": [spec.kind],
                          "size": spec.limit},
        }, sort_keys=True)
        return FetchRequest(path=descriptor.search_path, method="POST", body=body,
                            headers={"Content-Type": "application/json"})
    if descriptor.source_id == "kegg":
        db = {"gene": "genes", "drug": "drug", "chemical": "compound",
              "pathway": "pathway"}.get(spec.kind, "genes")
        # http.client rejects a space or a non-ASCII character in the path;
        # reserved characters such as "/" and "+" go through as they are
        text = quote(spec.text, safe="!#$&'()*+,/:;=?@[]~")
        return FetchRequest(path=f"{descriptor.search_path}/{db}/{text}")
    if descriptor.source_id == "pubmed":
        return FetchRequest(
            path=descriptor.search_path,
            params={"db": "pubmed", "term": spec.text, "retmode": "json",
                    "retmax": spec.limit},
        )
    if descriptor.source_id == "clinicaltrials":
        return FetchRequest(
            path=descriptor.search_path,
            params={"query.term": spec.text, "pageSize": spec.limit},
        )
    if descriptor.source_id == "mygene":
        return FetchRequest(
            path=descriptor.search_path,
            params={"q": spec.text, "size": spec.limit},
        )
    return FetchRequest(path=descriptor.search_path, params={"q": spec.text, "limit": spec.limit})


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

    def _fetch(self, source_id: str, request: FetchRequest, adapter, *args):
        """`adapter(body, *args)` on the answer to `request`; raises `MalformedResponse`."""
        payload = self.client(source_id).fetch_with_policy(request)
        try:
            return adapter(payload, *args)
        except (AttributeError, TypeError) as exc:
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

        def run_one(source_id: str):
            request = _search_request(self.registry[source_id], spec)
            return self._fetch(source_id, request, ADAPTERS.get(source_id, _adapt_generic),
                               spec.limit)

        with ThreadPoolExecutor(max_workers=min(MAX_WORKERS, len(ordered))) as pool:
            futures = {source_id: pool.submit(run_one, source_id) for source_id in ordered}
            for source_id in ordered:
                try:
                    records = futures[source_id].result()
                except FederationError as exc:
                    statuses.append(SourceStatus(source_id, ok=False, reason=str(exc)))
                    logger.warning("source %s failed: %s", source_id, exc)
                    continue
                for record in records:
                    record.sources = [source_id]
                per_source[source_id] = records
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

    def find_related_entities(
        self, entity: EntityRef, predicate: str, source_id: str = "pubtator",
    ) -> list[tuple[EntityRef, list[str]]]:
        """Entities related to `entity` under a typed predicate, with PMID evidence."""
        predicate = validate_predicate(predicate)
        request = FetchRequest(
            path="/relations",
            params={"e1": entity.curie or entity.name, "type": predicate},
        )
        return self._fetch(source_id, request, _adapt_relations, source_id)

    # -- citation lookup ----------------------------------------------------------

    def fetch_citations(self, pmid: str, source_id: str = "pubmed") -> list[str]:
        """PMIDs cited by / citing the given paper, for citation-chain traversal."""
        request = FetchRequest(path="/elink.fcgi",
                               params={"dbfrom": "pubmed", "id": pmid, "retmode": "json"})
        return self._fetch(source_id, request, _adapt_citations)


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
