"""Unified multi-source entity search, relation search, and citation lookup.

Sources are registry entries (see `descriptors`): `Federation` builds every
request from the entry's template for the operation and reads every reply
through one checked reader, `_read`, so no source has code of its own. A
reply the reader cannot follow, or a leaf of the wrong type, raises
`MalformedResponse`, which fails that source alone.

Every request, the `HttpOracle`'s included, leaves through `Federation.fetch`,
which (1) checks credentials for the source's auth mode, (2) acquires a
rate-limit slot for the host, (3) retries transient failures under the one
policy every source shares (`MAX_ATTEMPTS` attempts, exponential backoff from
`BACKOFF_S`, or the reply's `Retry-After` when that is longer), and (4) parses
the body (JSON when possible, text otherwise). It is also the one reader of
the deployment environment: ``BIOKGR_<SOURCE>_URL`` overrides an entry's
endpoint, and ``<SOURCE>_API_KEY`` holds an api-key source's key. Each
dispatched attempt adds one to `invocations`, under a lock, since worker
threads share the federation. One rate limiter, clock and transport serve
every source (an `HttpTransport`, which opens a fresh connection per request,
unless one is injected).

A search fans out concurrently over the distinct sources it names, taken in
registry order: the first runs on the caller's thread and the others on at
most `MAX_WORKERS` threads. A one-source search, which is every BFRS call,
builds no pool and starts no thread. It merges per-source records into
`UnifiedRecord`s with deterministic ordering: registry order first, then the
source's native rank. Records from different sources that share a
cross-reference id enrich each other's xref maps; conflicting ids are never
overwritten silently, they are recorded side by side with their sources.
"""
from __future__ import annotations

import json
import logging
import os
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from urllib.parse import quote

from biokgr import load_data, parse_json
from biokgr.evidence import EntityRef
from biokgr.federation.client import (
    AuthMissing, FederationError, FetchRequest, HttpTransport, InvalidQuery, MalformedResponse,
    RawResponse, RequestFailed, SourceUnavailable, TransportError, header, redact)
from biokgr.federation.descriptors import (
    SLOT, QuerySpec, SourceDescriptor, default_registry, validate_predicate)
from biokgr.federation.ratelimit import RateLimiter, SystemClock

logger = logging.getLogger(__name__)

MAX_WORKERS = 6
TRANSIENT_STATUSES = {429, 500, 502, 503, 504}
RETRY_AFTER_STATUSES = {429, 503}
MAX_RETRY_AFTER_S = 60.0  # the longest `Retry-After` wait honoured
MAX_ATTEMPTS = 3  # per request, the first included
BACKOFF_S = 0.5  # the wait before retry n is BACKOFF_S * 2**(n-1)

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

def _fill(value, values: dict):
    """A template `value` with each slot replaced by its entry in `values`."""
    if isinstance(value, dict):
        if set(value) == {"file"}:
            return load_data(value["file"])
        return {key: _fill(item, values) for key, item in value.items()}
    if isinstance(value, list):
        return [_fill(item, values) for item in value]
    if not isinstance(value, str):  # a literal number, boolean or null
        return value
    lone = SLOT.fullmatch(value)  # keeps the value's type: an integer limit stays one
    return values[lone[1]] if lone else SLOT.sub(lambda m: str(values[m[1]]), value)


def _request(template: dict, text: str, kind: str = "", limit: int | None = None) -> FetchRequest:
    """`template` with its slots filled; a slot in the path is percent-encoded."""
    kinds = template.get("kinds", {})
    values = {"text": text, "limit": limit, "kind": kinds.get(kind, kinds.get("*", kind))}
    # the transport refuses a space or a non-ASCII character in the URL;
    # reserved characters such as "/" and "+" go through as they are
    path = SLOT.sub(lambda m: quote(str(values[m[1]]), safe="!#$&'()*+,/:;=?@[]~"),
                    template["path"])
    body = template.get("body")
    return FetchRequest(
        path=path, params=_fill(template.get("params", {}), values),
        method=template.get("method", "GET"),
        body=None if body is None else json.dumps(_fill(body, values), sort_keys=True),
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
        rows = _walk(payload, _keys(reply.get("records", "")))
        if not isinstance(rows, (list, type(None))):
            raise TypeError(f"{reply.get('records')!r} holds {type(rows).__name__}, not a list")
    # each path split once per reply, not once per record
    names = [(_keys(path), leaf_type, path) for path, leaf_type in reply.get("names", ())]
    xrefs = [(key, _keys(path), leaf_type, path)
             for key, (path, leaf_type) in reply.get("xrefs", {}).items()]
    reads_fields = any(path for *_, path in [*names, *xrefs])
    prefix = reply.get("name_prefix", "")
    records = []
    for i, row in enumerate((rows or [])[:limit]):
        if reads_fields and not isinstance(row, dict):
            raise TypeError(f"record {row!r} is not an object")
        name = None
        for keys, leaf_type, path in names:
            if (name := _leaf(_walk(row, keys), leaf_type, path)) is not None:
                break
        fields = {key: value for key, keys, leaf_type, path in xrefs
                  if (value := _leaf(_walk(row, keys), leaf_type, path)) is not None}
        records.append((i, "" if name is None else prefix + name, fields))
    return records


def _keys(path: str) -> list[str]:
    """The keys of a dotted path; none for the empty path."""
    return path.split(".") if path else []


def _walk(value, keys: list[str]):
    """The value under `keys` (`value` itself for none); None past a non-object."""
    for key in keys:
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
    """Shareable facade over every registered knowledge-base source."""

    def __init__(
        self,
        registry: dict[str, SourceDescriptor] | None = None,
        transport=None,
        clock=None,
        env=None,
    ):
        self.registry = default_registry() if registry is None else registry
        self._clock = clock or SystemClock()
        self._transport = transport or HttpTransport()
        self._limiter = RateLimiter(self._clock)
        self._env = env if env is not None else os.environ
        self.invocations = 0  # attempts dispatched, retries included
        self._invocations_lock = threading.Lock()

    def fetch(self, source_id: str, request: FetchRequest):
        """Send `request` to `source_id` under its auth and rate limit and the shared retry
        policy; returns the parsed body."""
        descriptor = self.registry.get(source_id)
        if descriptor is None:
            raise InvalidQuery(f"unknown source {source_id!r}")
        params = dict(request.params)
        if descriptor.auth != "none":
            key_env = f"{source_id.upper()}_API_KEY"
            if not self._env.get(key_env):
                raise AuthMissing(f"source {source_id!r} uses {descriptor.auth} auth; "
                                  f"set {key_env} in the environment")
            params["api_key"] = self._env[key_env]
        base = (self._env.get(f"BIOKGR_{source_id.upper()}_URL")
                or descriptor.base_url).rstrip("/")
        url = base + request.path
        host = _host(base)
        min_interval = 1.0 / descriptor.rate_limit_per_sec

        last_reason = ""
        for attempt in range(1, MAX_ATTEMPTS + 1):
            asked = 0.0
            self._limiter.acquire(host, min_interval)
            with self._invocations_lock:
                self.invocations += 1
            try:
                response = self._transport.send(
                    request.method, url, params, dict(request.headers), request.body
                )
            except TransportError as exc:
                last_reason = f"transport: {exc}"
                logger.debug("attempt %d against %s failed: %s", attempt, host, exc)
            else:
                if response.status < 400:
                    return parse_body(response)
                if response.status not in TRANSIENT_STATUSES:
                    raise RequestFailed(
                        f"{redact(url)} returned HTTP {response.status}", status=response.status
                    )
                last_reason = f"HTTP {response.status}"
                if response.status in RETRY_AFTER_STATUSES:
                    asked = min(_retry_after(response.headers), MAX_RETRY_AFTER_S)
            if attempt < MAX_ATTEMPTS:
                self._clock.sleep(max(BACKOFF_S * 2 ** (attempt - 1), asked))
        raise SourceUnavailable(host=host, attempts=MAX_ATTEMPTS, reason=last_reason)

    def _query(self, source_id: str, operation: str, text: str, kind: str = "",
               limit: int | None = None) -> list[tuple[int, str, dict]]:
        """The records `source_id` answers to `operation`; raises `MalformedResponse`."""
        template = self.registry[source_id].operations.get(operation)
        if template is None:
            raise InvalidQuery(f"source {source_id!r} serves no {operation} requests")
        payload = self.fetch(source_id, _request(template, text, kind, limit))
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

        ordered = [source_id for source_id in self.registry if source_id in spec.sources]
        statuses: list[SourceStatus] = []
        per_source: dict[str, list[UnifiedRecord]] = {}

        def run_one(source_id: str) -> list[UnifiedRecord] | FederationError:
            try:
                return [UnifiedRecord(name=name, xrefs=xrefs, rank=rank) for rank, name, xrefs
                        in self._query(source_id, "search", spec.text, spec.kind, spec.limit)]
            except FederationError as exc:
                return exc

        if len(ordered) == 1:  # every BFRS call: no pool and no thread
            outcomes = [run_one(ordered[0])]
        else:
            with ThreadPoolExecutor(max_workers=min(MAX_WORKERS, len(ordered) - 1)) as pool:
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
            raise AllSourcesFailed(f"all of {ordered} failed for {spec.text!r}")

        merged: list[UnifiedRecord] = []
        for source_id in ordered:
            merged.extend(per_source.get(source_id, []))
        _merge_xrefs(merged)

        ok = sum(1 for s in statuses if s.ok)
        summary_lines = [
            f"# Unified {spec.kind} search: {spec.text}",
            f"{len(merged)} records from {ok}/{len(ordered)} sources",
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
        rows = self._query(source_id, "relations", entity.curie or entity.name,
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
                in self._query(self._serving("citations"), "citations", pmid)]

    def _serving(self, operation: str) -> str:
        """The first registry entry that declares `operation`."""
        for descriptor in self.registry.values():
            if operation in descriptor.operations:
                return descriptor.source_id
        raise InvalidQuery(f"no registered source serves {operation} requests")


def _host(base: str) -> str:
    """`base`'s host and port, without userinfo: the rate-limit key and the name in messages."""
    authority = re.split(r"[/?#]", base.split("//", 1)[-1], maxsplit=1)[0]
    return authority.rpartition("@")[2]


def _retry_after(headers: dict) -> float:
    """The seconds a `Retry-After` field asks for: delta-seconds, or an HTTP-date less the
    reply's own `Date`, so that the injected clock stays the only time source; 0 when absent
    or unreadable."""
    value = (header(headers, "retry-after") or "").strip()
    if value.isascii() and value.isdigit():
        return float(value)
    date = header(headers, "date")
    if not value or not date:
        return 0.0
    from email.utils import parsedate_to_datetime  # deferred: only an HTTP-date needs it

    try:
        asked = parsedate_to_datetime(value) - parsedate_to_datetime(date)
    except (TypeError, ValueError):  # an unreadable date, or one with a zone and one without
        return 0.0
    return max(0.0, asked.total_seconds())


def parse_body(response: RawResponse):
    """JSON bodies become dicts/lists; anything else stays text. JSON nested too
    deeply to decode raises `MalformedResponse`."""
    content_type = (header(response.headers, "content-type") or "").lower()
    body = response.body
    if "json" in content_type or body.lstrip()[:1] in ("{", "["):
        try:
            return parse_json(body)
        except json.JSONDecodeError:
            pass
        except ValueError as exc:
            raise MalformedResponse(f"reply {exc}") from exc
    return body


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
