"""Federation contracts: boolean queries, rate limiting, retries, unified search."""
import json
import math
import os
import threading
import time
from pathlib import Path

import pytest

from biokgr.evidence import EntityRef
from biokgr.federation import (
    AllSourcesFailed,
    AuthMissing,
    Federation,
    FetchRequest,
    InvalidQuery,
    KgClient,
    QuerySpec,
    RateLimiter,
    RetryPolicy,
    SourceDescriptor,
    SourceUnavailable,
    UnsupportedEntityType,
    WorkspaceUnavailable,
    build_boolean_query,
    default_registry,
    load_records,
    persist_results,
)
from biokgr.federation.client import RawResponse, RequestFailed, TransportError
from biokgr.federation.mockserver import FixtureServer, MockResponse
from biokgr.federation.unified import UnifiedRecord


class FakeClock:
    """Deterministic, thread-safe clock; sleep() advances time."""

    def __init__(self):
        self._now = 0.0
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, seconds: float) -> None:
        with self._lock:
            self._now += max(seconds, 1e-6)


class ScriptedTransport:
    """Returns queued responses; records every send."""

    def __init__(self, responses=None, default=None):
        self.responses = list(responses or [])
        self.default = default
        self.sent = []

    def send(self, method, url, params, headers, body):
        self.sent.append((method, url, dict(params or {})))
        if self.responses:
            item = self.responses.pop(0)
        else:
            item = self.default
        if item is None:
            raise TransportError("no scripted response")
        if isinstance(item, Exception):
            raise item
        return item


def json_response(payload, status=200):
    return RawResponse(status=status, body=json.dumps(payload),
                       headers={"Content-Type": "application/json"})


def descriptor(source_id="mock", rate=1000.0, attempts=3, **kwargs):
    return SourceDescriptor(
        source_id=source_id,
        base_url=f"http://{source_id}.test",
        rate_limit_per_sec=rate,
        retry=RetryPolicy(max_attempts=attempts, backoff_seconds=0.01),
        **kwargs,
    )


# -- boolean queries -------------------------------------------------------------

def test_boolean_query_rendering():
    query = build_boolean_query(
        [("CHEMICAL", "remdesivir"), ("DISEASE", "COVID 19")], ["and"]
    )
    assert query == "@CHEMICAL_remdesivir AND @DISEASE_COVID_19"


def test_boolean_query_single_term():
    assert build_boolean_query([("GENE", "TP53")]) == "@GENE_TP53"


def test_boolean_query_hyphen_mapping():
    assert build_boolean_query([("DISEASE", "COVID-19")]) == "@DISEASE_COVID_19"


def test_boolean_query_unsupported_type():
    with pytest.raises(UnsupportedEntityType):
        build_boolean_query([("PLANET", "mars")])


# -- rate limiting -----------------------------------------------------------------

def test_rate_limiter_spacing_sequential():
    clock = FakeClock()
    limiter = RateLimiter(clock)
    first = limiter.acquire("host", 1.0)
    second = limiter.acquire("host", 1.0)
    assert second - first >= 1.0


def test_rate_limiter_spacing_under_concurrency():
    clock = FakeClock()
    limiter = RateLimiter(clock)
    grants = []
    lock = threading.Lock()

    def worker():
        for _ in range(5):
            t = limiter.acquire("shared-host", 0.5)
            with lock:
                grants.append(t)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    grants.sort()
    assert len(grants) == 40
    spacings = [b - a for a, b in zip(grants, grants[1:])]
    assert all(s >= 0.5 - 1e-9 for s in spacings)


def test_rate_limiter_hosts_independent():
    clock = FakeClock()
    limiter = RateLimiter(clock)
    a = limiter.acquire("a", 10.0)
    b = limiter.acquire("b", 10.0)
    assert abs(a - b) < 10.0  # no cross-host serialization


def test_client_spaces_back_to_back_requests():
    clock = FakeClock()
    sent_at = []

    class StampingTransport:
        def send(self, method, url, params, headers, body):
            sent_at.append(clock.now())
            return json_response({"ok": True})

    client = KgClient(descriptor(rate=1.0), transport=StampingTransport(), clock=clock,
                      limiter=RateLimiter(clock), env={})
    client.fetch_with_policy(FetchRequest(path="/x"))
    client.fetch_with_policy(FetchRequest(path="/x"))
    t1, t2 = sent_at
    assert t2 - t1 >= 1.0


def test_attempt_counter_is_exact_under_concurrent_fetches():
    transport = ScriptedTransport(default=json_response({"ok": True}))
    clock = FakeClock()
    client = KgClient(descriptor(rate=math.inf), transport=transport, clock=clock,
                      limiter=RateLimiter(clock), env={})

    def yield_between_opcodes(frame, event, arg):
        # The interpreter may not switch threads inside `attempts += 1` on its
        # own; offering a switch between every bytecode of the fetch makes a
        # lost update show whenever the increment is not under the lock.
        if event == "call":
            if frame.f_code is not KgClient.fetch_with_policy.__code__:
                return None
            frame.f_trace_opcodes = True
        elif event == "opcode":
            time.sleep(0)
        return yield_between_opcodes

    def worker():
        for _ in range(25):
            client.fetch_with_policy(FetchRequest(path="/x"))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    threading.settrace(yield_between_opcodes)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        threading.settrace(None)
    assert not any(t.is_alive() for t in threads)
    assert len(transport.sent) == 200
    assert client.attempts == 200


# -- retry policy ---------------------------------------------------------------------

def test_retry_then_success():
    clock = FakeClock()
    transport = ScriptedTransport(
        responses=[json_response({}, status=500), json_response({"ok": 1})]
    )
    client = KgClient(descriptor(attempts=2), transport=transport, clock=clock,
                      limiter=RateLimiter(clock), env={})
    assert client.fetch_with_policy(FetchRequest(path="/x")) == {"ok": 1}
    assert client.attempts == 2


def test_retry_exhaustion():
    clock = FakeClock()
    transport = ScriptedTransport(
        responses=[json_response({}, status=500), json_response({}, status=500)]
    )
    client = KgClient(descriptor(attempts=2), transport=transport, clock=clock,
                      limiter=RateLimiter(clock), env={})
    with pytest.raises(SourceUnavailable) as excinfo:
        client.fetch_with_policy(FetchRequest(path="/x"))
    assert excinfo.value.attempts == 2
    assert excinfo.value.host == "mock.test"


def test_nontransient_error_not_retried():
    clock = FakeClock()
    transport = ScriptedTransport(responses=[json_response({}, status=404)])
    client = KgClient(descriptor(attempts=3), transport=transport, clock=clock,
                      limiter=RateLimiter(clock), env={})
    with pytest.raises(RequestFailed):
        client.fetch_with_policy(FetchRequest(path="/x"))
    assert client.attempts == 1


def test_transport_errors_are_transient():
    clock = FakeClock()
    transport = ScriptedTransport(
        responses=[TransportError("boom"), json_response({"ok": 1})]
    )
    client = KgClient(descriptor(attempts=2), transport=transport, clock=clock,
                      limiter=RateLimiter(clock), env={})
    assert client.fetch_with_policy(FetchRequest(path="/x")) == {"ok": 1}


def test_auth_missing():
    clock = FakeClock()
    transport = ScriptedTransport(default=json_response({}))
    desc = descriptor(auth="api-key", api_key_env="MOCK_KEY")
    client = KgClient(desc, transport=transport, clock=clock,
                      limiter=RateLimiter(clock), env={})
    with pytest.raises(AuthMissing):
        client.fetch_with_policy(FetchRequest(path="/x"))
    client2 = KgClient(desc, transport=transport, clock=clock,
                       limiter=RateLimiter(clock), env={"MOCK_KEY": "k"})
    assert client2.fetch_with_policy(FetchRequest(path="/x")) == {}


# -- unified search --------------------------------------------------------------------

def two_source_registry():
    return {
        "mygene": SourceDescriptor(
            source_id="mygene", base_url="http://mygene.test", priority=1,
            rate_limit_per_sec=1000, search_path="/query",
            retry=RetryPolicy(max_attempts=1),
        ),
        "kegg": SourceDescriptor(
            source_id="kegg", base_url="http://kegg.test", priority=2,
            rate_limit_per_sec=1000, protocol="flat-file", search_path="/find",
            retry=RetryPolicy(max_attempts=1),
        ),
    }


class RoutedTransport:
    """Dispatch scripted responses by URL substring."""

    def __init__(self, routes):
        self.routes = routes
        self.sent = []

    def send(self, method, url, params, headers, body):
        self.sent.append(url)
        for key, item in self.routes.items():
            if key in url:
                if isinstance(item, Exception):
                    raise item
                return item
        return RawResponse(status=404, body="{}")


def mygene_payload():
    return {"hits": [{"symbol": "TP53", "name": "tumor protein p53",
                      "entrezgene": 7157, "ensembl": {"gene": "ENSG00000141510"}}]}


def kegg_payload():
    return RawResponse(status=200, body="hsa:7157\tTP53, BCC7; tumor protein p53",
                       headers={"Content-Type": "text/plain"})


def make_federation(routes):
    return Federation(
        registry=two_source_registry(),
        transport=RoutedTransport(routes),
        clock=FakeClock(),
        env={},
    )


def test_unified_search_merges_and_attributes():
    federation = make_federation(
        {"mygene.test": json_response(mygene_payload()), "kegg.test": kegg_payload()}
    )
    spec = QuerySpec(kind="gene", text="TP53", sources=("mygene", "kegg"))
    result = federation.search_entities_unified(spec)
    assert len(result.records) == 2
    assert [r.sources for r in result.records] == [["mygene"], ["kegg"]]
    assert all(len(r.sources) >= 1 for r in result.records)
    # no shared ids between the two mocks: no cross-enrichment expected
    assert result.records[0].xrefs["entrez"] == "7157"
    assert result.records[1].xrefs["kegg"] == "hsa:7157"


def test_unified_search_xref_enrichment_on_matching_ids():
    payload_a = {"hits": [{"symbol": "TP53", "entrezgene": 7157,
                           "ensembl": {"gene": "ENSG00000141510"}}]}
    payload_b = {"results": [{"name": "TP53", "id": "7157", "hgnc_id": "HGNC:11998"}]}
    registry = two_source_registry()
    registry["generic"] = SourceDescriptor(
        source_id="generic", base_url="http://generic.test", priority=3,
        rate_limit_per_sec=1000, retry=RetryPolicy(max_attempts=1),
    )
    federation = Federation(
        registry=registry,
        transport=RoutedTransport({
            "mygene.test": json_response(payload_a),
            "generic.test": json_response(payload_b),
        }),
        clock=FakeClock(),
        env={},
    )
    # generic adapter lifts "id" into xrefs; rename to entrez via raw:: use id key
    spec = QuerySpec(kind="gene", text="TP53", sources=("mygene", "generic"))
    result = federation.search_entities_unified(spec)
    assert len(result.records) == 2


def test_unified_search_conflicting_ids_recorded_side_by_side():
    records = [
        UnifiedRecord(name="TP53", xrefs={"symbol": "TP53", "entrez": "7157"},
                      sources=["a"]),
        UnifiedRecord(name="TP53", xrefs={"symbol": "TP53", "entrez": "9999"},
                      sources=["b"]),
    ]
    from biokgr.federation.unified import _merge_xrefs

    _merge_xrefs(records)
    assert records[0].xrefs["entrez"] == "7157"  # never overwritten
    assert records[1].xrefs["entrez"] == "9999"
    conflict = records[0].xref_conflicts[0]
    assert conflict["namespace"] == "entrez"
    values = {v["value"]: v["sources"] for v in conflict["values"]}
    assert values == {"7157": ["a"], "9999": ["b"]}


def test_unified_search_partial_failure():
    federation = make_federation(
        {"mygene.test": json_response(mygene_payload()),
         "kegg.test": TransportError("timeout")}
    )
    spec = QuerySpec(kind="gene", text="TP53", sources=("mygene", "kegg"))
    result = federation.search_entities_unified(spec)
    assert len(result.records) == 1
    failed = [s for s in result.statuses if not s.ok]
    assert [s.source_id for s in failed] == ["kegg"]


def test_unified_search_all_failed():
    federation = make_federation(
        {"mygene.test": TransportError("x"), "kegg.test": TransportError("y")}
    )
    spec = QuerySpec(kind="gene", text="TP53", sources=("mygene", "kegg"))
    with pytest.raises(AllSourcesFailed):
        federation.search_entities_unified(spec)


def test_unified_search_empty_query():
    federation = make_federation({})
    with pytest.raises(InvalidQuery):
        federation.search_entities_unified(
            QuerySpec(kind="gene", text="  ", sources=("mygene",))
        )


def test_unified_search_deterministic_ordering():
    routes = {"mygene.test": json_response(mygene_payload()), "kegg.test": kegg_payload()}
    spec = QuerySpec(kind="gene", text="TP53", sources=("kegg", "mygene"))
    names_1 = [r.name for r in make_federation(routes).search_entities_unified(spec).records]
    names_2 = [r.name for r in make_federation(routes).search_entities_unified(spec).records]
    assert names_1 == names_2
    # priority order puts mygene first even though kegg was listed first
    assert names_1[0] == "TP53"


# -- relation search -------------------------------------------------------------------

def relations_payload():
    return {
        "relations": [
            {"name": "drugA", "kind": "chemical", "curie": "CHEBI:1234",
             "pmids": [111, 222]},
        ]
    }


def test_find_related_entities():
    registry = two_source_registry()
    registry["pubtator"] = SourceDescriptor(
        source_id="pubtator", base_url="http://pubtator.test", priority=0,
        rate_limit_per_sec=1000, retry=RetryPolicy(max_attempts=1),
    )
    federation = Federation(
        registry=registry,
        transport=RoutedTransport({"pubtator.test": json_response(relations_payload())}),
        clock=FakeClock(),
        env={},
    )
    disease = EntityRef(name="disease X", kind="DISEASE_PHENOTYPE", source="t")
    related = federation.find_related_entities(disease, "TREAT")
    assert len(related) == 1
    ref, pmids = related[0]
    assert ref.name == "drugA" and ref.kind == "CHEMICAL_DRUG"
    assert pmids == ["111", "222"]


def test_find_related_unknown_predicate():
    federation = make_federation({})
    disease = EntityRef(name="disease X", kind="DISEASE_PHENOTYPE", source="t")
    with pytest.raises(InvalidQuery):
        federation.find_related_entities(disease, "BLOCKS")


def test_find_related_empty():
    registry = two_source_registry()
    registry["pubtator"] = SourceDescriptor(
        source_id="pubtator", base_url="http://pubtator.test", priority=0,
        rate_limit_per_sec=1000, retry=RetryPolicy(max_attempts=1),
    )
    federation = Federation(
        registry=registry,
        transport=RoutedTransport({"pubtator.test": json_response({"relations": []})}),
        clock=FakeClock(),
        env={},
    )
    entity = EntityRef(name="lonely", kind="GENE_PROTEIN", source="t")
    assert federation.find_related_entities(entity, "INTERACT") == []


# -- persistence -----------------------------------------------------------------------

def sample_records():
    return [
        UnifiedRecord(name="TP53", xrefs={"entrez": "7157"}, sources=["mygene"]),
        UnifiedRecord(name="MDM2", xrefs={"entrez": "4193"}, sources=["mygene"]),
        UnifiedRecord(name="CDKN1A", xrefs={"entrez": "1026"}, sources=["kegg"]),
    ]


def test_persist_writes_three_files(tmp_path):
    manifest = persist_results(sample_records(), tmp_path, stem="genes")
    for path in manifest.values():
        assert os.path.exists(path)
    md_text = Path(manifest["md"]).read_text(encoding="utf-8")
    assert "3 results" in md_text


def test_persist_roundtrip(tmp_path):
    records = sample_records()
    manifest = persist_results(records, tmp_path)
    loaded = load_records(manifest["json"])
    assert len(loaded) == len(records)
    assert [r["name"] for r in loaded] == [r.name for r in records]
    assert [r["xrefs"] for r in loaded] == [r.xrefs for r in records]


def test_persist_empty_records(tmp_path):
    manifest = persist_results([], tmp_path)
    assert "0 results" in Path(manifest["md"]).read_text(encoding="utf-8")
    assert load_records(manifest["json"]) == []


def test_persist_unwritable_directory(tmp_path):
    # a regular file in the directory position fails mkdir/open even for root
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    with pytest.raises(WorkspaceUnavailable):
        persist_results(sample_records(), blocker / "sub")


# -- mock HTTP server integration --------------------------------------------------------

def test_end_to_end_against_mock_server():
    server = FixtureServer()
    server.add_json("/query", mygene_payload())
    base = server.start()
    try:
        registry = {
            "mygene": SourceDescriptor(
                source_id="mygene", base_url="http://mygene.test", priority=1,
                rate_limit_per_sec=1000, search_path="/query",
                retry=RetryPolicy(max_attempts=2, backoff_seconds=0.0),
            )
        }
        federation = Federation(registry=registry, env={"BIOKGR_MYGENE_URL": base})
        result = federation.search_entities_unified(
            QuerySpec(kind="gene", text="TP53", sources=("mygene",))
        )
        assert result.records[0].name == "TP53"
        assert server.request_log[0].path == "/query"
    finally:
        server.stop()


def test_mock_server_retry_sequence():
    server = FixtureServer()
    server.add_sequence(
        "/query",
        [MockResponse.json({}, status=500), MockResponse.json(mygene_payload())],
    )
    base = server.start()
    try:
        desc = SourceDescriptor(
            source_id="mygene", base_url=base, rate_limit_per_sec=1000,
            search_path="/query", retry=RetryPolicy(max_attempts=2, backoff_seconds=0.0),
        )
        client = KgClient(desc, env={})
        payload = client.fetch_with_policy(FetchRequest(path="/query", params={"q": "TP53"}))
        assert payload["hits"][0]["symbol"] == "TP53"
        assert server.route_hits("/query") == 2
    finally:
        server.stop()


def test_default_registry_loads_and_validates():
    registry = default_registry()
    assert {"pubmed", "pubtator", "kegg", "mygene", "clinicaltrials"} <= set(registry)
    assert len(registry) >= 15
    assert all(d.rate_limit_per_sec > 0 for d in registry.values())
    assert all(d.retry.max_attempts >= 1 for d in registry.values())


def test_graphql_source_uses_parameterized_template():
    captured = {}

    class CapturingTransport:
        def send(self, method, url, params, headers, body):
            captured.update({"method": method, "url": url, "body": body})
            return json_response({
                "data": {"search": {"hits": [
                    {"id": "ENSG00000141510", "entity": "target", "name": "TP53"},
                ]}}
            })

    registry = {
        "opentargets": SourceDescriptor(
            source_id="opentargets", base_url="http://ot.test/graphql",
            protocol="graphql", priority=1, rate_limit_per_sec=1000,
            retry=RetryPolicy(max_attempts=1), search_path="",
        )
    }
    federation = Federation(registry=registry, transport=CapturingTransport(),
                            clock=FakeClock(), env={})
    result = federation.search_entities_unified(
        QuerySpec(kind="gene", text="TP53", sources=("opentargets",))
    )
    assert captured["method"] == "POST"
    body = json.loads(captured["body"])
    assert "query EntitySearch" in body["query"]
    assert body["variables"] == {"queryString": "TP53", "entityNames": ["gene"], "size": 10}
    assert result.records[0].name == "TP53"
    assert result.records[0].xrefs == {"opentargets": "ENSG00000141510"}
