"""The suite's fake knowledge bases: one clock, canned routes and mock registries."""
from __future__ import annotations

import dataclasses
import json
import threading

from biokgr.federation import Federation, SourceDescriptor, default_registry
from biokgr.federation.client import RawResponse
from biokgr.federation.mockserver import MockTransport


class FakeClock:
    """Deterministic, thread-safe clock; sleep() advances time."""

    def __init__(self):
        self._now = 0.0
        self._lock = threading.Lock()
        self.slept = []

    def now(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, seconds: float) -> None:
        with self._lock:
            self._now += max(seconds, 1e-6)
            self.slept.append(seconds)


def json_response(payload, status=200):
    return RawResponse(status=status, body=json.dumps(payload),
                       headers={"Content-Type": "application/json"})


def text_response(body, status=200):
    return RawResponse(status=status, body=body, headers={"Content-Type": "text/plain"})


def descriptor(source_id="mock", rate=1000.0, **kwargs):
    return SourceDescriptor(
        source_id=source_id, base_url=f"http://{source_id}.test", rate_limit_per_sec=rate, **kwargs,
    )


def single(desc, transport=None, clock=None, env=None) -> Federation:
    """A federation over `desc` alone, with an empty environment unless `env` is given."""
    return Federation({desc.source_id: desc}, transport, clock, {} if env is None else env)


def shipped(source_id, base_url, rate=1000.0, **changes):
    """The shipped registry entry for `source_id` at `base_url`, with a test rate."""
    return dataclasses.replace(
        default_registry()[source_id], base_url=base_url, rate_limit_per_sec=rate, **changes,
    )


CITATION_CHAIN = {
    "100": ["200"],
    "200": ["300"],
    "300": [],
    "30994898": ["20379742"],
    "20379742": [],
}

RELATIONS = {
    "TNF": [
        {"name": "NFKB1", "kind": "gene", "curie": "HGNC:7794", "pmids": [101, 102]},
        {"name": "infliximab", "kind": "drug", "curie": "CHEBI:74605", "pmids": [103]},
    ],
    "IL6": [
        {"name": "STAT3", "kind": "gene", "curie": "HGNC:11364", "pmids": [104]},
    ],
}


def mock_registry():
    """mygene, kegg, pubmed and pubtator at `http://<source>.test`, in that merge order."""
    return {
        source_id: shipped(source_id, f"http://{source_id}.test", rate=10_000.0)
        for source_id in ("mygene", "kegg", "pubmed", "pubtator")
    }


def mock_routes():
    return {
        "mygene.test/query": json_response({
            "hits": [
                {"symbol": "TNF", "name": "tumor necrosis factor",
                 "entrezgene": 7124, "ensembl": {"gene": "ENSG00000232810"}},
                {"symbol": "IL6", "name": "interleukin 6", "entrezgene": 3569},
            ]
        }),
        "kegg.test/find": text_response(
            "hsa:7124\tTNF, DIF; tumor necrosis factor\nhsa:3569\tIL6, BSF2; interleukin 6"
        ),
        "pubmed.test/esearch.fcgi": json_response(
            {"esearchresult": {"idlist": ["30994898", "20379742"]}}
        ),
        "pubmed.test/elink.fcgi": lambda request: json_response(
            {"citations": CITATION_CHAIN.get(str(request.params.get("id", "")), [])}
        ),
        "pubtator.test/relations": lambda request: json_response(
            {"relations": RELATIONS.get(request.params.get("e1", ""), [])}
        ),
    }


def make_mock_federation() -> Federation:
    return Federation(
        registry=mock_registry(),
        transport=MockTransport(mock_routes()),
        clock=FakeClock(),
        env={},
    )
