"""Fixture knowledge-base servers for the `research-fixture` workload.

Run as a child process (`python fixture.py --seed N`): it starts one HTTP
server per source, each on its own localhost port as real sources are
separate hosts, plus a control server. It prints one JSON line with the
ports and serves until its standard input closes.

Each response is a pure function of (source, path, sorted params, body),
derived from the seeded `inputs.ResearchWorld`. A seeded ~5% of distinct
requests get HTTP 503 on their first attempt within an epoch, so the
client's retry and backoff path runs. `GET /stats` on the control port
returns the epoch's request log summary and starts a new epoch; `GET /ping`
there answers `{}`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qsl, unquote, urlparse

import inputs

SOURCES = ("mygene", "kegg", "pubmed", "pubtator")
ERROR_PERCENT = 5


def request_key(source: str, path: str, params: dict, body: str) -> str:
    return json.dumps([source, path, sorted(params.items()), body], sort_keys=True)


def _hash_int(*parts) -> int:
    return int.from_bytes(hashlib.sha256(repr(parts).encode("utf-8")).digest()[:8], "big")


def _tokens(text: str) -> list[str]:
    return [t for t in text.replace(",", " ").split() if t]


class Responder:
    """Pure mapping from a request to (status, content type, body)."""

    def __init__(self, seed: int):
        self.seed = seed
        self.world = inputs.ResearchWorld(seed)
        self._by_upper = {g.upper(): g for g in self.world.genes}

    def _mentioned(self, text: str) -> list[str]:
        out = []
        for token in _tokens(text):
            gene = self._by_upper.get(token.upper())
            if gene and gene not in out:
                out.append(gene)
        return out

    def _genes_for(self, source: str, text: str, limit: int) -> list[str]:
        genes = self._mentioned(text)
        rng = inputs.rng_for("fill", self.seed, source, text)
        for gene in rng.sample(self.world.genes, limit):
            if len(genes) >= limit:
                break
            if gene not in genes:
                genes.append(gene)
        return genes[:limit]

    def respond(self, source: str, path: str, params: dict, body: str) -> tuple[int, str, bytes]:
        world = self.world
        payload: object
        if source == "mygene" and path == "/query":
            genes = self._genes_for(source, params.get("q", ""), int(params.get("size", 10)))
            payload = {"total": len(genes), "hits": [
                {"symbol": g, "entrezgene": int(world.entrez[g]), "name": f"{g} protein",
                 "ensembl": {"gene": f"ENSG{int(world.entrez[g]):011d}"}} for g in genes]}
        elif source == "kegg" and path.startswith("/find/genes/"):
            text = unquote(path[len("/find/genes/"):])
            lines = [f"hsa:{world.entrez[g]}\t{g}, {g}L; {g} family member"
                     for g in self._genes_for(source, text, 10)]
            return 200, "text/plain", ("\n".join(lines) + "\n").encode("utf-8")
        elif source == "pubmed" and path == "/esearch.fcgi":
            term = params.get("term", "")
            ids = [t.split(":", 1)[1] for t in _tokens(term) if t.upper().startswith("PMID:")]
            for gene in self._mentioned(term):
                ids += [p for p in world.gene_papers[gene] if p not in ids]
            rng = inputs.rng_for("esearch", self.seed, term)
            ids += [p for p in rng.sample(world.papers, 10) if p not in ids]
            payload = {"esearchresult": {"idlist": ids[: int(params.get("retmax", 10))]}}
        elif source == "pubmed" and path == "/elink.fcgi":
            payload = {"citations": world.citations.get(params.get("id", ""), [])}
        elif source == "pubtator" and path == "/search":
            genes = self._genes_for(source, params.get("q", ""), int(params.get("limit", 10)))
            payload = {"results": [{"name": g, "curie": f"NCBIGene:{world.entrez[g]}",
                                    "entrez": world.entrez[g]} for g in genes]}
        elif source == "pubtator" and path == "/relations":
            payload = {"relations": self._relations(params.get("e1", ""))}
        else:
            payload = {"error": f"no route for {source} {path}"}
            return 404, "application/json", json.dumps(payload).encode("utf-8")
        return 200, "application/json", json.dumps(payload, sort_keys=True).encode("utf-8")

    def _relations(self, entity: str) -> list[dict]:
        world = self.world
        gene = self._by_upper.get(entity.upper())
        if gene is None:
            rng = inputs.rng_for("relations", self.seed, entity)
            related = rng.sample(world.genes, 3)
            papers = [rng.choice(world.papers)]
        else:
            related = world.related[gene]
            papers = world.gene_papers[gene][:2]
        rows = []
        for name in related:
            if name in world.entrez:
                rows.append({"name": name, "kind": "gene", "curie": f"NCBIGene:{world.entrez[name]}",
                             "pmids": world.gene_papers[name][:2]})
            else:
                rows.append({"name": name, "kind": "disease",
                             "curie": f"MESH:D{_hash_int(name) % 1000000:06d}", "pmids": papers})
        rows += [{"name": f"PMID:{p}", "kind": "paper", "curie": f"PMID:{p}", "pmids": [p]}
                 for p in papers]
        return rows


class FixtureState:
    """Per-epoch request log and the deterministic first-attempt 503s."""

    def __init__(self, responder: Responder):
        self.responder = responder
        self._lock = threading.Lock()
        self._new_epoch()

    def _new_epoch(self) -> None:
        self._attempted: set[str] = set()
        self._served: set[str] = set()
        self.stats = {"requests": 0, "duplicates": 0, "errors": 0, "bytes": 0}

    def fails_first_attempt(self, key: str) -> bool:
        return _hash_int(self.responder.seed, key) % 100 < ERROR_PERCENT

    def handle(self, source: str, path: str, params: dict, body: str) -> tuple[int, str, bytes]:
        key = request_key(source, path, params, body)
        with self._lock:
            first = key not in self._attempted
            self._attempted.add(key)
            self.stats["requests"] += 1
            if first and self.fails_first_attempt(key):
                self.stats["errors"] += 1
                return 503, "application/json", b'{"error": "service unavailable"}'
            if key in self._served:
                self.stats["duplicates"] += 1
            self._served.add(key)
        status, ctype, payload = self.responder.respond(source, path, params, body)
        with self._lock:
            self.stats["bytes"] += len(payload)
        return status, ctype, payload

    def take_stats(self) -> dict:
        with self._lock:
            stats = dict(self.stats)
            self._new_epoch()
        return stats


def _handler(state: FixtureState, source: str | None):
    class Handler(BaseHTTPRequestHandler):
        def _reply(self, status: int, ctype: str, payload: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def do_GET(self):  # noqa: N802 (http.server API)
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length).decode("utf-8") if length else ""
            parsed = urlparse(self.path)
            if source is None:
                if parsed.path == "/stats":
                    self._reply(200, "application/json", json.dumps(state.take_stats()).encode())
                elif parsed.path == "/ping":
                    self._reply(200, "application/json", b"{}")
                else:
                    self._reply(404, "application/json", b"{}")
                return
            params = dict(parse_qsl(parsed.query, keep_blank_values=True))
            self._reply(*state.handle(source, parsed.path, params, body))

        do_POST = do_GET

        def log_message(self, *args):
            pass

    return Handler


def serve(seed: int) -> None:
    state = FixtureState(Responder(seed))
    # The client is one closed loop, so each server handles its requests in
    # turn on its own thread rather than starting a thread per connection.
    servers = {name: HTTPServer(("127.0.0.1", 0), _handler(state, name)) for name in SOURCES}
    servers["control"] = HTTPServer(("127.0.0.1", 0), _handler(state, None))
    threads = [threading.Thread(target=s.serve_forever, daemon=True) for s in servers.values()]
    for thread in threads:
        thread.start()
    print(json.dumps({name: s.server_address[1] for name, s in servers.items()}), flush=True)
    try:
        sys.stdin.read()  # the parent closes our stdin to stop us
    finally:
        for server in servers.values():
            server.shutdown()
            server.server_close()
        for thread in threads:
            thread.join(timeout=5)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    serve(parser.parse_args().seed)
