"""In-process HTTP server serving recorded fixtures for hermetic tests.

Routes are registered by path prefix. A route's payload is either a single
response or a sequence consumed one response per request (for retry tests).
Every handled request's path, query and headers (names lower-cased) are
appended to `request_log`.
"""
from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlparse

# How often the serving thread checks for `stop()`; it bounds stop's latency.
SHUTDOWN_POLL_S = 0.02


@dataclass
class MockResponse:
    status: int = 200
    body: str = ""
    content_type: str = "application/json"

    @classmethod
    def json(cls, payload, status: int = 200) -> "MockResponse":
        return cls(status=status, body=json.dumps(payload))

    @classmethod
    def text(cls, body: str, status: int = 200) -> "MockResponse":
        return cls(status=status, body=body, content_type="text/plain")


@dataclass
class _Route:
    responses: list[MockResponse]
    sticky: bool  # final response repeats once the sequence is consumed
    hits: int = 0


@dataclass
class RequestRecord:
    path: str
    query: str = ""
    headers: dict = field(default_factory=dict)


class FixtureServer:
    def __init__(self):
        self._routes: dict[str, _Route] = {}
        self._lock = threading.Lock()
        self.request_log: list[RequestRecord] = []
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -- route registration ----------------------------------------------------

    def add_json(self, prefix: str, payload, status: int = 200) -> None:
        self._routes[prefix] = _Route([MockResponse.json(payload, status)], sticky=True)

    def add_text(self, prefix: str, body: str, status: int = 200) -> None:
        self._routes[prefix] = _Route([MockResponse.text(body, status)], sticky=True)

    def add_sequence(self, prefix: str, responses: list[MockResponse]) -> None:
        self._routes[prefix] = _Route(list(responses), sticky=True)

    def route_hits(self, prefix: str) -> int:
        route = self._routes.get(prefix)
        return route.hits if route else 0

    def _respond(self, path: str, query: str, headers: dict) -> MockResponse:
        with self._lock:
            self.request_log.append(RequestRecord(path=path, query=query, headers=headers))
            candidates = [p for p in self._routes if path.startswith(p)]
            if not candidates:
                return MockResponse.json({"error": "no fixture"}, status=404)
            route = self._routes[max(candidates, key=len)]
            route.hits += 1
            index = min(route.hits - 1, len(route.responses) - 1)
            return route.responses[index]

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> str:
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 (http.server API)
                parsed = urlparse(self.path)
                response = server._respond(parsed.path, parsed.query,
                                           {k.lower(): v for k, v in self.headers.items()})
                body = response.body.encode("utf-8")
                self.send_response(response.status)
                self.send_header("Content-Type", response.content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            do_POST = do_GET

            def log_message(self, *args):
                pass

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True,
                                        kwargs={"poll_interval": SHUTDOWN_POLL_S})
        self._thread.start()
        host, port = self._httpd.server_address
        return f"http://{host}:{port}"

    def stop(self) -> None:
        if self._httpd:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None

    def __enter__(self) -> tuple["FixtureServer", str]:
        return self, self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
