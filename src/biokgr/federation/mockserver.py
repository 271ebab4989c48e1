"""A fake of the knowledge-base services, for hermetic tests.

`MockTransport` stands in for `HttpTransport` under `Federation.fetch`: it
answers each `send` from a route table and logs every request.
`FixtureServer` puts one `MockTransport` behind a localhost socket, for tests
that need a real HTTP round trip; its handler is the one caller of `send`
outside `Federation.fetch`, since it answers a request that has arrived
rather than sending one to a source.
"""
from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from biokgr.federation.client import RawResponse

# How often the serving thread checks for `stop()`; it bounds stop's latency.
SHUTDOWN_POLL_S = 0.02


@dataclass(frozen=True)
class SentRequest:
    """One request as `MockTransport.send` received it."""

    method: str
    url: str
    params: dict
    headers: dict
    body: str | None


class MockTransport:
    """A transport that answers from a route table instead of the network.

    `routes` maps a key to one of:
    - a `RawResponse`, returned on every match;
    - an exception, raised on every match;
    - a callable, called with the `SentRequest` and returning a `RawResponse`;
    - a list or tuple of the above, served one entry per match in order; its
      last entry repeats once the others are used up.

    A request goes to the first key, in registration order, that its URL
    contains; the empty key matches every URL. A request that matches no key
    gets HTTP 404. The URL is the one given to `send`: `Federation.fetch`
    passes the query string apart, in `params`, while `FixtureServer` passes
    the raw path with its query.

    Every request is appended to `requests`, and `hits(key)` counts the
    requests that `key` answered.
    """

    def __init__(self, routes: dict | None = None):
        self.routes = dict(routes or {})
        self.requests: list[SentRequest] = []
        self._hits: Counter = Counter()
        self._lock = threading.Lock()

    def hits(self, key: str) -> int:
        with self._lock:
            return self._hits[key]

    def send(self, method: str, url: str, params: dict, headers: dict, body: str | None) -> RawResponse:
        request = SentRequest(method, url, dict(params), dict(headers), body)
        with self._lock:
            self.requests.append(request)
            key = next((key for key in self.routes if key in url), None)
            if key is None:
                return RawResponse(status=404, body='{"error": "no fixture"}',
                                   headers={"Content-Type": "application/json"})
            self._hits[key] += 1
            reply = self.routes[key]
            if isinstance(reply, (list, tuple)):
                reply = reply[min(self._hits[key], len(reply)) - 1]
        if isinstance(reply, Exception):
            raise reply
        return reply(request) if callable(reply) else reply


class FixtureServer:
    """A localhost HTTP front for one `MockTransport`, `transport`.

    The handler passes each request's method, raw path and query, headers
    (names lower-cased) and body to `transport.send` and writes back the
    response's status, headers and UTF-8 encoded body.
    """

    def __init__(self):
        self.transport = MockTransport()
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> str:
        transport = self.transport

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 (http.server API)
                length = int(self.headers.get("Content-Length") or 0)
                body = self.rfile.read(length).decode("utf-8") if length else None
                headers = {k.lower(): v for k, v in self.headers.items()}
                response = transport.send(self.command, self.path, {}, headers, body)
                payload = response.body.encode("utf-8")
                self.send_response(response.status)
                for name, value in response.headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

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
