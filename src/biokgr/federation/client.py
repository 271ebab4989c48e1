"""Low-level knowledge-base client: auth, rate limiting, retries, parsing.

One `KgClient` wraps one source descriptor. All requests go through
`fetch_with_policy`, which (1) checks credentials for the source's auth mode,
(2) acquires a rate-limit slot for the host, (3) retries transient failures
with exponential backoff, and (4) parses the response body into structured
form (JSON when possible, text otherwise). Every dispatched attempt adds one
to `attempts`, which budget accounting reads; the count is kept under a lock
because one client is shared by the federation's worker threads.

Requests leave through a transport: any object with `send(method, url,
params, headers, body) -> RawResponse`. The default, `HttpTransport`, is
stateless: one `urllib.request` round trip per call, with no connection
reuse. Tests substitute `mockserver.MockTransport`.
"""
from __future__ import annotations

import json
import logging
import os
import threading
import urllib.request
from dataclasses import dataclass, field
from http.client import HTTPException
from urllib.error import HTTPError
from urllib.parse import urlencode

from biokgr import Error, parse_json
from biokgr.federation.descriptors import SourceDescriptor
from biokgr.federation.ratelimit import RateLimiter, SystemClock

logger = logging.getLogger(__name__)

TRANSIENT_STATUSES = {429, 500, 502, 503, 504}
DEFAULT_TIMEOUT = 15.0


class FederationError(Error):
    pass


class AuthMissing(FederationError):
    pass


class InvalidQuery(FederationError):
    pass


class RequestFailed(FederationError):
    """Non-transient failure (HTTP 4xx other than 429); not retried."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class SourceUnavailable(FederationError):
    """Attempts exhausted against one host."""

    def __init__(self, host: str, attempts: int, reason: str = ""):
        super().__init__(f"{host} unavailable after {attempts} attempts: {reason}")
        self.host = host
        self.attempts = attempts


class TransportError(FederationError):
    pass


class MalformedResponse(FederationError):
    """A source's reply does not fit its reply shape (an HTML page, a wrong shape or leaf type,
    JSON nested too deeply to decode)."""


@dataclass
class RawResponse:
    status: int
    body: str
    headers: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FetchRequest:
    path: str
    params: dict = field(default_factory=dict)
    method: str = "GET"
    body: str | None = None
    headers: dict = field(default_factory=dict)


class HttpTransport:
    """Default transport: one standard-library HTTP round trip per call.

    A status >= 400 comes back as a `RawResponse`; a failure to connect, send
    or read, a timeout included, raises `TransportError`. The body is decoded
    with the `Content-Type` charset, or UTF-8 when there is none.
    """

    def send(self, method: str, url: str, params: dict, headers: dict, body: str | None) -> RawResponse:
        if params:
            url = f"{url}?{urlencode(params)}"
        try:
            request = urllib.request.Request(
                url, data=None if body is None else body.encode("utf-8"),
                headers={"User-Agent": "biokgr/0.1", **headers}, method=method,
            )
            try:
                response = urllib.request.urlopen(request, timeout=DEFAULT_TIMEOUT)
            except HTTPError as exc:  # the error status and body are the response
                response = exc
            with response:
                charset = response.headers.get_content_charset() or "utf-8"
                return RawResponse(
                    status=response.status,
                    body=response.read().decode(charset, errors="replace"),
                    headers=dict(response.headers),
                )
        except (OSError, ValueError, LookupError, HTTPException) as exc:
            raise TransportError(str(exc)) from exc


class KgClient:
    def __init__(
        self,
        descriptor: SourceDescriptor,
        transport=None,
        limiter: RateLimiter | None = None,
        clock=None,
        env=None,
    ):
        self.descriptor = descriptor
        self._clock = clock or SystemClock()
        self._transport = transport or HttpTransport()
        self._limiter = limiter or RateLimiter(self._clock)
        self._env = env if env is not None else os.environ
        self.attempts = 0
        self._attempts_lock = threading.Lock()

    @property
    def source_id(self) -> str:
        return self.descriptor.source_id

    def _auth_params(self) -> dict:
        if self.descriptor.auth == "none":
            return {}
        key_env = f"{self.source_id.upper()}_API_KEY"
        key = self._env.get(key_env)
        if not key:
            raise AuthMissing(
                f"source {self.source_id!r} uses {self.descriptor.auth} auth; "
                f"set {key_env} in the environment"
            )
        return {"api_key": key}

    def fetch_with_policy(self, request: FetchRequest):
        """Fetch one request under the source's rate/retry policy; returns parsed body."""
        params = dict(request.params)
        params.update(self._auth_params())
        base = self.descriptor.resolved_base_url(self._env)
        url = base + request.path
        host = base.split("//", 1)[-1].split("/", 1)[0]
        min_interval = 1.0 / self.descriptor.rate_limit_per_sec
        policy = self.descriptor.retry

        last_reason = ""
        for attempt in range(1, policy.max_attempts + 1):
            self._limiter.acquire(host, min_interval)
            with self._attempts_lock:
                self.attempts += 1
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
                        f"{url} returned HTTP {response.status}", status=response.status
                    )
                last_reason = f"HTTP {response.status}"
            if attempt < policy.max_attempts:
                self._clock.sleep(policy.backoff_seconds * 2 ** (attempt - 1))
        raise SourceUnavailable(host=host, attempts=policy.max_attempts, reason=last_reason)


def parse_body(response: RawResponse):
    """JSON bodies become dicts/lists; anything else stays text. JSON nested too
    deeply to decode raises `MalformedResponse`."""
    content_type = ""
    for key, value in response.headers.items():
        if key.lower() == "content-type":
            content_type = value.lower()
            break
    body = response.body
    if "json" in content_type or body.lstrip()[:1] in ("{", "["):
        try:
            return parse_json(body)
        except json.JSONDecodeError:
            pass
        except ValueError as exc:
            raise MalformedResponse(f"reply {exc}") from exc
    return body
