"""The wire under the federation: requests, replies, transports and errors.

A transport is any object with `send(method, url, params, headers, body) ->
RawResponse`; `Federation.fetch` (`unified.py`) is the one caller, and it
adds auth, rate limiting, retries and body parsing. The default,
`HttpTransport`, writes one HTTP/1.1 request per call on a fresh socket and
reads the reply without `http.client`: every receive appends to one buffer per
reply, from which the head is parsed a line at a time and the body taken by
its framing, so no receive copies the bytes before it. It keeps urllib's TLS,
proxy and redirect handling; there is no connection reuse. Tests substitute
`mockserver.MockTransport`. Every message a transport builds names a URL by
`redact(url)`, without the userinfo and query that may hold a secret.
"""
from __future__ import annotations

import re
import socket
import string
from base64 import b64encode
from dataclasses import dataclass, field
from functools import cache
from urllib.parse import quote, unquote, urlencode, urljoin, urlsplit

from biokgr import Error

DEFAULT_TIMEOUT = 15.0
DEFAULT_PORTS = {"http": 80, "https": 443}
REDIRECT_STATUSES = {301, 302, 303, 307, 308}
MAX_REDIRECTS = 10
MAX_LINE = 65536  # bytes in one status or header line of a reply
MAX_HEADERS = 100  # header fields in one reply
_RECEIVE = 65536  # bytes asked of one receive while the length still to come is unknown
# what could split a request: in the method or URL, a space, a control character or non-ASCII;
# a header name that is not an RFC 9110 token; a value with a control character other than tab
_UNSAFE = re.compile(r"[^\x21-\x7e]")
_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")
_UNSAFE_VALUE = re.compile(r"[\x00-\x08\x0a-\x1f\x7f]")


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
    """Default transport: one HTTP/1.1 exchange per call, on a fresh socket.

    It writes the request (`Connection: close`) and reads the reply off the
    socket itself: a status or header line may hold `MAX_LINE` bytes and a
    head `MAX_HEADERS` fields, interim 100 replies are skipped, and the body
    is framed by `Content-Length`, by chunked transfer coding or by the end of
    the connection, and decoded with the
    `Content-Type` charset, or UTF-8 when there is none. As `urllib` does, it
    verifies TLS against the default trust store, sends through the proxies
    `getproxies()` names (read once a process, as urllib's global opener did)
    unless `proxy_bypass()` exempts the host, and follows up to
    `MAX_REDIRECTS` redirects: 301, 302 and 303 turn a POST into a GET without
    a body, and any other redirect of a POST comes back as the response.

    A status >= 400 comes back as a `RawResponse`. A method, URL or header
    that could split the request raises `TransportError` before anything is
    sent, and so does a failure to connect, send or read, a timeout included.
    """

    def __init__(self):
        self._proxies, self._bypass = _proxy_settings()
        self._tls = None  # made on the first https request

    def send(self, method: str, url: str, params: dict, headers: dict, body: str | None) -> RawResponse:
        if params:
            url = f"{url}?{urlencode(params)}"
        payload = None if body is None else body.encode("utf-8")
        try:
            for _ in range(MAX_REDIRECTS + 1):
                status, fields, content = self._exchange(method, url, headers, payload)
                next_url = _redirect(url, method, status, fields)
                if next_url is None:
                    return RawResponse(status, content.decode(_charset(fields), errors="replace"),
                                       fields)
                url, payload = next_url, None
                method = "HEAD" if method == "HEAD" else "GET"
                headers = {name: value for name, value in headers.items()
                           if name.lower() not in ("content-length", "content-type")}
            raise TransportError(f"more than {MAX_REDIRECTS} redirects, the last to {redact(url)}")
        except (OSError, ValueError, LookupError) as exc:
            raise TransportError(str(exc)) from exc

    def _exchange(self, method: str, url: str, headers: dict,
                  payload: bytes | None) -> tuple[int, dict, bytes]:
        """One request on its own connection: the reply's status, header fields and raw body."""
        if _UNSAFE.search(method) or _UNSAFE.search(url):
            raise TransportError(f"refusing a method or URL that holds a space, a control "
                                 f"character or non-ASCII: {method} {redact(url)!r}")
        parts = urlsplit(url)
        host = parts.hostname
        if parts.scheme not in DEFAULT_PORTS or not host:
            raise TransportError(f"unknown url type or no host: {redact(url)!r}")
        port = parts.port or DEFAULT_PORTS[parts.scheme]
        authority = parts.netloc.rpartition("@")[2]
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        address, tunnel, credentials = (host, port), None, {}
        tls_host = host if parts.scheme == "https" else None
        proxy = self._proxies.get(parts.scheme)
        if proxy and not self._bypass(authority):
            via = urlsplit(proxy if "://" in proxy else f"{parts.scheme}://{proxy}")
            address = (via.hostname, via.port or DEFAULT_PORTS.get(via.scheme, 80))
            if via.username and via.password:
                secret = f"{unquote(via.username)}:{unquote(via.password)}".encode()
                credentials = {"Proxy-Authorization": "Basic " + b64encode(secret).decode("ascii")}
            if parts.scheme == "https":  # tunnel to the host, then TLS with the host itself
                hostport = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
                tunnel = _head(f"CONNECT {hostport} HTTP/1.1",
                               {"Host": hostport, **credentials}.items())
                credentials = {}
            else:  # the proxy gets the absolute URL
                target = url.partition("#")[0]
                tls_host = via.hostname if via.scheme == "https" else None
        # one field per name, case-insensitively: a caller's field replaces a default
        fields = {"host": ("Host", authority), "user-agent": ("User-Agent", "biokgr/0.1"),
                  "accept-encoding": ("Accept-Encoding", "identity")}
        for name, value in [*credentials.items(), *headers.items(), ("Connection", "close")]:
            fields[name.lower()] = (name, value)
        if payload is not None:
            fields["content-length"] = ("Content-Length", len(payload))
        request = _head(f"{method} {target} HTTP/1.1", fields.values()) + (payload or b"")
        with socket.create_connection(address, DEFAULT_TIMEOUT) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # as http.client does
            if tunnel is not None:
                sock.sendall(tunnel)
                status, reason, _fields = _Reply(sock).head()
                if status != 200:
                    raise TransportError(f"tunnel connection failed: {status} {reason}")
            if tls_host is None:
                return _round_trip(sock, request, method)
            with self._tls_context().wrap_socket(sock, server_hostname=tls_host) as tls:
                return _round_trip(tls, request, method)

    def _tls_context(self):
        if self._tls is None:
            import ssl

            context = ssl.create_default_context()
            context.set_alpn_protocols(["http/1.1"])
            self._tls = context
        return self._tls


@cache
def _proxy_settings():
    """`getproxies()` and `proxy_bypass`: the environment is read once a process, and every
    transport shares (and only reads) the one dict."""
    # deferred: urllib.request loads http.client and email, and only its proxy lookup is used
    from urllib.request import getproxies, proxy_bypass

    return getproxies(), proxy_bypass


def redact(url: str) -> str:
    """`url` without its userinfo, query and fragment, for messages: each may hold a secret."""
    try:
        parts = urlsplit(url)
    except ValueError:  # an unreadable authority: keep only what precedes it
        return url.partition("//")[0]
    return parts._replace(netloc=parts.netloc.rpartition("@")[2], query="", fragment="").geturl()


def _head(request_line: str, fields) -> bytes:
    """The request line and the `(name, value)` header fields, encoded; an illegal field
    raises `TransportError`."""
    lines = [request_line]
    for name, value in fields:
        value = str(value)
        if not _TOKEN.fullmatch(name) or _UNSAFE_VALUE.search(value):
            raise TransportError(f"refusing an illegal header field {name!r}: {value!r}")
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def _round_trip(sock, request: bytes, method: str) -> tuple[int, dict, bytes]:
    sock.sendall(request)
    reply = _Reply(sock)
    status, _reason, fields = reply.head()
    while status == 100:  # an interim reply; the final one follows
        status, _reason, fields = reply.head()
    if method == "HEAD" or status in (204, 304) or status < 200:
        return status, fields, b""
    if (header(fields, "transfer-encoding") or "").strip().lower() == "chunked":
        return status, fields, reply.chunked()
    try:
        length = int(header(fields, "content-length"))
    except (TypeError, ValueError):  # absent or unreadable: the body runs to the end
        length = -1
    if length < 0:
        return status, fields, reply.rest()
    return status, fields, reply.exactly(length, 0)


class _Reply:
    """One reply as it arrives on a socket.

    Every receive appends to one buffer, and the reply is read from it in
    order: head lines up to each newline, body bytes by their framing.
    Consumed bytes stay in the buffer, which lives as long as the reply; it
    grows in place (a `bytearray` over-allocates), so a reply that arrives in
    many small pieces costs time in proportion to its length.
    """

    def __init__(self, sock):
        self._sock = sock
        self._buf = bytearray()
        self._pos = 0  # where the unread bytes start

    def _receive(self, size: int) -> int:
        """Append up to `size` more bytes; the count, 0 at the end of the connection."""
        data = self._sock.recv(size)
        self._buf += data
        return len(data)

    def line(self) -> bytearray:
        """The next line, its newline included, or what is left before the end of the
        connection; a line longer than `MAX_LINE` raises `TransportError`."""
        buf, start = self._buf, self._pos
        scanned = start
        while (end := buf.find(b"\n", scanned, start + MAX_LINE) + 1) == 0:
            if len(buf) - start > MAX_LINE:
                raise TransportError(f"a reply line is longer than {MAX_LINE} bytes")
            scanned = len(buf)
            if not self._receive(_RECEIVE):
                end = len(buf)
                break
        self._pos = end
        return buf[start:end]

    def head(self) -> tuple[int, str, dict]:
        """A reply's status, reason and header fields (the first of a repeated name wins)."""
        line = self.line()
        if not line:
            raise TransportError("remote end closed connection without response")
        version, _, rest = line.decode("latin-1").strip().partition(" ")
        code, _, reason = rest.strip().partition(" ")
        if not version.startswith("HTTP/") or not (code.isascii() and code.isdigit()
                                                   and 100 <= int(code) <= 999):
            raise TransportError(f"bad status line {bytes(line)!r}")
        fields: dict[str, str] = {}
        last = None
        for _ in range(MAX_HEADERS + 1):
            line = self.line()
            if line in (b"\r\n", b"\n", b""):
                return int(code), reason, fields
            text = line.decode("latin-1")
            if text[0] in " \t":  # a folded continuation of the field before
                if last is not None:
                    fields[last] += " " + text.strip()
                continue
            name, colon, value = text.partition(":")
            last = name if colon and name not in fields else None
            if last is not None:
                fields[name] = value.strip()
        raise TransportError(f"a reply has more than {MAX_HEADERS} header fields")

    def exactly(self, length: int, received: int) -> bytearray:
        """`length` more body bytes, after the `received` already read.

        The first receive asks for every byte still missing, and `recv`
        allocates room for what it is asked for, so a length no buffer can
        hold raises `TransportError` before anything more is read; later
        receives ask for at most `_RECEIVE` bytes, so no receive allocates the
        whole body again.
        """
        buf, start = self._buf, self._pos
        end = start + length
        size = end - len(buf)
        try:
            while len(buf) < end:
                if not self._receive(size):
                    raise TransportError(f"IncompleteRead({received + len(buf) - start} bytes "
                                         f"read, {end - len(buf)} more expected)")
                size = min(end - len(buf), _RECEIVE)
        except (OverflowError, MemoryError):
            raise TransportError(f"cannot read a body of {length} bytes") from None
        self._pos = end
        return buf[start:end]

    def chunked(self) -> bytes:
        chunks, received = [], 0
        while True:
            try:
                size = int(self.line().split(b";", 1)[0], 16)
            except ValueError:
                size = -1
            if size < 0:
                raise TransportError(f"IncompleteRead({received} bytes read)")
            if size == 0:
                break
            chunks.append(self.exactly(size, received))
            received += size
            self.exactly(2, received)  # the CRLF after the chunk
        while self.line() not in (b"\r\n", b"\n", b""):  # the trailer fields
            pass
        return b"".join(chunks)

    def rest(self) -> bytearray:
        """Every byte up to the end of the connection."""
        while self._receive(_RECEIVE):
            pass
        return self._buf[self._pos:]


def _redirect(url: str, method: str, status: int, fields: dict) -> str | None:
    """The URL urllib's rules send a request on to after this reply, or None."""
    if not (status in REDIRECT_STATUSES and method in ("GET", "HEAD")
            or status in (301, 302, 303) and method == "POST"):
        return None
    location = header(fields, "location") or header(fields, "uri")
    if not location:
        return None
    next_url = urljoin(url, quote(location, encoding="iso-8859-1", safe=string.punctuation))
    return next_url if urlsplit(next_url).scheme in DEFAULT_PORTS else None


def header(fields: dict, name: str) -> str | None:
    """The value of header field `name` (lower case), whatever its case in `fields`."""
    for key, value in fields.items():
        if key.lower() == name:
            return value
    return None


def _charset(fields: dict) -> str:
    """The `Content-Type` charset, lower-cased; UTF-8 when there is none."""
    for parameter in (header(fields, "content-type") or "").split(";")[1:]:
        key, _, value = parameter.partition("=")
        value = value.strip().strip('"')
        if key.strip().lower() == "charset" and value:
            return value.lower()
    return "utf-8"
