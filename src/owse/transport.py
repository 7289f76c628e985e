"""HTTP fetch capability.

The crawler and indexer receive a transport object instead of talking to
the network directly, so tests can substitute recording or in-memory
transports. The real implementation keeps one idle ``http.client``
connection per scheme and host for the next GET to it, follows at most
MAX_REDIRECTS redirects and caps the response body.
"""

from __future__ import annotations

import contextlib
import http.client
import ssl
import string
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Protocol
from urllib.parse import quote, urlsplit, urlunsplit

from .errors import FetchError
from .urls import join

USER_AGENT = "owse-crawler/1.0"
MAX_REDIRECTS = 5
REDIRECT_CODES = (301, 302, 303, 307, 308)  # followed to their Location
BODY_CAP = 8 * 1024 * 1024  # bytes kept per document
TIMEOUT = 10.0  # seconds per connect and per socket read
MAX_IDLE = 64  # idle connections kept over all hosts; the least recently used closes first
_URL_SAFE = "!#$%&'()*+,/:;=?@[]~"
_HEADERS = {"User-Agent": USER_AGENT, "Accept": "*/*"}
# What a kept connection gives when its server closed it while idle; the
# GET is then sent once more, on a new connection. RemoteDisconnected, an
# answer that ends before its status line, is a ConnectionResetError.
_STALE = (ConnectionResetError, BrokenPipeError, ConnectionAbortedError)


@dataclass
class FetchResponse:
    """Result of one HTTP GET."""

    url: str  # final URL after redirects
    status: int
    content_type: str
    body: bytes
    started_at: float = field(default_factory=time.monotonic)
    truncated: bool = False  # body hit the cap and was cut short


class Transport(Protocol):
    """Anything that answers an HTTP GET with a FetchResponse."""

    def get(self, url: str) -> FetchResponse: ...


def _quoted(url: str) -> str:
    """``url`` with spaces and non-ASCII characters in its path and query
    percent-encoded as UTF-8; existing escapes stay and the fragment,
    which is never sent, goes."""
    scheme, netloc, path, query, _ = urlsplit(url)
    return urlunsplit((scheme, netloc, quote(path, safe=_URL_SAFE), quote(query, safe=_URL_SAFE), ""))


def _read(url: str, response: http.client.HTTPResponse, started: float) -> FetchResponse:
    """The FetchResponse for ``response``, its body cut at BODY_CAP."""
    try:
        body = response.read(BODY_CAP + 1)
    except (OSError, http.client.HTTPException) as exc:
        raise FetchError("read", str(exc)) from exc
    truncated = len(body) > BODY_CAP
    if response.length and not truncated:  # bytes declared but never sent
        raise FetchError("read", f"body ended {response.length} bytes short")
    return FetchResponse(
        url=url,
        status=response.status,
        content_type=response.headers.get("Content-Type", ""),
        body=body[:BODY_CAP],
        started_at=started,
        truncated=truncated,
    )


class HttpTransport:
    """Real network transport on ``http.client``.

    Only http and https URLs are fetched. A connection whose final
    response was read to its end, and did not say it would close, is
    kept idle for the next GET to its scheme and host: at most one per
    host and MAX_IDLE in all. Every other connection is closed, redirect
    hops included. Threads may share one transport; HTTPS connections
    share one TLS context. ``close()``, or leaving a ``with`` block,
    closes the idle connections.
    """

    def __init__(self):
        self._tls = ssl.create_default_context()
        self._idle: OrderedDict[tuple[str, str], http.client.HTTPConnection] = OrderedDict()
        self._lock = threading.Lock()

    def __enter__(self) -> "HttpTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        with self._lock:
            idle, self._idle = list(self._idle.values()), OrderedDict()
        for connection in idle:
            connection.close()

    def get(self, url: str) -> FetchResponse:
        started = time.monotonic()
        url = _quoted(url)
        try:
            for _ in range(MAX_REDIRECTS + 1):
                scheme, netloc, path, query, _ = parts = urlsplit(url)
                parts.port  # ValueError outside 0-65535, which http.client would wrap to 16 bits
                if scheme not in ("http", "https") or not netloc:
                    raise FetchError("connection", f"refused {url}: not http(s) with a host")
                host = (scheme, netloc)
                connection, response = self._send(host, f"{path or '/'}?{query}" if query else path)
                try:
                    with response:
                        location = response.headers.get("Location")
                        if response.status not in REDIRECT_CODES or location is None:
                            fetched = _read(url, response, started)
                            if response.isclosed() and not response.will_close:
                                self._keep(host, connection)
                                connection = None
                            return fetched
                finally:
                    if connection is not None:
                        connection.close()
                # The split drops the tabs and newlines a URL cannot hold; the
                # header was decoded as ISO-8859-1, so quote escapes its raw bytes.
                location = urlunsplit(urlsplit(location))
                url = join(url, quote(location, encoding="iso-8859-1", safe=string.punctuation))
        except TimeoutError as exc:
            raise FetchError("timeout", str(exc)) from exc
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise FetchError("connection", str(exc)) from exc
        raise FetchError("too-many-redirects", f"more than {MAX_REDIRECTS} redirects")

    def _send(self, key: tuple[str, str], target: str) -> tuple[http.client.HTTPConnection, http.client.HTTPResponse]:
        """A connection to ``key`` and the response head to GET ``target``
        on it: on the host's idle connection if there is one, and on a new
        one if there is none or the idle one proves stale."""
        with self._lock:
            connection = self._idle.pop(key, None)
        if connection is not None:
            with contextlib.suppress(*_STALE):
                return connection, _ask(connection, target)
        scheme, netloc = key
        if scheme == "https":
            connection = http.client.HTTPSConnection(netloc, timeout=TIMEOUT, context=self._tls)
        else:
            connection = http.client.HTTPConnection(netloc, timeout=TIMEOUT)
        return connection, _ask(connection, target)

    def _keep(self, key: tuple[str, str], connection: http.client.HTTPConnection) -> None:
        """Keep ``connection`` idle as the one for ``key``, closing the one
        it replaces and the least recently kept past MAX_IDLE."""
        with self._lock:
            closing = [self._idle.pop(key)] if key in self._idle else []  # kept by a concurrent GET
            self._idle[key] = connection
            while len(self._idle) > MAX_IDLE:
                closing.append(self._idle.popitem(last=False)[1])
        for old in closing:
            old.close()


def _ask(connection: http.client.HTTPConnection, target: str) -> http.client.HTTPResponse:
    """The response head to GET ``target`` on ``connection``, which is
    closed if that fails."""
    try:
        connection.request("GET", target, headers=_HEADERS)
        return connection.getresponse()
    except BaseException:
        connection.close()
        raise
