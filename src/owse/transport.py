"""HTTP fetch capability.

The crawler and indexer receive a transport object instead of talking to
the network directly, so tests can substitute recording or in-memory
transports. The real implementation is a thin urllib wrapper with a
redirect limit and a response-body cap.
"""

from __future__ import annotations

import http.client
import ssl
import time
from dataclasses import dataclass, field
from typing import Protocol
from urllib.error import HTTPError, URLError
from urllib.parse import quote, urlsplit, urlunsplit
from urllib.request import (
    HTTPErrorProcessor, HTTPHandler, HTTPRedirectHandler, HTTPSHandler, OpenerDirector, Request,
)

from .errors import FetchError

USER_AGENT = "owse-crawler/1.0"
MAX_REDIRECTS = 5
BODY_CAP = 8 * 1024 * 1024  # bytes kept per document
TIMEOUT = 10.0  # seconds per connect and per socket read
_URL_SAFE = "!#$%&'()*+,/:;=?@[]~"


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
    percent-encoded as UTF-8, as requests does; existing escapes stay and
    the fragment, which is never sent, goes."""
    scheme, netloc, path, query, _ = urlsplit(url)
    return urlunsplit((scheme, netloc, quote(path, safe=_URL_SAFE), quote(query, safe=_URL_SAFE), ""))


class _Redirects(HTTPRedirectHandler):
    """Follows 301/302/303/307/308 to http(s) targets, at most
    MAX_REDIRECTS in a row, and hands every other non-2xx answer back as
    a response instead of raising HTTPError."""

    # urllib's own loop checks never fire before the hop count below.
    max_repeats = max_redirections = MAX_REDIRECTS

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        hops = getattr(req, "hops", 0) + 1
        if hops > MAX_REDIRECTS:
            fp.close()
            raise FetchError("too-many-redirects", f"more than {MAX_REDIRECTS} redirects")
        if urlsplit(newurl).scheme not in ("http", "https"):
            fp.close()
            raise FetchError("connection", f"redirect to {newurl} refused")
        new = Request(newurl, origin_req_host=req.origin_req_host, unverifiable=True)
        new.hops = hops
        return new

    http_error_308 = HTTPRedirectHandler.http_error_302  # missing before 3.11

    def http_error_default(self, req, fp, code, msg, headers):
        return fp


class HttpTransport:
    """Real network transport backed by urllib.

    The opener has no file/ftp/data/unknown handlers, so other schemes
    open nothing. Every request opens its own connection, so all threads
    share the opener; HTTPS connections share one TLS context.
    """

    def __init__(self):
        self._opener = OpenerDirector()
        self._opener.addheaders = [("User-Agent", USER_AGENT), ("Accept", "*/*")]
        tls = ssl.create_default_context()
        for handler in (HTTPHandler(), HTTPSHandler(context=tls), _Redirects(), HTTPErrorProcessor()):
            self._opener.add_handler(handler)

    def get(self, url: str) -> FetchResponse:
        started = time.monotonic()
        try:
            response = self._opener.open(_quoted(url), timeout=TIMEOUT)
        except TimeoutError as exc:
            raise FetchError("timeout", str(exc)) from exc
        except HTTPError as exc:  # urllib refused a redirect's scheme
            exc.close()
            raise FetchError("connection", str(exc)) from exc
        except URLError as exc:
            kind = "timeout" if isinstance(exc.reason, TimeoutError) else "connection"
            raise FetchError(kind, str(exc)) from exc
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise FetchError("connection", str(exc)) from exc
        if response is None:  # a scheme the opener has no handler for
            raise FetchError("connection", f"unsupported scheme in {url}")

        with response:
            try:
                body = response.read(BODY_CAP + 1)
            except (OSError, http.client.HTTPException) as exc:
                raise FetchError("read", str(exc)) from exc
            truncated = len(body) > BODY_CAP
            if response.length and not truncated:  # bytes declared but never sent
                raise FetchError("read", f"body ended {response.length} bytes short")

        return FetchResponse(
            url=response.url,
            status=response.status,
            content_type=response.headers.get("Content-Type", ""),
            body=body[:BODY_CAP],
            started_at=started,
            truncated=truncated,
        )
