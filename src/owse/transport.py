"""HTTP fetch capability.

The crawler and indexer receive a transport object instead of talking to
the network directly, so tests can substitute recording or in-memory
transports. The real implementation sends each GET on its own
``http.client`` connection, follows at most MAX_REDIRECTS redirects and
caps the response body.
"""

from __future__ import annotations

import http.client
import ssl
import string
import time
from dataclasses import dataclass, field
from typing import Protocol
from urllib.parse import quote, urljoin, urlsplit, urlunsplit

from .errors import FetchError

USER_AGENT = "owse-crawler/1.0"
MAX_REDIRECTS = 5
REDIRECT_CODES = (301, 302, 303, 307, 308)  # followed to their Location
BODY_CAP = 8 * 1024 * 1024  # bytes kept per document
TIMEOUT = 10.0  # seconds per connect and per socket read
_URL_SAFE = "!#$%&'()*+,/:;=?@[]~"
_HEADERS = {"User-Agent": USER_AGENT, "Accept": "*/*", "Connection": "close"}


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

    Only http and https URLs are fetched. Every request opens and closes
    its own connection, so threads may share one transport; HTTPS
    connections share one TLS context.
    """

    def __init__(self):
        self._tls = ssl.create_default_context()

    def get(self, url: str) -> FetchResponse:
        started = time.monotonic()
        url = _quoted(url)
        try:
            for _ in range(MAX_REDIRECTS + 1):
                scheme, netloc, path, query, _ = parts = urlsplit(url)
                parts.port  # ValueError outside 0-65535, which http.client would wrap to 16 bits
                if scheme == "https" and netloc:
                    connection = http.client.HTTPSConnection(netloc, timeout=TIMEOUT, context=self._tls)
                elif scheme == "http" and netloc:
                    connection = http.client.HTTPConnection(netloc, timeout=TIMEOUT)
                else:
                    raise FetchError("connection", f"refused {url}: not http(s) with a host")
                try:
                    connection.request("GET", f"{path or '/'}?{query}" if query else path, headers=_HEADERS)
                    with connection.getresponse() as response:
                        location = response.headers.get("Location")
                        if response.status not in REDIRECT_CODES or location is None:
                            return _read(url, response, started)
                finally:
                    connection.close()
                # The split drops the tabs and newlines a URL cannot hold; the
                # header was decoded as ISO-8859-1, so quote escapes its raw bytes.
                location = urlunsplit(urlsplit(location))
                url = urljoin(url, quote(location, encoding="iso-8859-1", safe=string.punctuation))
        except TimeoutError as exc:
            raise FetchError("timeout", str(exc)) from exc
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise FetchError("connection", str(exc)) from exc
        raise FetchError("too-many-redirects", f"more than {MAX_REDIRECTS} redirects")
