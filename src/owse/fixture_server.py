"""Static HTTP server for offline end-to-end testing.

Serves a directory tree with deterministic content types (.html as
text/html, .owl/.rdf as application/rdf+xml) and logs every request line
to stdout so tests can assert on crawler behavior.
"""

from __future__ import annotations

import posixpath
import threading
from functools import partial
from http.server import SimpleHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

CONTENT_TYPES = {
    ".html": "text/html",
    ".htm": "text/html",
    ".owl": "application/rdf+xml",
    ".rdf": "application/rdf+xml",
    ".txt": "text/plain",
}
DEFAULT_CONTENT_TYPE = "application/octet-stream"


class FixtureHandler(SimpleHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body are separate writes: with Nagle on, every response
    # on a kept-alive connection would wait for the client's delayed ACK.
    disable_nagle_algorithm = True

    def guess_type(self, path):
        _, ext = posixpath.splitext(str(path))
        return CONTENT_TYPES.get(ext.lower(), DEFAULT_CONTENT_TYPE)

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def log_request(self, code="-", size="-"):
        code = code.value if hasattr(code, "value") else code
        print(f"{self.command} {self.path} {code}", flush=True)


def make_server(root: str | Path, port: int = 0) -> ThreadingHTTPServer:
    """ThreadingHTTPServer serving ``root``; port 0 picks a free port."""
    handler = partial(FixtureHandler, directory=str(root))
    return ThreadingHTTPServer(("127.0.0.1", port), handler)


class FixtureServer:
    """Context manager running the server on a background thread."""

    def __init__(self, root: str | Path, port: int = 0):
        self.server = make_server(root, port)
        self._thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    @property
    def base_url(self) -> str:
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"

    def __enter__(self) -> "FixtureServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=5)
