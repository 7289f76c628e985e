"""Contract of HttpTransport, mostly against a local http.server.

Covers redirects and their limit, the body cap, non-2xx answers, the
FetchError kinds, refused schemes, request headers and the
percent-encoding of the request target.
"""

import contextlib
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from owse import transport
from owse.errors import FetchError
from owse.transport import BODY_CAP, MAX_REDIRECTS, REDIRECT_CODES, USER_AGENT, HttpTransport


def pattern(n: int) -> bytes:
    return (bytes(range(256)) * (n // 256 + 1))[:n]


class Handler(BaseHTTPRequestHandler):
    """Routes:

    /hop/<n>        redirects to /hop/<n-1> (codes cycle through all five); /hop/0 answers 200
    /loop           redirects to itself
    /no-location    302 without a Location header
    /to?<url>       302 to <url>
    /moved/<code>   that status with Location /hop/0 and body "moved"
    /two-types      200 with two Content-Type headers
    /utf8, /tab, /query-only, /two-locations, /empty-location, /uri-only
                    302 "moved" with their headers in ``redirects``
    /body/<n>       200 with n pattern bytes
    /status/<code>  that status with a short body
    /slow           answers after one second
    /short          declares 1000 body bytes, sends 10 and closes
    anything else   200 text/plain "ok"
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    seen: list = []  # (request line, headers) per request, set by the fixture
    redirects = {
        "/utf8": [("Location", "/café x".encode().decode("latin-1"))],  # raw UTF-8 bytes
        "/tab": [("Location", "/a\tb")],
        "/query-only": [("Location", "?a=b c")],
        "/two-locations": [("Location", "/hop/0"), ("Location", "/loop")],
        "/empty-location": [("Location", "")],
        "/uri-only": [("URI", "/hop/0")],
    }

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def answer(self, status, body=b"", content_type="text/plain", headers=()):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        self.seen.append((self.requestline, dict(self.headers)))
        path = self.path
        if path.startswith("/hop/"):
            n = int(path.rsplit("/", 1)[1])
            if n == 0:
                self.answer(200, b"arrived")
            else:
                code = REDIRECT_CODES[n % len(REDIRECT_CODES)]
                self.answer(code, headers=[("Location", f"/hop/{n - 1}")])
        elif path == "/loop":
            self.answer(302, headers=[("Location", "/loop")])
        elif path == "/no-location":
            self.answer(302, b"nowhere to go")
        elif path.startswith("/to?"):
            self.answer(302, headers=[("Location", path[len("/to?"):])])
        elif path.startswith("/moved/"):
            self.answer(int(path.rsplit("/", 1)[1]), b"moved", headers=[("Location", "/hop/0")])
        elif path == "/two-types":
            self.answer(200, b"ok", "application/rdf+xml", headers=[("Content-Type", "text/html")])
        elif path in self.redirects:
            self.answer(302, b"moved", headers=self.redirects[path])
        elif path.startswith("/body/"):
            self.answer(200, pattern(int(path.rsplit("/", 1)[1])), "application/octet-stream")
        elif path.startswith("/status/"):
            code = int(path.rsplit("/", 1)[1])
            self.answer(code, f"status {code} body".encode())
        elif path == "/slow":
            time.sleep(1.0)
            with contextlib.suppress(ConnectionError):  # the client has given up
                self.answer(200, b"late")
        elif path == "/short":
            self.send_response(200)
            self.send_header("Content-Length", "1000")
            self.end_headers()
            self.wfile.write(b"0123456789")
            self.close_connection = True
        else:
            self.answer(200, b"ok")


class Server:
    def __init__(self, httpd):
        host, port = httpd.server_address[:2]
        self.url = f"http://{host}:{port}"

    @property
    def request_lines(self):
        return [line for line, _ in Handler.seen]


@pytest.fixture(scope="module")
def running():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield Server(httpd)
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture
def server(running, monkeypatch):
    monkeypatch.setattr(Handler, "seen", [])
    return running


def fetch_error(url: str) -> FetchError:
    with pytest.raises(FetchError) as excinfo:
        HttpTransport().get(url)
    return excinfo.value


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestRedirects:
    def test_chain_of_max_redirects_is_followed(self, server):
        response = HttpTransport().get(f"{server.url}/hop/{MAX_REDIRECTS}")
        assert response.status == 200
        assert response.body == b"arrived"
        assert response.url == f"{server.url}/hop/0"
        assert len(server.request_lines) == MAX_REDIRECTS + 1

    def test_one_redirect_too_many(self, server):
        assert fetch_error(f"{server.url}/hop/{MAX_REDIRECTS + 1}").kind == "too-many-redirects"
        paths = [line.split()[1] for line in server.request_lines]
        assert paths == [f"/hop/{n}" for n in range(MAX_REDIRECTS + 1, 0, -1)]

    def test_self_redirect_loop(self, server):
        assert fetch_error(f"{server.url}/loop").kind == "too-many-redirects"
        assert len(server.request_lines) == MAX_REDIRECTS + 1

    def test_redirect_without_location_is_a_response(self, server):
        response = HttpTransport().get(f"{server.url}/no-location")
        assert response.status == 302
        assert response.body == b"nowhere to go"
        assert response.url == f"{server.url}/no-location"

    @pytest.mark.parametrize("code, body", [(300, b"moved"), (304, b""), (305, b"moved")])
    def test_other_3xx_is_a_response(self, server, code, body):
        response = HttpTransport().get(f"{server.url}/moved/{code}")
        assert (response.status, response.body) == (code, body)
        assert response.url == f"{server.url}/moved/{code}"
        assert len(server.request_lines) == 1

    @pytest.mark.parametrize(
        "path, target",
        [
            ("/utf8", "/caf%C3%A9%20x"),
            ("/tab", "/ab"),
            ("/query-only", "/query-only?a=b%20c"),
            ("/two-locations", "/hop/0"),  # the first one
        ],
    )
    def test_location_is_escaped_and_joined(self, server, path, target):
        response = HttpTransport().get(f"{server.url}{path}")
        assert server.request_lines == [f"GET {path} HTTP/1.1", f"GET {target} HTTP/1.1"]
        assert response.url == f"{server.url}{target}"
        assert response.status == 200

    def test_empty_location_redirects_to_the_same_url(self, server):
        assert fetch_error(f"{server.url}/empty-location").kind == "too-many-redirects"
        assert len(server.request_lines) == MAX_REDIRECTS + 1

    def test_uri_header_is_not_followed(self, server):
        response = HttpTransport().get(f"{server.url}/uri-only")
        assert (response.status, response.body) == (302, b"moved")
        assert len(server.request_lines) == 1

    def test_redirect_to_file_is_refused(self, server, tmp_path):
        secret = tmp_path / "secret.txt"
        secret.write_text("local file")
        assert fetch_error(f"{server.url}/to?{secret.as_uri()}").kind == "connection"

    def test_redirect_to_ftp_is_refused_unopened(self, server):
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen()
            listener.settimeout(0.2)
            port = listener.getsockname()[1]
            assert fetch_error(f"{server.url}/to?ftp://127.0.0.1:{port}/x").kind == "connection"
            with pytest.raises(socket.timeout):
                listener.accept()

    @pytest.mark.parametrize("wrap", [65536, 10**19], ids=["past-65535", "20-digit"])
    def test_redirect_to_a_port_outside_0_to_65535_is_refused(self, server, wrap):
        # The port modulo 65536 is the server's own, where http.client
        # would connect; a 20-digit port overflowed out of get().
        port = int(server.url.rsplit(":", 1)[1]) + wrap
        assert fetch_error(f"{server.url}/to?http://127.0.0.1:{port}/hop/0").kind == "connection"
        assert len(server.request_lines) == 1


class TestBody:
    def test_body_of_exactly_the_cap(self, server):
        response = HttpTransport().get(f"{server.url}/body/{BODY_CAP}")
        assert response.body == pattern(BODY_CAP)
        assert not response.truncated

    def test_body_over_the_cap_is_cut(self, server):
        response = HttpTransport().get(f"{server.url}/body/{BODY_CAP + 100}")
        assert response.body == pattern(BODY_CAP)
        assert response.truncated
        assert response.content_type == "application/octet-stream"

    @pytest.mark.parametrize("code", [404, 500])
    def test_error_status_is_a_response(self, server, code):
        response = HttpTransport().get(f"{server.url}/status/{code}")
        assert response.status == code
        assert response.body == f"status {code} body".encode()
        assert response.content_type == "text/plain"

    def test_first_content_type_wins(self, server):
        assert HttpTransport().get(f"{server.url}/two-types").content_type == "application/rdf+xml"

    def test_body_shorter_than_declared_is_a_read_error(self, server):
        assert fetch_error(f"{server.url}/short").kind == "read"


class TestFailures:
    def test_slow_answer_times_out(self, server, monkeypatch):
        monkeypatch.setattr(transport, "TIMEOUT", 0.3)
        assert fetch_error(f"{server.url}/slow").kind == "timeout"

    def test_closed_port(self):
        assert fetch_error(f"http://127.0.0.1:{free_port()}/").kind == "connection"

    def test_direct_file_url_is_refused(self, tmp_path):
        secret = tmp_path / "secret.txt"
        secret.write_text("local file")
        assert fetch_error(secret.as_uri()).kind == "connection"

    def test_data_url_is_refused(self):
        assert fetch_error("data:,hello").kind == "connection"

    @pytest.mark.parametrize("url", ["http://u:pw@host/", "http:///x", "https://"])
    def test_url_without_a_usable_host_opens_nothing(self, monkeypatch, url):
        monkeypatch.setattr(socket, "create_connection", lambda *args, **kwargs: pytest.fail("connected"))
        assert fetch_error(url).kind == "connection"


class TestRequest:
    def test_headers(self, server):
        HttpTransport().get(f"{server.url}/")
        (_, headers), = Handler.seen
        assert headers["User-Agent"] == USER_AGENT
        assert headers["Accept"] == "*/*"

    def test_each_request_asks_to_close_its_connection(self, server):
        HttpTransport().get(f"{server.url}/hop/1")
        assert [headers["Connection"] for _, headers in Handler.seen] == ["close", "close"]

    def test_space_and_non_ascii_are_percent_encoded(self, server):
        response = HttpTransport().get(f"{server.url}/a b/café.owl")
        assert server.request_lines == ["GET /a%20b/caf%C3%A9.owl HTTP/1.1"]
        assert response.url == f"{server.url}/a%20b/caf%C3%A9.owl"
        assert response.body == b"ok"
