import pytest

from owse.errors import Unparseable, UnsupportedScheme
from owse.urls import host_of, is_absolute_http, normalize_url


def test_relative_reference_resolution():
    assert normalize_url("a.owl", "http://x/d/") == "http://x/d/a.owl"


def test_canonicalization_lowercases_and_strips_default_port_and_fragment():
    assert normalize_url("HTTP://X:80/p#f", "http://irrelevant/") == "http://x/p"


def test_https_default_port_stripped_nonstandard_kept():
    assert normalize_url("https://Host:443/a", "https://x/") == "https://host/a"
    assert normalize_url("http://host:8080/a", "http://x/") == "http://host:8080/a"


def test_unsupported_scheme():
    with pytest.raises(UnsupportedScheme):
        normalize_url("mailto:a@b", "http://x/")
    with pytest.raises(UnsupportedScheme):
        normalize_url("ftp://x/file", "http://x/")


def test_unparseable():
    with pytest.raises(Unparseable):
        normalize_url("http://[bad", "http://x/")
    with pytest.raises(Unparseable):
        normalize_url("http://", "http://")  # no host anywhere to resolve against


def test_hostless_reference_takes_host_from_base():
    assert normalize_url("http:///nohost", "http://x/") == "http://x/nohost"


def test_empty_path_becomes_slash():
    assert normalize_url("http://x", "http://y/") == "http://x/"


def test_query_preserved_fragment_removed():
    assert normalize_url("http://x/p?a=1&b=2#frag", "http://x/") == "http://x/p?a=1&b=2"


def test_dot_segments_resolved():
    assert normalize_url("../up.html", "http://x/d/e/") == "http://x/d/up.html"
    assert normalize_url("./here.html", "http://x/d/") == "http://x/d/here.html"
    assert normalize_url("http://x/a/../b", "http://y/") == "http://x/b"
    assert normalize_url("http://x/a/./b/..", "http://y/") == "http://x/a/"


def test_case_of_path_preserved():
    assert normalize_url("http://X/Path/File.OWL", "http://y/") == "http://x/Path/File.OWL"


def test_is_absolute_http():
    assert is_absolute_http("http://x/a")
    assert is_absolute_http("https://x/")
    assert not is_absolute_http("x.owl")
    assert not is_absolute_http("urn:isbn:123")


def test_host_of_includes_port():
    assert host_of("http://Example.org:8080/p") == "example.org:8080"


def test_ipv6_host_keeps_its_brackets():
    assert normalize_url("http://[::1]:8080/o.owl", "http://x/") == "http://[::1]:8080/o.owl"
    assert normalize_url("http://[::1]/o.owl", "http://x/") == "http://[::1]/o.owl"
    assert normalize_url("http://[::1]:80/o.owl", "http://x/") == "http://[::1]/o.owl"
    assert normalize_url("HTTPS://[FE80::A:B]:8443/x", "http://x/") == "https://[fe80::a:b]:8443/x"
    assert normalize_url("o.owl", "http://[::1]:8080/d/") == "http://[::1]:8080/d/o.owl"
    assert host_of(normalize_url("http://[::1]:8080/o.owl", "http://x/")) == "[::1]:8080"


@pytest.mark.parametrize("raw", ["http://[v1.fe]/x", "http://u@[v1.FE]:8080/x", "http://[v7.a:b]/x"])
def test_ipvfuture_host_keeps_its_brackets(raw):
    # urlsplit's hostname drops the brackets; "http://v1.fe/x" would be a
    # different, DNS host. A urlsplit that rejects the literal makes it
    # Unparseable, which is also correct.
    try:
        url = normalize_url(raw, "http://b/")
    except Unparseable:
        return
    assert "[v" in url
    assert normalize_url(url, "http://b/") == url


@pytest.mark.parametrize(
    "raw",
    [
        "http://[::1]:8080/o.owl",
        "http://[::1]/",
        "http://user@[2001:DB8::1]:80/a/../b",
        "https://[FE80::A]:8443/x?q#f",
        "http://X:80/p#f",
    ],
)
def test_normalization_is_idempotent(raw):
    once = normalize_url(raw, "http://x/")
    assert normalize_url(once, "http://x/") == once
