from urllib.parse import urljoin

import oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from owse.errors import Unparseable, UnsupportedScheme
from owse.urls import _CANONICAL_BASE, _PLAIN_REF, host_of, join, normalize_url


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


@pytest.mark.parametrize(
    "raw, base, expected",
    [
        ("a;", "http://x/", "http://x/a;"),
        ("http://x/a;", "http://x/", "http://x/a;"),
        ("https://h/x;", "http://x/", "https://h/x;"),
        ("a;?q=1", "http://x/", "http://x/a;?q=1"),
        (";", "http://x/d/e", "http://x/d/;"),
        (";#f", "http://x/d/e", "http://x/d/;"),
        ("?q", "http://x/a;", "http://x/a;?q"),
        ("#f", "http://x/a;", "http://x/a;"),
        ("..;p", "http://x/d/", "http://x/d/..;p"),
        ("a;p", "http://x/d/", "http://x/d/a;p"),
        ("y", "http://x/a;p", "http://x/y"),
    ],
)
def test_semicolons_stay_in_the_path(raw, base, expected):
    # RFC 3986 has no ";params": a ";" is a path character like any other,
    # and "..;p" is no dot segment.
    assert normalize_url(raw, base) == expected


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


def test_host_of_includes_port():
    assert host_of("http://Example.org:8080/p") == "example.org:8080"


def test_host_of_leaves_out_userinfo():
    assert host_of("http://U:P@Example.org:8080/p") == "example.org:8080"
    assert host_of("http://u@[::1]/p") == "[::1]"


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


@pytest.mark.parametrize(
    "raw, expected",
    [
        ("http://u@[V1.FE]:8080/x", "http://u@[v1.fe]:8080/x"),
        ("http://[V1.fe]/x", "http://[v1.fe]/x"),
        ("HTTP://[Va.B:c]:80/x", "http://[va.b:c]/x"),
        ("\x01ht\ttp:/\n/u@[\rV1.FE]/x", "http://u@[v1.fe]/x"),
    ],
)
def test_ipvfuture_version_letter_is_case_insensitive(raw, expected):
    # RFC 3986 section 3.2.2: the "v" is case-insensitive, and owse
    # lowercases hosts, whatever this Python's urlsplit accepts.
    assert normalize_url(raw, "http://b/") == expected
    assert normalize_url("y", raw) == expected[:-1] + "y"


def test_ipvfuture_lowering_touches_only_the_host():
    assert normalize_url("//[V1.FE]/x", "http://b/") == "http://[v1.fe]/x"
    assert normalize_url("/a[V]", "http://b/") == "http://b/a[V]"
    assert normalize_url("http://b/?q=[V]", "http://b/") == "http://b/?q=[V]"


def outcome(raw, base, normalize):
    """normalize's URL, or the type and message of what it raised."""
    try:
        return normalize(raw, base)
    except Exception as exc:
        return type(exc), str(exc)


# Reference heads and pieces for the differential below: every way the
# fast path could part from urljoin/urlsplit. Brackets are left out; the
# IPvFuture test above covers them.
REF_HEADS = [
    "", "", "", "/", "../", "/../", "./", "//", "//h", " ", "\t", "\x01",
    "http://h", "HTTP://H.Test", "hTtPs://h:", "http://h:080", "https://h:0443", "https://h:443",
    "http://h:99999", "http://h:65535", "http://h:0", "http://u@h", "http://u:p@h", "http://h%41", "\x00http://h",
    "http://h:" + "9" * 5000,  # past int()'s default limit on digits
    "http:", "https:", "mailto:", "javascript:", "ftp://h", "0x:", "00080x.html:", "a1+.-:",
]
REF_PIECES = ["a", "b.html", "/", "/", "/", ".", "..", "./", "../", ";", ":", "0", "80", "%2e", "?", "#", "=", "A", "@"]
NOISE = ["\t", "\r", "\n", "\\", " ", "%", "x:", ";p"]
BASES = [
    "http://b/", "http://b/d/e.html", "http://b/d/", "https://b:8443/a/b/c?q", "http://b//x/", "http://b/a//b/",
    "http://b", "http://b:80/x", "http://b:/x", "http://b:080/x", "http://b:99999/x", "https://b:443/p/",
    "http://u@b/x", "http://B/x", "HTTP://b/x", "http://b/x;p/y", "http://b/x;", "http://b/x?q#f", "http://b/a/../b/",
    "http://b/\tx/", "http://b/a b/", "http://b?q", "mailto:x", "", "http://b:" + "9" * 5000 + "/",
]


@settings(max_examples=1500, deadline=None)
@given(
    st.sampled_from(REF_HEADS),
    st.lists(st.sampled_from(REF_PIECES), max_size=10).map("".join)
    | st.lists(st.sampled_from(REF_PIECES + NOISE), max_size=10).map("".join),
    st.sampled_from(BASES),
)
@example("", "a;", "http://b/d/")  # a ";" ending the path stays (urlparse reads empty ";params")
@example("", "../../a", "http://b/d/")  # ".." above the root, then the leading "/"
@example("", "a//b", "http://b/d//e")  # urljoin drops empty middle segments
@example("http://h:080", "/a", "http://b/")  # the default port, after int()
@example("", "a?", "http://b/")  # an empty query is dropped
@example("http:", "a", "http://b/d/")  # the base's scheme, so a relative path
@example("00080x.html:", "", "http://b/")  # a ":" in the first segment: a path, left to urlsplit
def test_fast_path_equals_urljoin_urlsplit(head, tail, base):
    raw = head + tail
    assert outcome(raw, base, normalize_url) == outcome(raw, base, oracle.normalize_url)


@pytest.mark.parametrize("base", ["?q", "#f", "a", "a/b", "a/b/", "/a/b", "/", "http:?q", "http:a/b"])
def test_join_equals_urljoin_on_bases_without_a_host(base):
    # The base's last segment goes unless it is empty: "a" against "?q",
    # whose path is empty, joins as "/a".
    for ref in ["a", "a/", ".", "..", "../..", "./a", "../a/b", "a//b", "?r", "#g"]:
        assert join(base, ref) == urljoin(base, ref), (base, ref)


@pytest.mark.parametrize(
    "raw",
    ["a.html", "/d/x.owl", "../up.html", "./here/", "a;", "HTTP://H.Test:80/p#top", "https://h/?q=1", "mailto:a@b", "javascript:void(0)"],
)
def test_plain_references_take_the_fast_path(raw):
    base = normalize_url("/d/p.html", "http://h.test/")
    assert _CANONICAL_BASE.match(base) and _PLAIN_REF.match(raw)
