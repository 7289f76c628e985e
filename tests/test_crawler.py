import html
import json
import random
import signal
import sys
import tempfile
import threading
import time
from collections import Counter, deque
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owse.crawler import (
    CrawlConfig,
    ResourceKind,
    StopReason,
    _Frontier,
    classify_resource,
    crawl,
    extract_html_links,
    extract_ontology_refs,
    parse_robots,
)
from owse.errors import ConfigError, OwseError
from owse.ontology import (
    OWL_IMPORTS,
    RDFS_LABEL,
    RDFS_SEEALSO,
    Iri,
    Literal,
    Triple,
    TripleSet,
    parse_rdfxml,
)
from owse.storage import OntologyRepository, UrlRepository
from owse.urls import host_of, normalize_url

from support import FIXTURE_HOST, StaticTransport, nested_rdf, reference_scan, static_site_from

RDF_BODY = b'<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"/>'


class TestClassifyResource:
    def test_extension_rule(self):
        assert classify_resource("http://x/a.owl", "", b"") is ResourceKind.ONTOLOGY
        assert classify_resource("http://x/a.rdf", "", b"") is ResourceKind.ONTOLOGY

    def test_html_content_type(self):
        assert (
            classify_resource("http://x/p", "text/html; charset=utf-8", b"<html>...")
            is ResourceKind.HTML
        )

    def test_body_sniff_beats_content_type(self):
        assert (
            classify_resource("http://x/d", "text/plain", b"junk <rdf:RDF junk")
            is ResourceKind.ONTOLOGY
        )

    def test_ontology_test_precedes_html_test(self):
        body = b"<html><body>owl:Ontology</body></html>"
        assert classify_resource("http://x/p", "text/html", body) is ResourceKind.ONTOLOGY

    def test_ontology_content_types(self):
        for content_type in ("application/rdf+xml", "application/owl+xml; charset=utf-8", "text/rdf"):
            assert classify_resource("http://x/p", content_type, b"") is ResourceKind.ONTOLOGY

    def test_html_sniff(self):
        assert classify_resource("http://x/p", "", b"<!doctype html><HTML>") is ResourceKind.HTML

    def test_other(self):
        assert classify_resource("http://x/p.css", "text/css", b"body {}") is ResourceKind.OTHER


class TestExtractHtmlLinks:
    def test_anchor_href_resolved(self):
        assert extract_html_links(b'<a href="a.owl">x</a>', "http://x/") == ["http://x/a.owl"]

    def test_no_anchors(self):
        assert extract_html_links(b"<p>nothing here</p>", "http://x/") == []

    def test_duplicates_preserved(self):
        body = b'<a href="p.html"><a href="p.html">'
        assert extract_html_links(body, "http://x/") == ["http://x/p.html", "http://x/p.html"]

    def test_link_tag_and_document_order(self):
        body = b'<link href="style.css"><a href="b.html">x</a>'
        assert extract_html_links(body, "http://x/") == ["http://x/style.css", "http://x/b.html"]

    def test_base_tag_honored(self):
        body = b'<base href="http://cdn/"><a href="a.html">x</a>'
        assert extract_html_links(body, "http://x/") == ["http://cdn/a.html"]

    def test_non_http_links_dropped(self):
        body = b'<a href="mailto:a@b">m</a><a href="javascript:void(0)">j</a><a href="ok.html">k</a>'
        assert extract_html_links(body, "http://x/") == ["http://x/ok.html"]

    def test_malformed_markup_tolerated(self):
        body = b'<a href="good.html"<<>< <a href=>broken<a href="also.html">'
        links = extract_html_links(body, "http://x/")
        assert "http://x/also.html" in links

    def test_entities_decoded(self):
        body = b'<a href="p?a=1&amp;b=2">x</a>'
        assert extract_html_links(body, "http://x/") == ["http://x/p?a=1&b=2"]

    @pytest.mark.parametrize("plain", [True, False])
    def test_first_href_with_a_value_wins_on_every_tag(self, plain):
        # As browsers keep the first of duplicate attributes; a trailing
        # comment changes nothing.
        body = (
            b'<base href href="http://a/" href="http://b/">'
            b'<a href="p.html" href="q.html">x</a><link href href="s.css" href="t.css">'
        ) + (b"" if plain else b"<!-- -->")
        assert extract_html_links(body, "http://x/") == ["http://a/p.html", "http://a/s.css"]

    def test_empty_base_href_is_skipped(self):
        body = b'<base href=""><base href="http://a/"><a href="p.html">x</a>'
        assert extract_html_links(body, "http://x/") == ["http://a/p.html"]

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=400))
    def test_arbitrary_bytes_yield_only_absolute_http_links(self, body):
        for link in extract_html_links(body, "http://x/d/"):
            assert link.startswith(("http://", "https://"))

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet="<!-/?>=\"' a\t[]", max_size=60))
    def test_markup_punctuation_never_raises(self, text):
        # html.parser raises AssertionError on some "<![" sections; no
        # "href" can be spelled from these characters.
        assert extract_html_links(text.encode(), "http://x/") == []

    def test_semicolon_ending_an_href_stays(self):
        # RFC 3986 keeps it in the path, where urljoin's urlparse reads it
        # as empty ";params" and drops it.
        assert extract_html_links(b'<a href="x;">', "http://h/") == ["http://h/x;"]
        for base in ("http://b/", "https://b/", "http://c/d;"):
            assert extract_html_links(b'<a href="http://h/x;">x</a>', base) == ["http://h/x;"]


# Hrefs whose normalization depends on the base in subtle ways (empty or
# whitespace-only authorities, characters urlsplit deletes, bad brackets
# and ports, other schemes), and a ";" ending the path.
HREFS = [
    "http://h/x;", "https://h/x;", "http:///x", "https:///x", "http://", "http:// ",
    "http://\t/x", "http://\n/x", "http://\r/x", "https://\r\n", "http://h\n/x", "http://h/\tx",
    "HTTP://H:80/", "https://H:443/a/../b", "http://h:8080", "http://h:bad/", "http://?q", "http://#f",
    "//host/x", "//", "../up", "a/./b/../c", "?q=1", "#top", "", " ", "x;",
    "http://u:p@h/x", "http://u@h", "http://[::1]/x", "http://[::1]:8080/", "http://[::1",
    "http://h]/", "mailto:a@b", "javascript:void(0)", "ftp://h/f", "\x00http://h/",
]
HREF_PIECES = [
    "http:", "https:", "HTTP:", "//", "/", "h", "H", ":80", ":443", ";", "..", ".",
    "?", "#", "@", "[", "]", "::1", " ", "\t", "\n", "\r", "x", "\u00e9",
]
# Same-scheme bases on different hosts and paths, a base urlsplit
# rejects, and one without a scheme.
BASES = [
    "http://b/", "http://c/d/p.html", "http://b/d/p;q?r", "https://b/", "https://c:8443/d/",
    "http://[::1", "d/p",
]
BASE_TAGS = [None, "http://cdn/", "https://cdn/s/", "/other/", "http://[::1", "mailto:x", "http:///x"]


def normalized_each(hrefs, base):
    """The links extract_html_links should give: normalize_url per href,
    those that do not normalize dropped."""
    links = []
    for href in hrefs:
        try:
            links.append(normalize_url(href, base))
        except OwseError:
            pass
    return links


def effective_base(base, base_tag):
    if base_tag:
        try:
            return normalize_url(base_tag, base)
        except OwseError:
            pass
    return base


class TestHrefResolution:
    """extract_html_links equals normalize_url per href against the
    page's effective base."""

    def check_pages(self, hrefs, pages):
        # Every page links the same hrefs, so each is resolved against
        # every base and base tag.
        links = "".join(f'<a href="{html.escape(h)}">x</a>' for h in hrefs)
        for base, base_tag in pages:
            head = f'<base href="{html.escape(base_tag)}">' if base_tag else ""
            body = (head + links).encode()
            expected = normalized_each(hrefs, effective_base(base, base_tag))
            assert extract_html_links(body, base) == expected, (base, base_tag)

    def test_listed_hrefs_on_every_base(self):
        self.check_pages(HREFS, [(base, tag) for base in BASES for tag in BASE_TAGS])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(st.sampled_from(HREFS), st.lists(st.sampled_from(HREF_PIECES), max_size=8).map("".join)),
            max_size=8,
        ),
        st.lists(st.tuples(st.sampled_from(BASES), st.sampled_from(BASE_TAGS)), max_size=6),
    )
    def test_links_equal_normalize_url(self, hrefs, pages):
        self.check_pages(hrefs, pages)


class TestHrefCharacterReferences:
    """An href's character references are decoded by the HTML5 rule for
    attribute values: a named reference without ";" stays as written when
    "=" or an ASCII letter or digit follows it."""

    @pytest.mark.parametrize(
        "href, link",
        [
            ("page?id=1&section=2&region=eu", "http://x/page?id=1&section=2&region=eu"),
            ("?a=1&copy=3", "http://x/?a=1&copy=3"),
            ("?a=&amp", "http://x/?a=&"),
            ("?a=&amp.b", "http://x/?a=&.b"),
            ("?a=&ampb", "http://x/?a=&ampb"),
            ("?a=&amp;b", "http://x/?a=&b"),
            ("?a=&lt-b", "http://x/?a=<-b"),
            ("?a=&copy;3", "http://x/?a=©3"),
            ("?a=&frac12", "http://x/?a=½"),
            ("?a=&frac123", "http://x/?a=&frac123"),
            ("?a=&notin;", "http://x/?a=∉"),
            ("?a=&notit;", "http://x/?a=&notit;"),
            ("?a=&noti", "http://x/?a=&noti"),
            ("?a=&nosuch;", "http://x/?a=&nosuch;"),
            ("?a=&#38;section=2", "http://x/?a=&section=2"),
            ("?a=&#x26section=2", "http://x/?a=&section=2"),
            ("?a=1&Section=2", "http://x/?a=1&Section=2"),
            ("?a=&AMP=1", "http://x/?a=&AMP=1"),
        ],
    )
    def test_named_reference_before_a_letter_digit_or_equals_stays(self, href, link):
        for quoted in (f'"{href}"', f"'{href}'", href):
            assert extract_html_links(f"<a href={quoted}>".encode(), "http://x/") == [link]
        assert normalized_each(*reference_scan(f'<a href="{href}">', "http://x/")) == [link]

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                ["&", "&#", "amp", "AMP", "sect", "ion", "not", "in", "it", "frac12", "copy", "lt", "x", "X",
                 "38", "26", "3", "a", "Z", ";", "=", " ", "-", "?", "&amp;"]
            ),
            max_size=12,
        ).map("".join)
    )
    def test_references_decode_as_the_reference_decodes(self, href):
        text = f'<a href="{href}">'
        assert extract_html_links(text.encode(), "http://x/") == normalized_each(*reference_scan(text, "http://x/"))


# Pieces of a plain document: markup that every html.parser from Python
# 3.10 on reads alike, so the link scan must give html.parser's links.
PLAIN_PIECES = [
    "<!DOCTYPE html>", "<html>", "</html>", "<p>", "</P>", "some text ", "1 > 0 & 2 ", "&amp;", "\n",
    '<a href="a.html">', "</a>", "<a href='b.html' title=\"t\">", '<A HREF="UP.html" Class=\'c\'>',
    '<link rel="x" href="s.css"/>', "<a class href='c.html' href=\"dup.html\">", '<a href="">', "<a href>",
    '<a href="?a=1&amp;b=2">', '<a href="&#47;slash&#x2F;">', "<a href='a & b&&#'>", '<a href="café \xa0">',
    '<a href="p?id=1&section=2&region=eu">', "<a href='?x=&copy=3&copy;&not&notin;&notit;&frac123'>",
    '<a\nhref="nl.html"\t>', '<base href="http://cdn/">', '<base href="http://a/" href="http://b/">',
    "<BASE HREF='/rel/'>", "<base>", '<base href="">', "<br/>", '<img src="i.png" />', "<a/>", "<abbr>",
    "<script>var x = 1 > 0;</script>", '<style type="text/css">p {}</style>', "<title>t</title>",
    "<TEXTAREA>x</textarea>", "<script/></script>", "<scripts>", "</script>", "<noscript></NOSCRIPT>",
]
# Every other piece: comments, raw text holding tags, declarations and tags
# that some Python version's html.parser reads differently, and stray "<".
# Each maps to the links of <p>{piece}<a href="after.html"></p> on
# http://x/ by the HTML5 tokenizer's rules; "html.parser" notes where
# 3.11.7's html.parser gives other links.
AFTER = "http://x/after.html"
OTHER_PIECES = {
    "<!-- c -->": [AFTER],
    '<!-- <a href="in-comment.html"> -->': [AFTER],
    "<!--x--!>": [AFTER],
    "<!--": [],
    "<!---->": [AFTER],
    '<script><a href="in-script.html"></script>': [AFTER],
    '<style><a href="in-style.html"></style>': [AFTER],
    '<title><a href="in-title.html"></title>': [AFTER],  # html.parser: in-title.html too
    '<textarea><a href="in-textarea.html"></textarea>': [AFTER],  # html.parser: in-textarea.html too
    "<script>": [],
    "<title>": [],  # html.parser: after.html
    "<!DOCTYPE <x>": [AFTER],
    "<!DOCTYPE": [],
    "<?pi>": [AFTER],
    '<![CDATA[ <a href="cdata.html"> ]]>': [AFTER],
    "<![x]>": [AFTER],  # html.parser raises AssertionError on this and the next two
    "<![foo[ bar ]]>": [AFTER],
    "<!DOCTYPE html><![ x": [],
    "<a href=bare.html>": ["http://x/bare.html", AFTER],
    '<a href = "spaced.html">': ["http://x/spaced.html", AFTER],
    '<a\x0bhref="vt.html">': [AFTER],
    '<a\xa0href="nbsp.html">': [AFTER],
    '<a href="q.html"title="t">': ["http://x/q.html", AFTER],
    " < ": [AFTER],
    "<": [AFTER],
    "</": [],
    "</ p>": [AFTER],
    "<plaintext>": [],  # html.parser: after.html
    '<a href="<x>">': ["http://x/<x>", AFTER],
    '<a href="x>y">': ["http://x/x>y", AFTER],
    "<a\x00>": [AFTER],
    "<o:p>": [AFTER],
    "<a =x>": [AFTER],
    "<a href==x.html>": ["http://x/=x.html", AFTER],  # html.parser: http://x/x.html
    '<base href="http://c/"<p>': ["http://c/after.html"],
    '<a href="x&quot">': ['http://x/x"', AFTER],
    '<a href="?a=1&copy=2">': ["http://x/?a=1&copy=2", AFTER],  # html.parser: ?a=1©=2
    '<a href="&notit;">': ["http://x/&notit;", AFTER],  # html.parser: ¬it
    '<a href="&AMP;">': ["http://x/&", AFTER],
}
# Constructs that hide the tag put in place of {}, and end before the
# text after them.
HIDING = [
    "<!--{}-->", "<!-- {} --!>", "<script>{}</script>", "<SCRIPT>{}</script >", "<style>{}</style>",
    "<title>{}</title>", "<textarea>{}</textarea>", "<xmp>{}</xmp>", "<iframe>{}</iframe>",
    "<noembed>{}</noembed>", "<noframes>{}</noframes>", "<?{}", "<!{}", "<![CDATA[{}", "</ {}",
    "<p title='{}'>",
]


def generated_page(base):
    """A page in the shape of the benchmark's synthetic webs."""
    head = f'<base href="{base}">' if base else ""
    return (
        f"<!DOCTYPE html>\n<html>\n<head><title>page 7</title>{head}</head>\n<body>\n"
        '<p>owl class term <a href="/s3/p12.html">property</a></p>\n'
        '<p>range domain <a href="http://h2.site0.test/onts/o4.owl">label</a></p>\n'
        '<p>see also <a href="../s1/p3.html#top">comment</a></p>\n'
        '<p>instance of <a href="mailto:webmaster@example.org">class</a></p>\n'
        '<p>sub class <a href="http://[::1">term</a></p>\n'
        '<link rel="stylesheet" href="/s3/p12.html">\n'
        "</body>\n</html>\n"
    )


@contextmanager
def time_limit(seconds):
    """Fail, rather than hang, when the body runs past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestPlainScan:
    """The one-pass scan is the only path a page takes. On plain pages it
    gives html.parser's links, on every other piece the listed links, and
    on hostile pages it finishes in linear time."""

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(st.sampled_from(PLAIN_PIECES), max_size=12),
        st.sampled_from(["http://x/d/p.html", "https://y/"]),
    )
    def test_links_equal_the_tolerant_parser(self, pieces, base):
        text = "".join(pieces)
        assert extract_html_links(text.encode(), base) == normalized_each(*reference_scan(text, base))

    @pytest.mark.parametrize("piece", PLAIN_PIECES)
    def test_plain_pieces_take_the_fast_path(self, piece):
        text = f'<p>{piece}<a href="after.html"></p>'
        links = extract_html_links(text.encode(), "http://x/")
        assert links == normalized_each(*reference_scan(text, "http://x/"))
        assert links[-1].endswith("/after.html")  # a plain piece hides nothing

    @pytest.mark.parametrize("piece", OTHER_PIECES)
    def test_other_pieces_take_the_tolerant_parser(self, piece):
        text = f'<p>{piece}<a href="after.html"></p>'
        assert extract_html_links(text.encode(), "http://x/") == OTHER_PIECES[piece]

    def test_fixture_and_generated_pages_take_the_fast_path(self, webroot):
        pages = [path.read_text() for path in sorted(webroot.rglob("*.html"))]
        pages += [generated_page(None), generated_page("http://h1.site0.test/s2/")]
        for text in pages:
            expected = normalized_each(*reference_scan(text, "http://fixture.test/d/"))
            assert extract_html_links(text.encode(), "http://fixture.test/d/") == expected

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(PLAIN_PIECES), max_size=6),
        st.lists(st.sampled_from(PLAIN_PIECES), max_size=6),
        st.sampled_from(HIDING),
        st.sampled_from(["http://x/d/p.html", "https://y/"]),
    )
    def test_wrapping_a_link_in_a_hiding_construct_removes_exactly_that_link(self, before, after, hiding, base):
        head, tail, link = "".join(before), "".join(after), '<a href="hidden.html">'
        links = extract_html_links((head + tail).encode(), base)
        shown = extract_html_links((head + link + tail).encode(), base)
        assert len(shown) == len(links) + 1
        assert [url for url in shown if not url.endswith("/hidden.html")] == links
        assert extract_html_links((head + hiding.format(link) + tail).encode(), base) == links

    @pytest.mark.parametrize(
        "text",
        [
            "x" * (1 << 20) + "<!--",
            "<p" + " " * 100_000,
            "<p" + ' a="b"' * 10_000 + " <",
            "<p>x</p>" * 50_000 + "<a",
            '<p title="' + "&#" * 40 + '"<',
            '<a href="' + "&#109;" * 40 + '">x</a><!-- -->',
            "<p title='" + "&&amp;&#" * 40 + "'<",
            "<a " * ((1 << 20) // 3),
            "<!--" * (1 << 18),
            "</x " * (1 << 18),
        ],
        ids=[
            "long-text", "long-tag", "many-attributes", "many-tags", "bare-refs", "numeric-refs", "mixed-refs",
            "open-tags", "open-comments", "open-end-tags",
        ],
    )
    def test_hostile_document_is_found_not_plain_in_linear_time(self, text):
        # A repetition that can stop short of ">" or the end, or two
        # branches that both match some text, would backtrack on these.
        with time_limit(10):
            started = time.monotonic()
            extract_html_links(text.encode(), "http://x/")
            assert time.monotonic() - started < 1


class TestExtractOntologyRefs:
    def parse(self, inner):
        body = (
            '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
            ' xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"'
            ' xmlns:owl="http://www.w3.org/2002/07/owl#">'
            f"{inner}</rdf:RDF>"
        ).encode()
        return parse_rdfxml(body, base="http://x/o")

    def test_imports_extracted(self):
        triples = self.parse(
            '<owl:Ontology rdf:about=""><owl:imports rdf:resource="http://y/b.owl"/></owl:Ontology>'
        )
        assert extract_ontology_refs(triples) == ["http://y/b.owl"]

    def test_see_also_extracted_deduplicated(self):
        triples = self.parse(
            '<owl:Class rdf:about="#A"><rdfs:seeAlso rdf:resource="http://y/c.rdf"/></owl:Class>'
            '<owl:Class rdf:about="#B"><rdfs:seeAlso rdf:resource="http://y/c.rdf"/></owl:Class>'
        )
        assert extract_ontology_refs(triples) == ["http://y/c.rdf"]

    def test_no_refs(self):
        assert extract_ontology_refs(self.parse('<owl:Class rdf:about="#A"/>')) == []

    def test_non_http_scheme_filtered(self):
        triples = self.parse(
            '<owl:Ontology rdf:about=""><owl:imports rdf:resource="urn:x:y"/></owl:Ontology>'
        )
        assert extract_ontology_refs(triples) == []

    def test_many_refs_deduplicated_in_first_seen_order(self):
        rng = random.Random(5)
        refs = [f"http://y/{n}.owl" for n in range(4000)] + [f"urn:x:{n}" for n in range(100)]
        rows = []
        for ref in rng.choices(refs, k=12000):
            predicate = rng.choice([OWL_IMPORTS, RDFS_SEEALSO, RDFS_LABEL])
            obj = Literal(ref) if rng.random() < 0.05 else Iri(ref)
            rows.append(Triple(Iri(f"http://x/o#{len(rows)}"), Iri(predicate), obj))
        expected = dict.fromkeys(
            obj for _, predicate, obj in rows
            if predicate != RDFS_LABEL and isinstance(obj, Iri) and obj.startswith("http:")
        )
        assert extract_ontology_refs(TripleSet(triples=rows)) == list(expected)


class TestParseRobots:
    def test_star_group_disallows(self):
        rules = parse_robots("User-agent: *\nDisallow: /private/\nDisallow: /tmp/\n")
        assert rules == ["/private/", "/tmp/"]

    def test_other_agent_group_ignored(self):
        rules = parse_robots("User-agent: bot\nDisallow: /a/\n\nUser-agent: *\nDisallow: /b/\n")
        assert rules == ["/b/"]

    def test_empty_disallow_allows_everything(self):
        assert parse_robots("User-agent: *\nDisallow:\n") == []

    def test_comments_and_blank_lines(self):
        text = "# policy\nUser-agent: * # everyone\nDisallow: /x/ # drafts\n"
        assert parse_robots(text) == ["/x/"]

    def test_other_rule_closes_the_group(self):
        # After any rule, a User-agent line starts a new group.
        assert parse_robots("User-agent: *\nAllow: /pub/\nUser-agent: bot\nDisallow: /x/\n") == []

    def test_byte_order_mark_is_ignored(self):
        assert parse_robots("\ufeffUser-agent: *\nDisallow: /private/\n") == ["/private/"]

    # RFC 9309, section 2.2.1: the group for the crawler's product token
    # (owse-crawler, from the User-Agent owse sends) takes the place of *.
    def test_product_token_group_replaces_star(self):
        text = "User-agent: *\nDisallow: /b/\n\nUser-agent: owse-crawler\nDisallow: /a/\n"
        assert parse_robots(text) == ["/a/"]

    @pytest.mark.parametrize("token", ["OWSE-CRAWLER", "Owse-Crawler", "owse-crawler"])
    def test_product_token_matches_case_insensitively(self, token):
        text = f"User-agent: {token}\nDisallow: /a/\nUser-agent: *\nDisallow: /b/\n"
        assert parse_robots(text) == ["/a/"]

    def test_product_token_groups_combine(self):
        text = (
            "User-agent: owse-crawler\nDisallow: /a/\n\n"
            "User-agent: *\nDisallow: /b/\n\n"
            "User-agent: other\nUser-agent: Owse-Crawler\nDisallow: /c/\n"
        )
        assert parse_robots(text) == ["/a/", "/c/"]

    def test_product_token_group_without_disallow_allows_everything(self):
        assert parse_robots("User-agent: *\nDisallow: /\n\nUser-agent: owse-crawler\nAllow: /\n") == []
        assert parse_robots("User-agent: *\nDisallow: /\n\nUser-agent: owse-crawler\n") == []

    def test_star_groups_combine_when_no_product_token_group(self):
        text = "User-agent: *\nDisallow: /a/\n\nUser-agent: owse\nDisallow: /x/\n\nUser-agent: *\nDisallow: /b/\n"
        assert parse_robots(text) == ["/a/", "/b/"]

    def test_product_token_is_not_a_prefix_match(self):
        text = "User-agent: owse-crawler-beta\nDisallow: /a/\nUser-agent: *\nDisallow: /b/\n"
        assert parse_robots(text) == ["/b/"]


class ReferenceFrontier:
    """One deque scanned front to back: a dispatch takes the
    earliest-enqueued entry whose host is not busy."""

    def __init__(self):
        self.items = deque()

    def push(self, url, depth, referrer):
        self.items.append((url, depth, referrer))

    def pop_dispatchable(self, busy_hosts):
        for i, (url, depth, referrer) in enumerate(self.items):
            if host_of(url) not in busy_hosts:
                del self.items[i]
                return url, depth, referrer, host_of(url)
        return None


FRONTIER_HOSTS = [f"h{i}.test" for i in range(12)] + ["h0.test:8080"]
FRONTIER_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.sampled_from(FRONTIER_HOSTS), st.integers(0, 4)),
        st.tuples(st.just("pop"), st.frozensets(st.sampled_from(FRONTIER_HOSTS), max_size=6)),
    ),
    max_size=300,
)


class TestFrontier:
    @settings(max_examples=300, deadline=None)
    @given(FRONTIER_OPS)
    def test_every_pop_matches_deque_scan(self, ops):
        frontier, reference = _Frontier(), ReferenceFrontier()
        for n, op in enumerate(ops):
            if op[0] == "push":
                _, host, depth = op
                url, referrer = f"http://{host}/p{n}.html", f"http://{host}/"
                frontier.push(url, depth, referrer)
                reference.push(url, depth, referrer)
            else:
                assert frontier.pop_dispatchable(op[1]) == reference.pop_dispatchable(op[1])
        while reference.items:
            assert frontier.pop_dispatchable(set()) == reference.pop_dispatchable(set())
        assert frontier.pop_dispatchable(set()) is None


def reference_bfs(seeds, links, max_depth):
    """Fetch order of a breadth-first crawl over ``links`` (page -> targets)."""
    order, seen, queue = [], set(seeds), deque((seed, 0) for seed in seeds)
    while queue:
        url, depth = queue.popleft()
        order.append(url)
        for target in links.get(url, []) if depth < max_depth else []:
            if target not in seen:
                seen.add(target)
                queue.append((target, depth + 1))
    return order


class SlowStaticTransport(StaticTransport):
    """StaticTransport whose fetches take ``delay`` seconds, counting the
    most requests in flight to one host (userinfo left out) and to all
    hosts together."""

    def __init__(self, pages, delay=0.02):
        super().__init__(pages)
        self.delay = delay
        self.most_in_flight = 0
        self.most_in_flight_overall = 0
        self._in_flight: Counter = Counter()

    def get(self, url):
        host = url.split("/")[2].rpartition("@")[2]
        with self._lock:
            self._in_flight[host] += 1
            self.most_in_flight = max(self.most_in_flight, self._in_flight[host])
            self.most_in_flight_overall = max(self.most_in_flight_overall, self._in_flight.total())
        try:
            time.sleep(self.delay)
            return super().get(url)
        finally:
            with self._lock:
                self._in_flight[host] -= 1


def multi_host_site(hosts, leaves=2):
    """Pages on each host: an index.html that links its leaf pages."""
    pages = {}
    for host in hosts:
        names = [f"p{i}.html" for i in range(leaves)]
        pages[f"{host}/index.html"] = (200, "text/html", "".join(f'<a href="{n}">' for n in names).encode())
        pages.update({f"{host}/{name}": (200, "text/html", b"<p>leaf</p>") for name in names})
    return pages


def run_crawl(transport, tmp_path, **overrides):
    defaults = dict(
        seeds=[f"{FIXTURE_HOST}/index.html"],
        max_pages=100,
        max_ontologies=100,
        max_depth=3,
        politeness_ms=0,
        follow_ontology_links=False,
        workers=1,
    )
    defaults.update(overrides)
    config = CrawlConfig(**defaults)
    url_repo = UrlRepository(tmp_path)
    ontology_repo = OntologyRepository(tmp_path)
    report = crawl(config, transport, url_repo, ontology_repo)
    return report, url_repo, ontology_repo


class TestCrawl:
    def test_discovers_three_ontologies_without_import_following(self, tmp_path, webroot, expected_crawl):
        transport = static_site_from(webroot)
        report, url_repo, _ = run_crawl(transport, tmp_path)
        assert report.ontologies_found == 3
        assert report.pages_fetched == expected_crawl["html_pages_fetched_by_max_depth"]["3"]
        assert report.stop_reason is StopReason.FRONTIER_EXHAUSTED
        assert sorted(r.url for r in url_repo.scan()) == sorted(
            FIXTURE_HOST + path for path in expected_crawl["ontology_paths_no_follow"]
        )

    def test_import_following_finds_fourth_ontology(self, tmp_path, webroot, expected_crawl):
        transport = static_site_from(webroot)
        report, url_repo, _ = run_crawl(transport, tmp_path, follow_ontology_links=True)
        assert report.ontologies_found == 4
        journaled = {r.url: r for r in url_repo.scan()}
        metadata = journaled[f"{FIXTURE_HOST}/onts/metadata.rdf"]
        assert metadata.depth == 3
        assert metadata.referrer == f"{FIXTURE_HOST}/onts/library.rdf"

    def test_workers_one_fetch_order_is_bfs(self, tmp_path, webroot, expected_crawl):
        transport = static_site_from(webroot)
        run_crawl(transport, tmp_path)
        fetched = [url for url in transport.requested_urls() if not url.endswith("/robots.txt")]
        expected = [FIXTURE_HOST + path for path in expected_crawl["bfs_fetch_order_depth3_no_follow"]]
        assert fetched == expected

    @pytest.mark.parametrize("site_seed", range(4))
    def test_workers_one_multi_host_fetch_order_is_bfs(self, tmp_path, site_seed):
        rng = random.Random(site_seed)
        hosts = [f"http://h{i}.test" for i in range(4)]
        pages = [f"{rng.choice(hosts)}/p{i}.html" for i in range(24)]
        ontologies = [f"{rng.choice(hosts)}/o{i}.owl" for i in range(8)]
        links = {page: rng.sample(pages + ontologies, 4) for page in pages}
        site = {
            page: (200, "text/html", "".join(f'<a href="{t}">' for t in targets).encode())
            for page, targets in links.items()
        }
        site.update({o: (200, "application/rdf+xml", RDF_BODY) for o in ontologies})
        transport = StaticTransport(site)
        seeds = pages[:2]
        run_crawl(transport, tmp_path, seeds=seeds, max_depth=3)
        fetched = [url for url in transport.requested_urls() if not url.endswith("/robots.txt")]
        assert fetched == reference_bfs(seeds, links, max_depth=3)

    def test_no_url_fetched_twice(self, tmp_path, webroot):
        transport = static_site_from(webroot)
        run_crawl(transport, tmp_path, follow_ontology_links=True)
        fetched = [u for u in transport.requested_urls() if not u.endswith("/robots.txt")]
        assert len(fetched) == len(set(fetched))

    def test_page_budget_stops_crawl(self, tmp_path, webroot):
        transport = static_site_from(webroot)
        report, _, _ = run_crawl(transport, tmp_path, max_pages=1)
        assert report.pages_fetched == 1
        assert report.stop_reason is StopReason.PAGE_BUDGET

    def test_ontology_budget_stops_crawl(self, tmp_path, webroot):
        transport = static_site_from(webroot)
        report, _, _ = run_crawl(transport, tmp_path, max_ontologies=1)
        assert report.ontologies_found == 1
        assert report.stop_reason is StopReason.ONTOLOGY_BUDGET

    def test_depth_zero_fetches_only_seed(self, tmp_path, webroot):
        transport = static_site_from(webroot)
        report, _, _ = run_crawl(transport, tmp_path, max_depth=0)
        assert report.pages_fetched == 1
        assert report.ontologies_found == 0

    def test_journaled_depths_bounded(self, tmp_path, webroot):
        transport = static_site_from(webroot)
        _, url_repo, _ = run_crawl(transport, tmp_path, max_depth=2)
        records = url_repo.scan()
        assert records and all(r.depth <= 2 for r in records)

    def test_seed_404_is_recorded_not_fatal(self, tmp_path, webroot):
        transport = static_site_from(webroot)
        report, _, _ = run_crawl(
            transport, tmp_path, seeds=[f"{FIXTURE_HOST}/missing.html"]
        )
        assert report.pages_fetched == 1
        assert report.ontologies_found == 0
        assert ("http://fixture.test/missing.html", "http-404") in report.errors

    def test_connection_failure_consumes_page_budget(self, tmp_path, webroot):
        transport = static_site_from(webroot)
        transport.failures.add(f"{FIXTURE_HOST}/a.html")
        report, _, _ = run_crawl(transport, tmp_path)
        assert any(kind == "connection" for _, kind in report.errors)
        # a.html's subtree (a1, a2, library, deep1, pizza) is unreachable
        assert report.ontologies_found == 1

    def test_empty_ontology_is_an_error_that_stores_nothing(self, tmp_path):
        index, empty = "http://h.test/index.html", "http://h.test/empty.owl"
        transport = StaticTransport(
            {index: (200, "text/html", b'<a href="empty.owl">'), empty: (200, "application/rdf+xml", b"")}
        )
        report, url_repo, ontology_repo = run_crawl(transport, tmp_path, seeds=[index])
        assert empty in transport.requested_urls()
        assert report.errors == [(empty, "empty-document")]
        assert (report.pages_fetched, report.ontologies_found) == (2, 0)
        assert (url_repo.scan(), ontology_repo.manifest(), ontology_repo.count()) == ([], [], 0)

    def test_robots_disallow_skips_url(self, tmp_path, webroot):
        transport = static_site_from(webroot)
        report, _, _ = run_crawl(transport, tmp_path)
        assert f"{FIXTURE_HOST}/private/hidden.html" not in transport.requested_urls()
        assert (f"{FIXTURE_HOST}/private/hidden.html", "robots-disallowed") in report.errors

    def test_robots_group_for_the_product_token_governs_the_crawl(self, tmp_path):
        # * disallows everything, but owse-crawler's own group only /private/.
        index, page, private = "http://h.test/index.html", "http://h.test/a.html", "http://h.test/private/b.html"
        robots = b"User-agent: *\nDisallow: /\n\nUser-agent: OWSE-Crawler\nDisallow: /private/\n"
        transport = StaticTransport(
            {
                "http://h.test/robots.txt": (200, "text/plain", robots),
                index: (200, "text/html", b'<a href="a.html"><a href="private/b.html">'),
                page: (200, "text/html", b"<p>a</p>"),
                private: (200, "text/html", b"<p>b</p>"),
            }
        )
        report, _, _ = run_crawl(transport, tmp_path, seeds=[index])
        assert transport.requested_urls() == ["http://h.test/robots.txt", index, page]
        assert report.errors == [(private, "robots-disallowed")]

    def test_robots_fetched_once_not_counted(self, tmp_path, webroot, expected_crawl):
        transport = static_site_from(webroot)
        report, _, _ = run_crawl(transport, tmp_path)
        robots = [u for u in transport.requested_urls() if u.endswith("/robots.txt")]
        assert robots == [f"{FIXTURE_HOST}/robots.txt"]
        assert report.pages_fetched == expected_crawl["html_pages_fetched_by_max_depth"]["3"]

    def test_redirect_final_url_is_canonical_identity(self, tmp_path, webroot):
        transport = static_site_from(webroot)
        moved = f"{FIXTURE_HOST}/moved.owl"
        transport.redirects[moved] = f"{FIXTURE_HOST}/onts/library.rdf"
        report, url_repo, _ = run_crawl(transport, tmp_path, seeds=[moved], max_depth=0)
        assert report.ontologies_found == 1
        assert [r.url for r in url_repo.scan()] == [f"{FIXTURE_HOST}/onts/library.rdf"]

    @pytest.mark.parametrize("alias_first", [False, True])
    def test_redirect_alias_of_stored_ontology_counted_once(self, tmp_path, alias_first):
        index, target = "http://h.test/index.html", "http://h.test/o.owl"
        alias = "http://h.test/alias.owl"
        hrefs = ["alias.owl", "o.owl"] if alias_first else ["o.owl", "alias.owl"]
        transport = StaticTransport(
            {
                index: (200, "text/html", "".join(f'<a href="{h}">' for h in hrefs).encode()),
                target: (200, "application/rdf+xml", RDF_BODY),
            }
        )
        transport.redirects[alias] = target
        report, url_repo, ontology_repo = run_crawl(transport, tmp_path, seeds=[index])
        assert alias in transport.requested_urls() and target in transport.requested_urls()
        assert report.ontologies_found == 1
        assert report.pages_fetched == 2  # the index page and the second ontology fetch
        assert report.errors == []
        assert [r.url for r in url_repo.scan()] == [target]
        assert [e["source_url"] for e in ontology_repo.manifest()] == [target]

    def test_redirect_alias_with_ontology_links_followed(self, tmp_path):
        index, target = "http://h.test/index.html", "http://h.test/o.owl"
        alias, imported = "http://h.test/alias.owl", "http://h.test/i.owl"
        importing = (
            b'<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
            b' xmlns:owl="http://www.w3.org/2002/07/owl#">'
            b'<owl:Ontology rdf:about=""><owl:imports rdf:resource="i.owl"/></owl:Ontology></rdf:RDF>'
        )
        transport = StaticTransport(
            {
                index: (200, "text/html", b'<a href="alias.owl"><a href="o.owl">'),
                target: (200, "application/rdf+xml", importing),
                imported: (200, "application/rdf+xml", RDF_BODY),
            }
        )
        transport.redirects[alias] = target
        report, url_repo, _ = run_crawl(transport, tmp_path, seeds=[index], follow_ontology_links=True)
        robots = "http://h.test/robots.txt"
        assert sorted(transport.requested_urls()) == sorted([robots, index, alias, target, imported])
        assert report.ontologies_found == 2
        assert report.pages_fetched == 2  # the index page and the second fetch of o.owl
        assert [r.url for r in url_repo.scan()] == [target, imported]

    def test_recrawl_of_same_site_stores_nothing(self, tmp_path, webroot, expected_crawl):
        run_crawl(static_site_from(webroot), tmp_path)
        journal, manifest = tmp_path / "urls.jsonl", tmp_path / "ontologies" / "manifest.jsonl"
        before = journal.read_bytes(), manifest.read_bytes()
        report, _, _ = run_crawl(static_site_from(webroot), tmp_path)
        assert report.ontologies_found == 0
        # every journaled ontology is a fetch that stores nothing
        assert report.pages_fetched == expected_crawl["html_pages_fetched_by_max_depth"]["3"] + 3
        assert report.errors == [(f"{FIXTURE_HOST}/private/hidden.html", "robots-disallowed")]
        assert (journal.read_bytes(), manifest.read_bytes()) == before
        assert len(manifest.read_bytes().splitlines()) == 3

    def test_recrawl_reads_the_manifest_once(self, tmp_path, webroot, monkeypatch):
        run_crawl(static_site_from(webroot), tmp_path)
        reads = []
        manifest = OntologyRepository.manifest
        monkeypatch.setattr(OntologyRepository, "manifest", lambda repo: reads.append(repo) or manifest(repo))
        report, _, _ = run_crawl(static_site_from(webroot), tmp_path)
        assert report.ontologies_found == 0
        assert len(reads) <= 1

    def test_recrawl_stores_a_new_ontology_once_behind_a_redirect_alias(self, tmp_path):
        index, old = "http://h.test/index.html", "http://h.test/old.owl"
        alias, target = "http://h.test/alias.owl", "http://h.test/o.owl"
        pages = {index: (200, "text/html", b'<a href="old.owl">'), old: (200, "application/rdf+xml", RDF_BODY)}
        run_crawl(StaticTransport(pages), tmp_path, seeds=[index])
        pages[index] = (200, "text/html", b'<a href="old.owl"><a href="alias.owl"><a href="o.owl">')
        pages[target] = (200, "application/rdf+xml", RDF_BODY)
        transport = StaticTransport(pages)
        transport.redirects[alias] = target
        # old.owl, fetched first, reads the store's map before o.owl is stored
        report, _, ontology_repo = run_crawl(transport, tmp_path, seeds=[index])
        assert report.ontologies_found == 1
        assert [e["source_url"] for e in ontology_repo.manifest()] == [old, target]

    def test_deeply_nested_ontology_does_not_stop_the_crawl(self, tmp_path):
        index, deep, after = "http://h.test/index.html", "http://h.test/deep.rdf", "http://h.test/after.owl"
        transport = StaticTransport(
            {
                index: (200, "text/html", b'<a href="deep.rdf"><a href="after.owl">'),
                deep: (200, "application/rdf+xml", nested_rdf(600)),
                after: (200, "application/rdf+xml", RDF_BODY),
            }
        )
        report, url_repo, _ = run_crawl(transport, tmp_path, seeds=[index], follow_ontology_links=True)
        assert report.stop_reason is StopReason.FRONTIER_EXHAUSTED
        assert [r.url for r in url_repo.scan()] == [deep, after]

    @pytest.mark.parametrize("damage", ["tampered", "deleted", "never-stored"])
    def test_recrawl_repairs_a_missing_or_corrupt_stored_object(self, tmp_path, webroot, expected_crawl, damage):
        _, url_repo, ontology_repo = run_crawl(static_site_from(webroot), tmp_path)
        url = url_repo.scan()[0].url
        blob_id = ontology_repo.url_map()[url]
        data = ontology_repo.get(blob_id)
        obj = ontology_repo.objects_dir / f"{blob_id}.rdf"
        if damage == "tampered":
            obj.write_bytes(b"tampered")
        else:
            obj.unlink()
        manifest = ontology_repo.manifest_path
        if damage == "never-stored":  # a crash between journaling and storing
            kept = [line for line in manifest.read_text().splitlines(True) if json.loads(line)["source_url"] != url]
            manifest.write_text("".join(kept))
        journal, entries = (tmp_path / "urls.jsonl").read_bytes(), ontology_repo.manifest()
        report, _, _ = run_crawl(static_site_from(webroot), tmp_path)
        assert report.ontologies_found == 0
        assert report.pages_fetched == expected_crawl["html_pages_fetched_by_max_depth"]["3"] + 3
        assert ontology_repo.get(ontology_repo.url_map()[url]) == data
        assert (tmp_path / "urls.jsonl").read_bytes() == journal
        [repair] = ontology_repo.manifest()[len(entries):]
        assert (repair["id"], repair["source_url"]) == (blob_id, url)

    @pytest.mark.parametrize("follow", [False, True])
    def test_recrawl_after_ontology_budget_finds_the_rest(self, tmp_path, webroot, expected_crawl, follow):
        first, url_repo, _ = run_crawl(
            static_site_from(webroot), tmp_path, max_ontologies=1, follow_ontology_links=follow
        )
        assert first.stop_reason is StopReason.ONTOLOGY_BUDGET
        assert [r.url for r in url_repo.scan()] == [f"{FIXTURE_HOST}/onts/library.rdf"]
        # library.rdf imports metadata.rdf; the first run stopped before fetching it
        report, url_repo, ontology_repo = run_crawl(
            static_site_from(webroot), tmp_path, follow_ontology_links=follow
        )
        paths = expected_crawl["ontology_paths_with_follow" if follow else "ontology_paths_no_follow"]
        assert report.ontologies_found == len(paths) - 1
        assert sorted(r.url for r in url_repo.scan()) == sorted(FIXTURE_HOST + p for p in paths)
        stored = sorted(e["source_url"] for e in ontology_repo.manifest())
        assert stored == sorted(FIXTURE_HOST + p for p in paths)

    def test_oversize_body_recorded_as_error(self, tmp_path, webroot):
        transport = static_site_from(webroot)
        real_get = transport.get

        def truncating_get(url):
            response = real_get(url)
            if url.endswith("library.rdf"):
                response.truncated = True
            return response

        transport.get = truncating_get
        report, url_repo, _ = run_crawl(transport, tmp_path)
        assert (f"{FIXTURE_HOST}/onts/library.rdf", "oversize") in report.errors
        assert report.ontologies_found == 2
        assert all(not r.url.endswith("library.rdf") for r in url_repo.scan())

    def test_politeness_spacing_single_host(self, tmp_path, webroot):
        transport = static_site_from(webroot)
        report, _, _ = run_crawl(transport, tmp_path, politeness_ms=50, max_pages=4)
        starts = [t for _, t in transport.log]
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        assert all(gap >= 0.050 for gap in gaps)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_failed_requests_still_space_later_starts(self, tmp_path, webroot, workers):
        transport = static_site_from(webroot)
        robots, page = f"{FIXTURE_HOST}/robots.txt", f"{FIXTURE_HOST}/a.html"
        transport.failures |= {robots, page}
        report, _, _ = run_crawl(transport, tmp_path, politeness_ms=50, max_pages=4, workers=workers)
        assert transport.requested_urls()[0] == robots
        assert (page, "connection") in report.errors
        starts = sorted(t for _, t in transport.log)
        assert len(starts) == 5
        assert all(b - a >= 0.050 for a, b in zip(starts, starts[1:]))

    def test_workers_parallel_run_respects_invariants(self, tmp_path, webroot):
        transport = static_site_from(webroot)
        report, url_repo, _ = run_crawl(
            transport, tmp_path, workers=3, follow_ontology_links=True, politeness_ms=10
        )
        assert report.ontologies_found == 4
        assert report.pages_fetched <= 100
        fetched = [u for u in transport.requested_urls() if not u.endswith("/robots.txt")]
        assert len(fetched) == len(set(fetched))
        # single host: all request starts must still be politeness-spaced
        starts = sorted(t for _, t in transport.log)
        assert all(b - a >= 0.010 for a, b in zip(starts, starts[1:]))

    def test_multi_host_parallel_crawl(self, tmp_path):
        rdf = (
            b'<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
            b' xmlns:owl="http://www.w3.org/2002/07/owl#">'
            b'<owl:Class rdf:about="#Thing"/></rdf:RDF>'
        )
        pages = {}
        for host in ("h1.test", "h2.test", "h3.test"):
            pages[f"http://{host}/index.html"] = (
                200,
                "text/html",
                b'<a href="one.html"><a href="data.rdf">',
            )
            pages[f"http://{host}/one.html"] = (200, "text/html", b"<p>leaf</p>")
            pages[f"http://{host}/data.rdf"] = (200, "application/rdf+xml", rdf)
        transport = StaticTransport(pages)
        report, url_repo, _ = run_crawl(
            transport,
            tmp_path,
            seeds=[f"http://{host}/index.html" for host in ("h1.test", "h2.test", "h3.test")],
            workers=3,
            politeness_ms=20,
        )
        assert report.ontologies_found == 3
        assert report.pages_fetched == 6
        assert report.stop_reason is StopReason.FRONTIER_EXHAUSTED
        assert len(url_repo.scan()) == 3
        by_host: dict[str, list[float]] = {}
        for url, started in transport.log:
            by_host.setdefault(url.split("/")[2], []).append(started)
        for starts in by_host.values():
            assert all(b - a >= 0.020 for a, b in zip(starts, starts[1:]))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_fetches_in_flight_reach_workers_and_no_more(self, tmp_path, workers):
        hosts = [f"http://h{i}.test" for i in range(4)]
        transport = SlowStaticTransport(multi_host_site(hosts, leaves=3))
        report, _, _ = run_crawl(transport, tmp_path, seeds=[f"{h}/index.html" for h in hosts], workers=workers)
        assert report.pages_fetched == 16
        assert transport.most_in_flight == 1
        assert transport.most_in_flight_overall == workers

    def test_more_workers_than_cores_under_fast_thread_switches(self, tmp_path):
        # Hand-offs between the dispatcher and 6 fetch threads, switched
        # every microsecond: no page is lost, fetched twice or fetched
        # beside another request to its host.
        hosts = [f"http://h{i}.test" for i in range(8)]
        transport = SlowStaticTransport(multi_host_site(hosts, leaves=5), delay=0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report, _, _ = run_crawl(transport, tmp_path, seeds=[f"{h}/index.html" for h in hosts], workers=6)
        finally:
            sys.setswitchinterval(interval)
        fetched = [u for u in transport.requested_urls() if not u.endswith("/robots.txt")]
        assert sorted(fetched) == sorted(url for url in multi_host_site(hosts, leaves=5))
        assert report.pages_fetched == 48 and report.errors == []
        assert transport.most_in_flight == 1

    @pytest.mark.parametrize("workers", [1, 3])
    def test_a_fetch_that_raises_leaves_no_thread(self, tmp_path, workers):
        # Anything a fetch raises but a FetchError is a fault, not an error
        # kind: crawl() raises it, and every fetch thread has ended by then.
        class FaultyTransport(SlowStaticTransport):
            def get(self, url):
                if url == "http://h1.test/p0.html":
                    raise RuntimeError(f"fault fetching {url}")
                return super().get(url)

        hosts = [f"http://h{i}.test" for i in range(3)]
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="fault fetching http://h1.test/p0.html"):
            run_crawl(
                FaultyTransport(multi_host_site(hosts)), tmp_path, seeds=[f"{h}/index.html" for h in hosts], workers=workers
            )
        assert set(threading.enumerate()) == before

    def test_host_with_userinfo_shares_politeness_and_robots(self, tmp_path):
        # "u@h.test" and "h.test" are one host: one robots.txt, one request
        # in flight, and its Disallow rules hold for both spellings.
        transport = SlowStaticTransport(
            {
                "http://h.test/index.html": (
                    200,
                    "text/html",
                    b'<a href="http://u@h.test/a.html"><a href="http://h.test/b.html"><a href="c.html">',
                ),
                "http://h.test/robots.txt": (200, "text/plain", b"User-agent: *\nDisallow: /a.html\n"),
                "http://u@h.test/a.html": (200, "text/html", b"<p>private</p>"),
                "http://h.test/b.html": (200, "text/html", b"<p>b</p>"),
                "http://h.test/c.html": (200, "text/html", b"<p>c</p>"),
            }
        )
        report, _, _ = run_crawl(transport, tmp_path, seeds=["http://h.test/index.html"], workers=2)
        assert [u for u in transport.requested_urls() if u.endswith("/robots.txt")] == ["http://h.test/robots.txt"]
        assert "http://u@h.test/a.html" not in transport.requested_urls()
        assert report.errors == [("http://u@h.test/a.html", "robots-disallowed")]
        assert transport.most_in_flight == 1
        assert report.pages_fetched == 3

    def test_robots_txt_is_scoped_by_scheme(self, tmp_path):
        # A robots.txt holds for its scheme and authority (RFC 9309): the
        # http rules do not stand in for https ones on the same host, which
        # still shares one politeness slot.
        transport = SlowStaticTransport(
            {
                "http://h.test/index.html": (200, "text/html", b'<a href="https://h.test/secret.html">'),
                "http://h.test/robots.txt": (200, "text/plain", b"User-agent: *\nDisallow: /private/\n"),
                "https://h.test/robots.txt": (200, "text/plain", b"User-agent: *\nDisallow: /secret.html\n"),
                "https://h.test/secret.html": (200, "text/html", b"<p>secret</p>"),
            }
        )
        report, _, _ = run_crawl(transport, tmp_path, seeds=["http://h.test/index.html"], workers=2)
        robots = [u for u in transport.requested_urls() if u.endswith("/robots.txt")]
        assert sorted(robots) == ["http://h.test/robots.txt", "https://h.test/robots.txt"]
        assert "https://h.test/secret.html" not in transport.requested_urls()
        assert report.errors == [("https://h.test/secret.html", "robots-disallowed")]
        assert transport.most_in_flight == 1

    def test_robots_txt_with_a_byte_order_mark_is_honored(self, tmp_path):
        transport = StaticTransport(
            {
                "http://h.test/index.html": (200, "text/html", b'<a href="/private/o.owl">'),
                "http://h.test/robots.txt": (200, "text/plain", b"\xef\xbb\xbfUser-agent: *\nDisallow: /private/\n"),
                "http://h.test/private/o.owl": (200, "application/rdf+xml", RDF_BODY),
            }
        )
        report, _, _ = run_crawl(transport, tmp_path, seeds=["http://h.test/index.html"])
        assert "http://h.test/private/o.owl" not in transport.requested_urls()
        assert report.errors == [("http://h.test/private/o.owl", "robots-disallowed")]
        assert report.ontologies_found == 0

    def test_malformed_ontology_is_stored_but_not_scanned_for_references(self, tmp_path, caplog):
        transport = StaticTransport(
            {
                "http://h.test/index.html": (200, "text/html", b'<a href="bad.owl"><a href="good.owl">'),
                "http://h.test/bad.owl": (200, "application/rdf+xml", b"<rdf:RDF"),
                "http://h.test/good.owl": (200, "application/rdf+xml", RDF_BODY),
            }
        )
        report, _, _ = run_crawl(
            transport, tmp_path, seeds=["http://h.test/index.html"], follow_ontology_links=True
        )
        assert report.ontologies_found == 2
        assert report.errors == []
        assert "http://h.test/bad.owl: cannot scan for ontology references" in caplog.text

    def test_ipv6_link_fetched_with_brackets(self, tmp_path):
        transport = StaticTransport(
            {"http://h.test/index.html": (200, "text/html", b'<a href="http://[::1]:8080/o.owl">')}
        )
        report, _, _ = run_crawl(transport, tmp_path, seeds=["http://h.test/index.html"])
        assert transport.requested_urls()[-2:] == [
            "http://[::1]:8080/robots.txt",
            "http://[::1]:8080/o.owl",
        ]
        assert ("http://[::1]:8080/o.owl", "http-404") in report.errors

    def test_invalid_config_rejected(self, tmp_path, webroot):
        transport = static_site_from(webroot)
        for overrides in (
            dict(seeds=[]),
            dict(seeds=["notaurl"]),
            dict(max_pages=0),
            dict(max_ontologies=0),
            dict(max_depth=-1),
            dict(politeness_ms=-1),
            dict(workers=0),
        ):
            with pytest.raises(ConfigError):
                run_crawl(transport, tmp_path, **overrides)


def accounting_site(rng):
    """A four-host web for budget accounting, and its two seeds. Links
    reach pages, ontologies (some importing others), redirect aliases of
    either, URLs that 404, answer 500 or fail in transport, an empty
    ontology, and pages under a robots.txt ``Disallow``."""
    hosts = [f"http://h{i}.test" for i in range(4)]
    pages = [f"{rng.choice(hosts)}/p{i}.html" for i in range(16)]
    private = [f"{hosts[0]}/private/q{i}.html" for i in range(2)]
    ontologies = [f"{rng.choice(hosts)}/o{i}.owl" for i in range(8)]
    aliases = [f"{rng.choice(hosts)}/alias{i}" for i in range(4)]
    missing = [f"{rng.choice(hosts)}/gone{i}.html" for i in range(3)]
    broken, empty = f"{rng.choice(hosts)}/broken.html", f"{rng.choice(hosts)}/empty.owl"
    targets = pages + private + ontologies + aliases + missing + [broken, empty]
    site = {
        page: (200, "text/html", "".join(f'<a href="{t}">' for t in rng.sample(targets, 4)).encode())
        for page in pages + private
    }
    for ontology in ontologies:
        imports = "".join(f'<owl:imports rdf:resource="{t}"/>' for t in rng.sample(ontologies + aliases, 2))
        site[ontology] = (
            200,
            "application/rdf+xml",
            (
                '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
                ' xmlns:owl="http://www.w3.org/2002/07/owl#">'
                f'<owl:Ontology rdf:about="">{imports}</owl:Ontology></rdf:RDF>'
            ).encode(),
        )
    site[broken] = (500, "text/html", b"error")
    site[empty] = (200, "application/rdf+xml", b"")
    site[f"{hosts[0]}/robots.txt"] = (200, "text/plain", b"User-agent: *\nDisallow: /private/\n")
    transport = StaticTransport(site)
    transport.redirects = {alias: rng.choice(pages + ontologies) for alias in aliases}
    transport.failures = set(rng.sample(pages[2:] + ontologies, 3))
    return transport, pages[:2]


class TestCrawlAccounting:
    @settings(max_examples=300, deadline=None)
    @given(
        site_seed=st.integers(0, 2**32 - 1),
        max_pages=st.integers(1, 30),
        max_ontologies=st.integers(1, 10),
        workers=st.sampled_from([1, 4]),
        follow=st.booleans(),
    )
    def test_each_request_counts_once_and_the_stop_reason_is_the_budget_reached(
        self, site_seed, max_pages, max_ontologies, workers, follow
    ):
        transport, seeds = accounting_site(random.Random(site_seed))
        with tempfile.TemporaryDirectory() as data_dir:
            report, _, _ = run_crawl(
                transport,
                data_dir,
                seeds=seeds,
                max_pages=max_pages,
                max_ontologies=max_ontologies,
                workers=workers,
                follow_ontology_links=follow,
            )
        requests = [url for url in transport.requested_urls() if not url.endswith("/robots.txt")]
        assert not any("/private/" in url for url in requests)
        assert len(requests) == report.pages_fetched + report.ontologies_found
        assert report.pages_fetched <= max_pages
        assert report.ontologies_found <= max_ontologies
        if report.ontologies_found == max_ontologies:
            expected = StopReason.ONTOLOGY_BUDGET
        elif report.pages_fetched == max_pages:
            expected = StopReason.PAGE_BUDGET
        else:
            expected = StopReason.FRONTIER_EXHAUSTED
        assert report.stop_reason is expected
