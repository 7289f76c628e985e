"""Test doubles and helpers shared across the suite."""

from __future__ import annotations

import html.parser
import json
import os
import re
import threading
import time
from collections import Counter
from html.entities import html5
from html.parser import HTMLParser
from pathlib import Path
from unittest import mock

from hypothesis import strategies as st

from owse.errors import CorruptIndex, FetchError, NotFound, OwseError, VersionMismatch
from owse.fixture_server import CONTENT_TYPES, DEFAULT_CONTENT_TYPE
from owse.indexer import INDEX_VERSION, DocEntry, FieldKind, InvertedIndex, Posting, tokenize
from owse.ontology import ElementKind, OntologyElement, OntologySummary
from owse.transport import FetchResponse
from owse.urls import normalize_url

FIXTURE_HOST = "http://fixture.test"


# One of each construct the RDF/XML parser skips with a warning, and the
# kinds of those warnings in document order.
UNSUPPORTED_RDF = (
    '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
    ' xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"'
    ' xmlns:owl="http://www.w3.org/2002/07/owl#">'
    "<plain/>"
    '<rdf:Description rdf:nodeID="n1"><rdfs:label>blank</rdfs:label></rdf:Description>'
    '<owl:Class rdf:about="#A">'
    "<bare>x</bare>"
    "<rdf:li>x</rdf:li>"
    '<rdfs:comment rdf:parseType="Literal"><b>x</b></rdfs:comment>'
    '<rdfs:seeAlso rdf:nodeID="n2"/>'
    '<rdfs:label rdf:ID="r1">x</rdfs:label>'
    '<rdfs:seeAlso rdf:resource="#B">text</rdfs:seeAlso>'
    "<rdfs:subClassOf><owl:Class/><owl:Class/></rdfs:subClassOf>"
    '<rdfs:seeAlso rdf:resource="http://[bad/x"/>'
    "<rdfs:label>kept</rdfs:label>"
    "</owl:Class></rdf:RDF>"
).encode()

UNSUPPORTED_KINDS = [
    "non-namespaced-tag",
    "nodeID",
    "non-namespaced-tag",
    "rdf:li",
    "parseType",
    "nodeID",
    "reification",
    "mixed-content",
    "nested-nodes",
    "unresolvable-iri",
]


def nested_rdf(levels: int) -> bytes:
    """RDF/XML whose one node element nests ``levels`` deep, each ex:N
    holding the next as the object of an ex:p property element."""
    head = "".join(f'<ex:N rdf:about="#n{i}"><ex:p>' for i in range(levels - 1))
    return (
        '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" xmlns:ex="http://ex.test/#">'
        + head
        + f'<ex:N rdf:about="#n{levels - 1}"/>'
        + "</ex:p></ex:N>" * (levels - 1)
        + "</rdf:RDF>"
    ).encode()


class StaticTransport:
    """In-memory transport: URL -> (status, content type, body).

    Unknown URLs get a 404 response; URLs listed in ``failures`` raise
    FetchError; ``redirects`` maps a URL to the URL whose content (and
    final identity) is actually returned.
    """

    def __init__(self, pages: dict[str, tuple[int, str, bytes]]):
        self.pages = dict(pages)
        self.failures: set[str] = set()
        self.redirects: dict[str, str] = {}
        self.log: list[tuple[str, float]] = []
        self._lock = threading.Lock()

    def get(self, url: str) -> FetchResponse:
        started = time.monotonic()
        with self._lock:
            self.log.append((url, started))
        if url in self.failures:
            raise FetchError("connection", f"simulated failure for {url}")
        final = self.redirects.get(url, url)
        entry = self.pages.get(final)
        if entry is None:
            return FetchResponse(
                url=final, status=404, content_type="text/plain", body=b"not found", started_at=started
            )
        status, content_type, body = entry
        return FetchResponse(
            url=final, status=status, content_type=content_type, body=body, started_at=started
        )

    def requested_urls(self) -> list[str]:
        with self._lock:
            return [url for url, _ in self.log]


class RecordingTransport:
    """Wraps a transport, logging (url, start time) before delegating."""

    def __init__(self, inner):
        self.inner = inner
        self.log: list[tuple[str, float]] = []
        self._lock = threading.Lock()

    def get(self, url: str) -> FetchResponse:
        with self._lock:
            self.log.append((url, time.monotonic()))
        return self.inner.get(url)


def static_site_from(webroot: Path, base: str = FIXTURE_HOST) -> StaticTransport:
    """StaticTransport mirroring a webroot directory, server-style."""
    pages = {}
    for path in webroot.rglob("*"):
        if not path.is_file():
            continue
        url = f"{base}/{path.relative_to(webroot).as_posix()}"
        content_type = CONTENT_TYPES.get(path.suffix.lower(), DEFAULT_CONTENT_TYPE)
        pages[url] = (200, content_type, path.read_bytes())
    return StaticTransport(pages)


_NUMERIC_REF = re.compile(r"&#(?:[0-9]+|[xX][0-9a-fA-F]+);?")


def reference_unescape_attribute(value: str) -> str:
    """An attribute value's character references decoded by the HTML5
    tokenizer's rules, read literally. At each "&", a numeric reference
    goes to html.unescape. A named one is the longest name in the entity
    table that follows; it stays as written when it has no ";" and "=" or
    an ASCII letter or digit comes after it."""
    out = []
    i = 0
    while (amp := value.find("&", i)) >= 0:
        out.append(value[i:amp])
        numeric = _NUMERIC_REF.match(value, amp)
        if numeric:
            out.append(html.unescape(numeric.group()))
            i = numeric.end()
            continue
        name = max((n for n in html5 if value.startswith(n, amp + 1)), key=len, default="")
        after = value[amp + 1 + len(name) : amp + 2 + len(name)]
        if not name or not name.endswith(";") and (after == "=" or after.isascii() and after.isalnum()):
            out.append("&")
            i = amp + 1
        else:
            out.append(html5[name])
            i = amp + 1 + len(name)
    out.append(value[i:])
    return "".join(out)


class _ReferenceLinkScanner(HTMLParser):
    """html.parser's hrefs of <a> and <link> tags and its first <base href>."""

    def __init__(self, base: str):
        super().__init__(convert_charrefs=True)
        self.base = base
        self.base_set = False
        self.hrefs: list[str] = []

    def handle_starttag(self, tag, attrs):
        href = next((value for name, value in attrs if name == "href" and value is not None), None)
        if tag in ("a", "link") and href is not None:
            self.hrefs.append(href)
        elif tag == "base" and href and not self.base_set:
            try:
                self.base = normalize_url(href, self.base)
            except OwseError:
                pass
            self.base_set = True


def reference_scan(text: str, base: str) -> tuple[list[str], str]:
    """html.parser's hrefs and effective base of a page, which the link
    scan must equal on a page every html.parser from Python 3.10 on reads
    alike. html.parser decodes attribute values with html.unescape, which
    knows no attribute rule, so the scan swaps in
    ``reference_unescape_attribute``; the text it decodes is not read."""
    scanner = _ReferenceLinkScanner(base)
    with mock.patch.object(html.parser, "unescape", reference_unescape_attribute):
        scanner.feed(text)
        scanner.close()
    return scanner.hrefs, scanner.base


def make_summary(
    source_url: str,
    class_names: list[str] = (),
    property_names: list[str] = (),
    labels: list[str] = (),
    comments: list[str] = (),
    ontology_iri: str = "",
    blob_id: str = "0" * 64,
    size_bytes: int = 1,
) -> OntologySummary:
    """Small synthetic summary; labels/comments attach to the first class."""
    classes = [
        OntologyElement(
            iri=f"{source_url}#{name}", local_name=name, kind=ElementKind.CLASS
        )
        for name in class_names
    ]
    properties = [
        OntologyElement(
            iri=f"{source_url}#{name}", local_name=name, kind=ElementKind.PLAIN_PROPERTY
        )
        for name in property_names
    ]
    if classes:
        classes[0].labels = list(labels)
        classes[0].comments = list(comments)
    return OntologySummary(
        ontology_iri=ontology_iri,
        source_url=source_url,
        blob_id=blob_id,
        size_bytes=size_bytes,
        classes=classes,
        properties=properties,
    )


def summary_as_dict(summary: OntologySummary) -> dict:
    """Comparison form matching fixtures/expected/summaries.json."""

    def element(e: OntologyElement) -> dict:
        return {
            "iri": e.iri,
            "local_name": e.local_name,
            "kind": e.kind.value,
            "labels": list(e.labels),
            "comments": list(e.comments),
        }

    return {
        "ontology_iri": summary.ontology_iri,
        "classes": [element(e) for e in summary.classes],
        "properties": [element(e) for e in summary.properties],
        "relations": [[s, kind.value, o] for s, kind, o in summary.relations],
    }


@st.composite
def index_snapshots(draw) -> InvertedIndex:
    """Random structurally-valid inverted indexes for round-trip tests."""
    n_docs = draw(st.integers(min_value=0, max_value=6))
    doc_table = [
        DocEntry(
            blob_id=draw(st.text(alphabet="0123456789abcdef", min_size=64, max_size=64)),
            url=f"http://host{i}.example/onts/o{i}.rdf",
            size_bytes=draw(st.integers(min_value=1, max_value=10_000)),
            class_count=draw(st.integers(min_value=0, max_value=50)),
            property_count=draw(st.integers(min_value=0, max_value=50)),
            relation_count=draw(st.integers(min_value=0, max_value=50)),
        )
        for i in range(n_docs)
    ]
    postings: dict[str, list[Posting]] = {}
    if n_docs:
        terms = draw(
            st.lists(
                st.text(
                    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                    min_size=1,
                    max_size=12,
                ),
                unique=True,
                max_size=8,
            )
        )
        for term in terms:
            slots = draw(
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=n_docs - 1),
                        st.sampled_from(list(FieldKind)),
                    ),
                    unique=True,
                    min_size=1,
                    max_size=10,
                )
            )
            plist = [
                Posting(doc, kind, draw(st.integers(min_value=1, max_value=9)))
                for doc, kind in slots
            ]
            plist.sort(key=lambda p: (p.doc, p.field.rank))
            postings[term] = plist
    return InvertedIndex(doc_table=doc_table, postings=postings)


def reference_load_index(path: str | Path) -> InvertedIndex:
    """The straightforward index loader: checks each posting, then each
    list's order with a sort, and builds a new ``Posting`` per row.
    ``owse.indexer.load_index`` checks in one pass, once per distinct
    (doc, field, tf) after each row's type check, and shares one
    ``Posting`` among equal rows; it must accept and refuse what this
    loader does and load an equal index."""
    path = Path(path)
    if not path.exists():
        raise NotFound(f"index not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CorruptIndex(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise CorruptIndex(f"{path}: not a JSON object")

    version = payload.get("version")
    if version != INDEX_VERSION:
        raise VersionMismatch(f"{path}: unknown index version {version!r}")

    field_by_name = {kind.value: kind for kind in FieldKind}
    try:
        doc_table = [
            DocEntry(
                blob_id=row["id"],
                url=row["url"],
                size_bytes=row["size_bytes"],
                class_count=row["classes"],
                property_count=row["properties"],
                relation_count=row["relations"],
            )
            for row in payload["doc_table"]
        ]
        raw_postings = payload["postings"]
        totals = payload["totals"]["docs"]
    except (KeyError, TypeError) as exc:
        raise CorruptIndex(f"{path}: malformed structure ({exc})") from exc
    for entry in doc_table:
        counts = [entry.size_bytes, entry.class_count, entry.property_count, entry.relation_count]
        if not isinstance(entry.blob_id, str) or not isinstance(entry.url, str):
            raise CorruptIndex(f"{path}: doc_table row {entry} has a non-string id or url")
        if any(type(count) is not int or count < 0 for count in counts):
            raise CorruptIndex(f"{path}: doc_table row {entry} has a count that is not an integer >= 0")

    if type(totals) is not int or totals != len(doc_table):
        raise CorruptIndex(f"{path}: totals.docs={totals!r} but doc_table has {len(doc_table)}")

    postings: dict[str, list[Posting]] = {}
    for term, rows in raw_postings.items():
        if not term or not rows:
            raise CorruptIndex(f"{path}: term {term!r} has an empty key or posting list")
        plist = []
        for row in rows:
            try:
                doc, field_name, tf = row
                posting = Posting(doc, field_by_name[field_name], tf)
            except (KeyError, TypeError, ValueError) as exc:
                raise CorruptIndex(f"{path}: bad posting {row!r} for {term!r}") from exc
            if type(posting.doc) is not int or type(posting.tf) is not int:
                raise CorruptIndex(f"{path}: posting {row!r} for {term!r} has a non-integer doc or tf")
            if not 0 <= posting.doc < len(doc_table):
                raise CorruptIndex(f"{path}: posting for {term!r} refers to doc {posting.doc}")
            if posting.tf < 1:
                raise CorruptIndex(f"{path}: posting for {term!r} has tf {posting.tf}")
            plist.append(posting)
        keys = [(p.doc, p.field.rank) for p in plist]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise CorruptIndex(f"{path}: posting list for {term!r} unsorted or duplicated")
        postings[term] = plist

    return InvertedIndex(doc_table=doc_table, postings=postings)


def reference_build_index(summaries: list[OntologySummary]) -> InvertedIndex:
    """The straightforward index builder: per document, the union of its
    fields' terms in sorted order, each term's postings in field order.
    ``owse.indexer.build_index`` appends postings field by field instead
    and must give equal posting lists, each in the same order."""
    index = InvertedIndex()
    for ordinal, summary in enumerate(summaries):
        index.doc_table.append(
            DocEntry(
                blob_id=summary.blob_id,
                url=summary.source_url,
                size_bytes=summary.size_bytes,
                class_count=len(summary.classes),
                property_count=len(summary.properties),
                relation_count=len(summary.relations),
            )
        )
        elements = summary.classes + summary.properties
        fields = [
            (FieldKind.CLASS_NAME, [e.local_name for e in summary.classes]),
            (FieldKind.PROPERTY_NAME, [e.local_name for e in summary.properties]),
            (FieldKind.LABEL, [label for e in elements for label in e.labels]),
            (FieldKind.COMMENT, [comment for e in elements for comment in e.comments]),
            (FieldKind.ONTOLOGY_IRI, [summary.ontology_iri, summary.source_url]),
        ]
        counted = [(kind, Counter(tokenize(" ".join(texts)))) for kind, texts in fields]
        for term in sorted(set().union(*[counts for _, counts in counted])):
            for kind, counts in counted:
                if tf := counts.get(term):
                    index.postings.setdefault(term, []).append(Posting(ordinal, kind, tf))
    return index


def reference_save_index(index: InvertedIndex, path: str | Path) -> None:
    """The straightforward index writer: every posting list sorted by (doc,
    field rank), stably, each field named by ``FieldKind.value``.
    ``owse.indexer.save_index`` must write the same bytes."""
    payload = {
        "version": INDEX_VERSION,
        "totals": {"docs": index.doc_count},
        "doc_table": [
            {
                "id": entry.blob_id,
                "url": entry.url,
                "size_bytes": entry.size_bytes,
                "classes": entry.class_count,
                "properties": entry.property_count,
                "relations": entry.relation_count,
            }
            for entry in index.doc_table
        ],
        "postings": {
            term: [
                [p.doc, p.field.value, p.tf]
                for p in sorted(index.postings[term], key=lambda p: (p.doc, p.field.rank))
            ]
            for term in sorted(index.postings)
        },
    }
    text = json.dumps(payload, ensure_ascii=False, separators=(",", ":")) + "\n"
    path = Path(path)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
