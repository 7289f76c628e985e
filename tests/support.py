"""Test doubles and helpers shared across the suite."""

from __future__ import annotations

import threading
import time
from pathlib import Path

from hypothesis import strategies as st

from owse.errors import FetchError
from owse.fixture_server import CONTENT_TYPES, DEFAULT_CONTENT_TYPE
from owse.indexer import DocEntry, FieldKind, InvertedIndex, Posting
from owse.ontology import ElementKind, OntologyElement, OntologySummary
from owse.transport import FetchResponse

FIXTURE_HOST = "http://fixture.test"


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
        "imports": list(summary.imports),
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
