"""Inverted index over ontology elements.

Terms come from class and property local names, labels, comments, and the
tokens of the ontology/source URL, each tracked as a separate field with
its own ranking weight. The index is persisted as a single canonical JSON
document so equal indexes serialize to identical bytes.
"""

from __future__ import annotations

import gc
import json
import logging
import os
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .errors import CorruptIndex, CorruptObject, FetchError, NotFound, VersionMismatch
from .errors import NotRdf, XmlNotWellFormed
from .ontology import OntologySummary, parse_rdfxml, summarize_ontology

if TYPE_CHECKING:
    from .transport import Transport

log = logging.getLogger(__name__)

INDEX_NAME = "index.json"
INDEX_VERSION = 1
MIN_TOKEN_LEN = 2


class FieldKind(Enum):
    """Index field. The value is its name in ``index.json``; ``weight`` is
    its ranking weight and ``rank`` (declaration order) its place in a
    posting list."""

    CLASS_NAME = ("ClassName", 3.0)
    PROPERTY_NAME = ("PropertyName", 2.0)
    LABEL = ("Label", 2.0)
    COMMENT = ("Comment", 1.0)
    ONTOLOGY_IRI = ("OntologyIri", 1.5)

    weight: float
    rank: int

    def __new__(cls, name: str, weight: float) -> "FieldKind":
        kind = object.__new__(cls)
        kind._value_ = name
        kind.weight = weight
        kind.rank = len(cls.__members__)
        return kind


class Posting(NamedTuple):
    doc: int
    field: FieldKind
    tf: int


@dataclass
class DocEntry:
    """Doc-table row: one indexed ontology."""

    blob_id: str
    url: str
    size_bytes: int
    class_count: int
    property_count: int
    relation_count: int


@dataclass
class InvertedIndex:
    doc_table: list[DocEntry] = field(default_factory=list)
    postings: dict[str, list[Posting]] = field(default_factory=dict)

    @property
    def doc_count(self) -> int:
        return len(self.doc_table)

    def df(self, term: str) -> int:
        """Number of distinct documents containing ``term``."""
        return len({p.doc for p in self.postings.get(term, [])})


_WORD_RUN = re.compile(r"[A-Za-z0-9]+")
# Split points inside a run: aB (lower-to-upper) and the last capital of an
# uppercase run followed by a lowercase letter (HTTPServer -> HTTP Server).
_CASE_SPLIT = re.compile(r"(?<=[a-z])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")


def tokenize(text: str) -> list[str]:
    """Lowercased terms of ``text``, order preserved.

    Splits on non-alphanumeric characters and at camel-case boundaries,
    then drops tokens shorter than two characters.
    """
    tokens = []
    for run in _WORD_RUN.findall(text):
        for piece in _CASE_SPLIT.split(run):
            if len(piece) >= MIN_TOKEN_LEN:
                tokens.append(piece.lower())
    return tokens


def index_ontology(summary: OntologySummary, ordinal: int) -> list[tuple[str, Posting]]:
    """Term/posting pairs for one ontology, tf aggregated per field."""
    counts: dict[tuple[str, FieldKind], int] = {}

    def bump(terms: list[str], kind: FieldKind) -> None:
        for term in terms:
            key = (term, kind)
            counts[key] = counts.get(key, 0) + 1

    for element in summary.classes:
        bump(tokenize(element.local_name), FieldKind.CLASS_NAME)
    for element in summary.properties:
        bump(tokenize(element.local_name), FieldKind.PROPERTY_NAME)
    for element in summary.classes + summary.properties:
        for label in element.labels:
            bump(tokenize(label), FieldKind.LABEL)
        for comment in element.comments:
            bump(tokenize(comment), FieldKind.COMMENT)
    bump(tokenize(summary.ontology_iri), FieldKind.ONTOLOGY_IRI)
    bump(tokenize(summary.source_url), FieldKind.ONTOLOGY_IRI)

    return [
        (term, Posting(ordinal, kind, tf))
        for (term, kind), tf in sorted(
            counts.items(), key=lambda item: (item[0][0], item[0][1].rank)
        )
    ]


def build_index(summaries: list[OntologySummary]) -> InvertedIndex:
    """Inverted index over ``summaries``; ordinals follow input order.

    Posting lists come out in (doc, field rank) order: ordinals rise and
    ``index_ontology`` emits each term's postings in field order."""
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
        for term, posting in index_ontology(summary, ordinal):
            index.postings.setdefault(term, []).append(posting)
    return index


def save_index(index: InvertedIndex, path: str | Path) -> None:
    """Write ``index`` as canonical JSON: version field first, term keys
    and posting lists sorted, so equal indexes produce identical bytes."""
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


def load_index(path: str | Path) -> InvertedIndex:
    """Read an index file, validating version and structural invariants.

    The cyclic collector is off for the whole load: the index is one
    tuple per posting (157k for 1000 documents), and the collections
    their allocation sets off find nothing to free. The caller's GC
    state is put back after."""
    path = Path(path)
    if not path.exists():
        raise NotFound(f"index not found: {path}")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _read_index(path)
    finally:
        if gc_was_enabled:
            gc.enable()


def _read_index(path: Path) -> InvertedIndex:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise CorruptIndex(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise CorruptIndex(f"{path}: not a JSON object")

    version = payload.get("version")
    if version != INDEX_VERSION:
        raise VersionMismatch(f"{path}: unknown index version {version!r}")

    try:
        doc_table = [
            DocEntry(
                blob_id=row["id"],
                url=row["url"],
                size_bytes=int(row["size_bytes"]),
                class_count=int(row["classes"]),
                property_count=int(row["properties"]),
                relation_count=int(row["relations"]),
            )
            for row in payload["doc_table"]
        ]
        raw_postings = payload["postings"]
        totals = payload["totals"]["docs"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptIndex(f"{path}: malformed structure ({exc})") from exc

    n_docs = len(doc_table)
    if totals != n_docs:
        raise CorruptIndex(f"{path}: totals.docs={totals} but doc_table has {n_docs}")
    if not isinstance(raw_postings, dict):
        raise CorruptIndex(f"{path}: postings is not a JSON object")

    # One pass: each row is unpacked, typed and range-checked, and its
    # (doc, field rank) key must rise strictly from the previous row's.
    field_by_name = {kind.value: kind for kind in FieldKind}
    new_posting = tuple.__new__
    postings: dict[str, list[Posting]] = {}
    for term, rows in raw_postings.items():
        if not term or not rows:
            raise CorruptIndex(f"{path}: term {term!r} has an empty key or posting list")
        if not isinstance(rows, list):
            raise CorruptIndex(f"{path}: postings of {term!r} are not a list")
        plist = []
        last_doc = last_rank = -1
        for row in rows:
            try:
                doc, field_name, tf = row
                kind = field_by_name[field_name]
                if doc.__class__ is not int:
                    doc = int(doc)
                if tf.__class__ is not int:
                    tf = int(tf)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise CorruptIndex(f"{path}: bad posting {row!r} for {term!r}") from exc
            if not 0 <= doc < n_docs:
                raise CorruptIndex(f"{path}: posting for {term!r} refers to doc {doc}")
            if tf < 1:
                raise CorruptIndex(f"{path}: posting for {term!r} has tf {tf}")
            rank = kind.rank
            if doc < last_doc or (doc == last_doc and rank <= last_rank):
                raise CorruptIndex(f"{path}: posting list for {term!r} unsorted or duplicated")
            last_doc, last_rank = doc, rank
            plist.append(new_posting(Posting, (doc, kind, tf)))
        postings[term] = plist

    return InvertedIndex(doc_table=doc_table, postings=postings)


@dataclass
class IndexReport:
    indexed: int = 0
    skipped: int = 0
    warnings: list[tuple[str, str]] = field(default_factory=list)


def run_indexer(data_dir: str | Path, transport: Transport) -> IndexReport:
    """Drain the URL journal in order, summarize each ontology, and
    persist the resulting index.

    Bytes come from the ontology repository when the crawler already
    stored them, otherwise they are fetched (and stored) now. Documents
    that cannot be fetched or parsed are skipped with a warning; the run
    itself only fails on store-level I/O errors.
    """
    from .storage import OntologyRepository, UrlRepository

    data_dir = Path(data_dir)
    url_repo = UrlRepository(data_dir)
    ontology_repo = OntologyRepository(data_dir)
    url_to_blob = ontology_repo.url_map()

    report = IndexReport()
    summaries: list[OntologySummary] = []
    for record in url_repo.scan():
        data = None
        blob_id = url_to_blob.get(record.url)
        if blob_id is not None:
            try:
                data = ontology_repo.get(blob_id)
            except (NotFound, CorruptObject) as exc:
                log.warning("%s: stored blob unusable (%s); refetching", record.url, exc)
        if data is None:
            try:
                response = transport.get(record.url)
            except FetchError as exc:
                report.skipped += 1
                report.warnings.append((record.url, f"fetch failed: {exc.kind}"))
                continue
            if not 200 <= response.status < 300 or not response.body:
                report.skipped += 1
                report.warnings.append((record.url, f"http status {response.status}"))
                continue
            if response.truncated:
                report.skipped += 1
                report.warnings.append((record.url, "oversize"))
                continue
            data = response.body
            blob_id = ontology_repo.put(data, source_url=record.url).id

        try:
            triples = parse_rdfxml(data, base=record.url)
        except (XmlNotWellFormed, NotRdf) as exc:
            report.skipped += 1
            report.warnings.append((record.url, f"{type(exc).__name__}: {exc}"))
            continue
        summaries.append(summarize_ontology(triples, record.url, blob_id, len(data)))
        report.indexed += 1

    index = build_index(summaries)
    save_index(index, data_dir / INDEX_NAME)
    for url, reason in report.warnings:
        log.warning("skipped %s: %s", url, reason)
    return report
