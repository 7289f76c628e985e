"""Inverted index over ontology elements.

Terms come from class and property local names, labels, comments, and the
tokens of the ontology/source URL, each tracked as a separate field with
its own ranking weight. The index is persisted as a single canonical JSON
document so equal indexes serialize to identical bytes.
"""

from __future__ import annotations

import gc
import json
import os
import re
from collections import Counter
from collections.abc import Iterator
from contextlib import contextmanager
from enum import Enum
from json.decoder import WHITESPACE, scanstring
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .errors import CorruptIndex, CorruptObject, FetchError, NotFound, VersionMismatch
from .errors import NotRdf, XmlNotWellFormed

if TYPE_CHECKING:
    from .ontology import OntologySummary, TripleSet
    from .transport import Transport

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


class DocEntry(NamedTuple):
    """Doc-table row: one indexed ontology, a named tuple."""

    blob_id: str
    url: str
    size_bytes: int
    class_count: int
    property_count: int
    relation_count: int


class InvertedIndex:
    """The doc table and each term's posting list. Equal when both are
    equal; a new index starts with an empty list and dict of its own."""

    def __init__(
        self, doc_table: list[DocEntry] | None = None, postings: dict[str, list[Posting]] | None = None
    ) -> None:
        self.doc_table = [] if doc_table is None else doc_table
        self.postings = {} if postings is None else postings

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.doc_table, self.postings) == (other.doc_table, other.postings)

    def __repr__(self) -> str:
        return f"InvertedIndex(doc_table={self.doc_table!r}, postings={self.postings!r})"

    @property
    def doc_count(self) -> int:
        return len(self.doc_table)

    def df(self, term: str) -> int:
        """Number of distinct documents containing ``term``.

        No program code calls it (``search`` counts df as it scores); it
        stays until ROADMAP item 9 deletes it, because perfbench wraps it."""
        return len({p.doc for p in self.postings.get(term, [])})


# Terms are the camel-case pieces of ASCII alphanumeric runs. A capital
# joins a piece only at its start or after a digit, and an uppercase run
# leaves its last capital to the next piece when a lowercase letter
# follows it (HTTPServer -> HTTP Server). Nothing after _UPPER_RUN's loop
# or _PIECE's outer one can fail, so both are possessive (*+) and keep no
# backtracking frame per step: memory, like time, is linear in the text.
_UPPER_RUN = r"[A-Z](?:[A-Z](?![a-z]))*+"
_PIECE = re.compile(
    rf"(?:{_UPPER_RUN}|[a-z]|[0-9]+(?:{_UPPER_RUN})?)(?:[a-z]+|[0-9]+(?:{_UPPER_RUN})?)*+"
)


def tokenize(text: str) -> list[str]:
    """Lowercased terms of ``text``, order preserved.

    Splits on anything but ASCII letters and digits and at camel-case
    boundaries, then drops tokens shorter than two characters.
    """
    return [piece.lower() for piece in _PIECE.findall(text) if len(piece) >= MIN_TOKEN_LEN]


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Cyclic collector off for the decorated call, the caller's state put
    back after. It decorates the four entry points that allocate objects
    by the hundred thousand: ``build_index`` (a tuple per posting, 157k
    for 1000 documents), ``save_index`` (a JSON row list per posting),
    ``load_index`` (a decoded row list per posting, freed with its term,
    and a tuple per distinct posting) and ``run_indexer``. None of them
    makes reference cycles: after a whole ``run_indexer`` with the
    collector off, a collection finds nothing unreachable. The
    collections these allocations set off only cost time."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@_collector_paused()
def build_index(summaries: list[OntologySummary]) -> InvertedIndex:
    """Inverted index over ``summaries``; ordinals follow input order.

    Each field's texts are tokenized in one call, joined by a space,
    which never joins two terms, and tf is counted per field. Postings
    are appended document by document and, within one, field by field in
    declaration order, so every posting list comes out in (doc, field
    rank) order without a sort. ``postings`` holds terms in first-seen
    order; ``save_index`` sorts them and ``==`` ignores key order."""
    index = InvertedIndex()
    add = index.postings.setdefault
    new_posting = tuple.__new__  # Posting(...) without its Python-level __new__
    for ordinal, summary in enumerate(summaries):
        classes, properties = summary.classes, summary.properties
        index.doc_table.append(
            DocEntry(
                blob_id=summary.blob_id,
                url=summary.source_url,
                size_bytes=summary.size_bytes,
                class_count=len(classes),
                property_count=len(properties),
                relation_count=len(summary.relations),
            )
        )
        elements = classes + properties
        fields = (
            (FieldKind.CLASS_NAME, [e.local_name for e in classes]),
            (FieldKind.PROPERTY_NAME, [e.local_name for e in properties]),
            (FieldKind.LABEL, [label for e in elements for label in e.labels]),
            (FieldKind.COMMENT, [comment for e in elements for comment in e.comments]),
            (FieldKind.ONTOLOGY_IRI, [summary.ontology_iri, summary.source_url]),
        )
        for kind, texts in fields:
            for term, tf in Counter(tokenize(" ".join(texts))).items():
                add(term, []).append(new_posting(Posting, (ordinal, kind, tf)))
    return index


@_collector_paused()
def save_index(index: InvertedIndex, path: str | Path) -> None:
    """Write ``index`` as canonical JSON: version field first, term keys
    sorted and each posting list sorted stably by (doc, field rank), so
    equal indexes produce identical bytes."""
    def rows(plist: list[Posting]) -> list[list]:
        return [
            [p.doc, p.field.value, p.tf]
            for p in sorted(plist, key=lambda p: (p.doc, p.field.rank))
        ]

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
        "postings": {term: rows(index.postings[term]) for term in sorted(index.postings)},
    }
    text = json.dumps(payload, ensure_ascii=False, separators=(",", ":")) + "\n"
    path = Path(path)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _doc_entry(row: dict) -> DocEntry:
    """The entry of a doc-table row; TypeError unless its id and url are
    strings and its counts integers of 0 or more, as ``save_index`` writes."""
    counts = row["size_bytes"], row["classes"], row["properties"], row["relations"]
    strings = row["id"], row["url"]
    if not all(s.__class__ is str for s in strings) or not all(c.__class__ is int and c >= 0 for c in counts):
        raise TypeError(f"doc_table row {row!r} is not one save_index writes")
    return DocEntry(*strings, *counts)


# The member that follows a value in an object as save_index writes it:
# a comma, a key without escapes or control characters, and a colon, then
# any whitespace before the member's value. ``_member`` reads every other
# spelling.
_NEXT_MEMBER = re.compile(r',"([^"\\\x00-\x1f]*)":[ \t\n\r]*')
_DECODER = json.JSONDecoder()


def _member(text: str, pos: int, first: bool) -> tuple[str | None, int]:
    """Key of the next member of a JSON object and where its value starts,
    or None and the position after the object's ``}``. ``pos`` is just
    past the ``{`` when ``first``, else just past the previous value.
    JSONDecodeError for anything ``json.loads`` refuses there."""
    pos = WHITESPACE.match(text, pos).end()
    if text.startswith("}", pos):
        return None, pos + 1
    if not first:
        if not text.startswith(",", pos):
            raise json.JSONDecodeError("Expecting ',' delimiter", text, pos)
        pos = WHITESPACE.match(text, pos + 1).end()
    if not text.startswith('"', pos):
        raise json.JSONDecodeError("Expecting property name enclosed in double quotes", text, pos)
    key, pos = scanstring(text, pos + 1)
    pos = WHITESPACE.match(text, pos).end()
    if not text.startswith(":", pos):
        raise json.JSONDecodeError("Expecting ':' delimiter", text, pos)
    return key, WHITESPACE.match(text, pos + 1).end()


def _read_postings(text: str, pos: int, n_docs: int) -> tuple[dict[str, list[Posting]], str | None, int]:
    """The posting lists of the JSON object whose ``{`` ends at ``pos``
    over ``n_docs`` documents, the first problem left among them or None,
    and the position after its ``}``. Each term's rows are decoded alone
    and give way to its posting list as they are checked, so at most one
    term's rows are alive at a time. JSONDecodeError or RecursionError
    where the text is not JSON.

    As in ``json.loads``, the last value of a repeated term counts, so a
    term's problem is dropped when a later value of it loads. A row's doc
    and tf must be of class int before the row is looked up by (doc,
    field name, tf): true, 1.0 and 0.0 compare and hash equal to 1 and 0.
    A new key has its field, doc range and tf checked and gets the
    Posting that every equal row shares, beside its order key doc * 8 +
    field rank (rank < 8), which must rise strictly along each list. The
    Posting's doc comes from doc_ids, not from the row: ints allocated
    one after another, where warm search ran slower over ints scattered
    through freed JSON rows."""
    field_by_name = {kind.value: kind for kind in FieldKind}
    doc_ids = list(range(n_docs))
    new_posting = tuple.__new__
    shared: dict[tuple, tuple[Posting, int]] = {}
    postings: dict[str, list[Posting]] = {}
    problems: dict[str, str] = {}
    decode, next_member = _DECODER.raw_decode, _NEXT_MEMBER.match
    term, pos = _member(text, pos, True)
    while term is not None:
        rows, pos = decode(text, pos)
        if not term or not rows or rows.__class__ is not list:
            problems[term] = f"term {term!r} has an empty key or no posting list"
        else:
            plist = []
            last = -1
            for row in rows:
                try:
                    doc, field_name, tf = row
                    if doc.__class__ is not int or tf.__class__ is not int:
                        raise TypeError("doc and tf must be integers")
                    entry = shared.get((doc, field_name, tf))  # TypeError for an unhashable field name
                except (TypeError, ValueError):
                    entry = False
                if entry is None:
                    kind = field_by_name.get(field_name)
                    if kind is not None and 0 <= doc < n_docs and tf >= 1:
                        entry = shared[doc, field_name, tf] = new_posting(Posting, (doc_ids[doc], kind, tf)), doc * 8 + kind.rank
                if not entry:
                    problems[term] = f"bad posting {row!r} for {term!r}"
                    break
                posting, order = entry
                if order <= last:
                    problems[term] = f"posting list for {term!r} unsorted or duplicated"
                    break
                last = order
                plist.append(posting)
            else:
                postings[term] = plist
                if problems:
                    problems.pop(term, None)
        found = next_member(text, pos)
        if found is None:
            term, pos = _member(text, pos, False)
        else:
            term, pos = found[1], found.end()
    return postings, next(iter(problems.values()), None), pos


@_collector_paused()
def load_index(path: str | Path) -> InvertedIndex:
    """Read an index file, validating version and structural invariants:
    it refuses any value ``save_index`` does not write, and gives the
    outcome ``json.loads`` and those checks would give.

    The file is walked member by member and each term's posting list is
    decoded on its own, so at most one term's JSON rows are alive at a
    time; the text, the index being built and the table of shared
    postings are the peak of the call. Equal rows load as one shared
    ``Posting``: the 1000-document benchmark index lists 157k rows but
    only 15k distinct (doc, field, tf) triples. Any text that is not
    JSON is refused first, then a version other than the integer 1 (the
    last of repeated ``version`` members, as in ``json.loads``), then
    every other check."""
    path = Path(path)
    if not path.exists():
        raise NotFound(f"index not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
        pos = WHITESPACE.match(text).end()
        if not text.startswith("{", pos):
            raise CorruptIndex(f"{path}: not a JSON object")
        # Postings are read in line, against the size of the doc table
        # seen so far (save_index writes it first), and read again at the
        # end if that size is not the last doc table's.
        members: dict[str, object] = {}
        postings_at = None  # where the last postings object starts
        key, pos = _member(text, pos + 1, True)
        while key is not None:
            if key == "postings" and text.startswith("{", pos):
                doc_table = members.get("doc_table")
                read_against = len(doc_table) if doc_table.__class__ is list else 0
                postings_at = pos
                postings, problem, pos = _read_postings(text, pos + 1, read_against)
            else:
                members[key], pos = _DECODER.raw_decode(text, pos)
                if key == "postings":
                    postings_at = None
            key, pos = _member(text, pos, False)
        if WHITESPACE.match(text, pos).end() != len(text):
            raise json.JSONDecodeError("Extra data", text, pos)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise CorruptIndex(f"{path}: not valid JSON ({exc})") from exc

    version = members.get("version")
    if version.__class__ is not int or version != INDEX_VERSION:
        raise VersionMismatch(f"{path}: unknown index version {version!r}")

    try:
        doc_table = [_doc_entry(row) for row in members["doc_table"]]
        totals = members["totals"]["docs"]
    except (KeyError, TypeError) as exc:
        raise CorruptIndex(f"{path}: malformed structure ({exc})") from exc

    n_docs = len(doc_table)
    if totals.__class__ is not int or totals != n_docs:
        raise CorruptIndex(f"{path}: totals.docs={totals!r} but doc_table has {n_docs}")
    if postings_at is None:
        raise CorruptIndex(f"{path}: postings missing or not a JSON object")
    if read_against != n_docs:
        postings, problem, _ = _read_postings(text, postings_at + 1, n_docs)
    if problem is not None:
        raise CorruptIndex(f"{path}: {problem}")
    return InvertedIndex(doc_table=doc_table, postings=postings)


class IndexReport:
    """Outcome of ``run_indexer``, which fills a new, zeroed report:
    ``warnings`` are (url, reason) of skipped documents, ``parse_warnings``
    counts the indexed documents' parser warnings by kind (see
    ``TripleSet``)."""

    def __init__(self) -> None:
        self.indexed = 0
        self.warnings: list[tuple[str, str]] = []
        self.parse_warnings: Counter[str] = Counter()

    @property
    def skipped(self) -> int:
        return len(self.warnings)


# The parser stays out of ``owse query``, which imports this module: each
# forwarder imports its namesake from ``owse.ontology`` when first called.
# ``run_indexer`` calls them as module globals, so a caller can replace
# either one.
def parse_rdfxml(data: bytes, base: str) -> TripleSet:
    """``owse.ontology.parse_rdfxml``."""
    from .ontology import parse_rdfxml

    return parse_rdfxml(data, base)


def summarize_ontology(triples: TripleSet, source_url: str, blob_id: str, size_bytes: int) -> OntologySummary:
    """``owse.ontology.summarize_ontology``."""
    from .ontology import summarize_ontology

    return summarize_ontology(triples, source_url, blob_id, size_bytes)


@_collector_paused()
def run_indexer(data_dir: str | Path, transport: Transport) -> IndexReport:
    """Drain the URL journal in order, summarize each ontology, and
    persist the resulting index.

    Bytes come from the ontology repository when the crawler already
    stored them, otherwise they are fetched (and stored) now. Documents
    that cannot be fetched or parsed are skipped with a warning; the run
    itself only fails on store-level I/O errors. ``data_dir`` is created
    if it is missing.
    """
    import logging

    from .storage import OntologyRepository, UrlRepository

    log = logging.getLogger(__name__)
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
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
                report.warnings.append((record.url, f"fetch failed: {exc.kind}"))
                continue
            if not 200 <= response.status < 300:
                report.warnings.append((record.url, f"http status {response.status}"))
                continue
            if response.truncated or not response.body:
                report.warnings.append((record.url, "oversize" if response.truncated else "empty-document"))
                continue
            data = response.body
            blob_id = ontology_repo.put(data, source_url=record.url)

        try:
            triples = parse_rdfxml(data, base=record.url)
        except (XmlNotWellFormed, NotRdf) as exc:
            report.warnings.append((record.url, f"{type(exc).__name__}: {exc}"))
            continue
        summaries.append(summarize_ontology(triples, record.url, blob_id, len(data)))
        report.parse_warnings.update(kind for kind, _ in triples.warnings)
        report.indexed += 1

    index = build_index(summaries)
    save_index(index, data_dir / INDEX_NAME)
    for url, reason in report.warnings:
        log.warning("skipped %s: %s", url, reason)
    return report
