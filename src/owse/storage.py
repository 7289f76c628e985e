"""File-based stores for discovered URLs and fetched ontology documents.

Layout under a data directory:

    urls.jsonl                      append-only journal of ontology URLs
    ontologies/objects/<sha256>.rdf ontology bytes, content-addressed
    ontologies/manifest.jsonl       one line per store operation

Journal and manifest are UTF-8 line-delimited JSON with one writer and
one reader. An append writes its whole line in a single call, so a crash
leaves at most one torn trailing line, which the next append ends before
writing its own. Readers read that tail as a record when it is one whole
record short of only its newline, and skip it with a warning otherwise.
Readers also skip, with a warning, a line that is not a record, such as a
manifest line without a string id and source_url. A re-crawl re-stores a
journaled URL whose stored object is missing or corrupt.

Constructing a repository and reading it create nothing: a store's
directories are made by its first write, so ``owse stats`` leaves a
missing data directory missing.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, TypeVar

from .errors import CorruptObject, EmptyDocument, InvalidRecord, NotFound, OwseError
from .urls import normalize_url

log = logging.getLogger(__name__)
T = TypeVar("T")

JOURNAL_NAME = "urls.jsonl"
ONTOLOGY_DIR = "ontologies"


def utc_now() -> str:
    """Current UTC time as an RFC 3339 string with seconds precision."""
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True)
class UrlRecord:
    """One discovered ontology URL with provenance."""

    url: str
    referrer: str = ""
    depth: int = 0
    discovered_at: str = field(default_factory=utc_now)
    kind: str = "Ontology"

    def validate(self) -> None:
        """Raise InvalidRecord unless each field has the type ``to_json``
        writes for it and the depth is 0 or more; any url string passes."""
        strings = self.url, self.referrer, self.discovered_at, self.kind
        if not all(isinstance(value, str) for value in strings):
            raise InvalidRecord("url, referrer, discovered_at and kind must be strings")
        if type(self.depth) is not int or self.depth < 0:
            raise InvalidRecord(f"depth is not an integer of 0 or more: {self.depth!r}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "url": self.url,
                "referrer": self.referrer,
                "depth": self.depth,
                "discovered_at": self.discovered_at,
                "kind": self.kind,
            },
            ensure_ascii=False,
        )

    @classmethod
    def from_json(cls, line: str) -> "UrlRecord":
        """The record on a journal line. Raise ValueError unless it is a
        JSON object, and InvalidRecord unless its fields pass ``validate``;
        any url string is read back."""
        data = json.loads(line)
        if not isinstance(data, dict):
            raise ValueError("not an object")
        record = cls(
            url=data.get("url"),
            referrer=data.get("referrer", ""),
            depth=data.get("depth"),
            discovered_at=data.get("discovered_at"),
            kind=data.get("kind", "Ontology"),
        )
        record.validate()
        return record


def _making_parent(path: Path, write: Callable[[], T]) -> T:
    """``write()``, which opens or writes ``path``; when that fails with
    FileNotFoundError, make ``path``'s directory and call it once more.
    A store's first write makes its directory, and no write checks first."""
    try:
        return write()
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        return write()


def _append_line(path: Path, line: str) -> None:
    """Append ``line`` and its newline to a log in one write call. A last
    line torn by a crashed writer is ended first, in the same call, so
    readers keep this one and read the torn one as the line it now is."""
    with _making_parent(path, lambda: open(path, "ab+")) as handle:
        handle.seek(max(handle.tell() - 1, 0))  # to the last byte, if any
        torn = handle.read(1) not in (b"", b"\n")
        handle.write(b"\n" * torn + (line + "\n").encode("utf-8"))


def _read_lines(path: Path, parse: Callable[[str], object], what: str) -> list:
    """``parse`` of each line of a log, in order, and of a trailing chunk
    without its newline, torn by a crashed writer. A record is one flat
    JSON object, so ``parse`` accepts such a chunk only when the crash cut
    nothing but its newline. What ``parse`` refuses, including JSON
    nested too deeply for ``json.loads``, is skipped with a warning, never
    an error.
    """
    if not path.exists():
        return []
    *lines, tail = path.read_text(encoding="utf-8", errors="replace").split("\n")
    items = []
    for lineno, line in enumerate([*lines, tail] if tail else lines, 1):
        try:
            items.append(parse(line))
        except (ValueError, RecursionError, InvalidRecord) as exc:
            if lineno > len(lines):
                log.warning("%s: skipping torn trailing line %d", path, lineno)
            else:
                log.warning("%s line %d: malformed %s skipped (%s)", path, lineno, what, exc)
    return items


def _manifest_entry(line: str) -> dict:
    """The entry on a manifest line. Raise ValueError unless it is a JSON
    object whose id and source_url are strings."""
    entry = json.loads(line)
    if not (isinstance(entry, dict) and isinstance(entry.get("id"), str) and isinstance(entry.get("source_url"), str)):
        raise ValueError("not an object with a string id and source_url")
    return entry


class UrlRepository:
    """Append-only, duplicate-free journal of ontology URLs."""

    def __init__(self, data_dir: str | Path):
        self.path = Path(data_dir) / JOURNAL_NAME
        self._seen: set[str] | None = None  # read from the journal on first use

    def _seen_urls(self) -> set[str]:
        if self._seen is None:
            self._seen = set()
            for record in self.scan():
                try:
                    self._seen.add(normalize_url(record.url, record.url))
                except OwseError:
                    pass  # equals no canonical URL, so it cannot dedup an append
        return self._seen

    def append(self, record: UrlRecord) -> bool:
        """Journal ``record`` unless its canonical URL is already present.

        Returns True when a line was written. Raises InvalidRecord for a
        record ``validate`` refuses or a url ``normalize_url`` refuses.
        """
        record.validate()
        try:
            canonical = normalize_url(record.url, record.url)
        except OwseError as exc:
            raise InvalidRecord(f"cannot canonicalize {record.url!r}: {exc}") from exc
        seen = self._seen_urls()
        if canonical in seen:
            return False
        _append_line(self.path, record.to_json())
        seen.add(canonical)
        return True

    def scan(self) -> list[UrlRecord]:
        """All journaled records in append order."""
        return _read_lines(self.path, UrlRecord.from_json, "record")

    def __len__(self) -> int:
        return len(self._seen_urls())


class OntologyRepository:
    """Content-addressed store for raw ontology documents."""

    def __init__(self, data_dir: str | Path):
        root = Path(data_dir) / ONTOLOGY_DIR
        self.objects_dir = root / "objects"
        self.manifest_path = root / "manifest.jsonl"

    def _object_path(self, blob_id: str) -> Path:
        return self.objects_dir / f"{blob_id}.rdf"

    def put(self, data: bytes, source_url: str) -> str:
        """Store ``data``, record its provenance in the manifest, and
        return its blob id, the SHA-256 of its bytes.

        Idempotent on identical bytes: every call rewrites the object file,
        which repairs a corrupt copy, and appends a manifest line.
        """
        if not data:
            raise EmptyDocument(f"refusing to store empty document from {source_url}")
        blob_id = hashlib.sha256(data).hexdigest()
        path = self._object_path(blob_id)
        tmp = path.with_suffix(".tmp")
        _making_parent(tmp, lambda: tmp.write_bytes(data))
        os.replace(tmp, path)
        line = json.dumps(
            {"id": blob_id, "source_url": source_url, "fetched_at": utc_now(), "size": len(data)},
            ensure_ascii=False,
        )
        _append_line(self.manifest_path, line)
        return blob_id

    def get(self, blob_id: str) -> bytes:
        """Stored bytes for ``blob_id``, re-verified against the digest."""
        path = self._object_path(blob_id)
        if not path.exists():
            raise NotFound(f"no object {blob_id}")
        data = path.read_bytes()
        actual = hashlib.sha256(data).hexdigest()
        if actual != blob_id:
            raise CorruptObject(f"object {blob_id} hashes to {actual}")
        return data

    def manifest(self) -> list[dict]:
        """Manifest entries in append order (torn tail and entries without
        a string id and source_url skipped)."""
        return _read_lines(self.manifest_path, _manifest_entry, "manifest entry")

    def url_map(self) -> dict[str, str]:
        """Latest blob id recorded for each source URL."""
        return {e["source_url"]: e["id"] for e in self.manifest()}

    def count(self) -> int:
        return sum(1 for _ in self.objects_dir.glob("*.rdf"))
