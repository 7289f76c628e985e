"""File-based stores for discovered URLs and fetched ontology documents.

Layout under a data directory:

    urls.jsonl                      append-only journal of ontology URLs
    ontologies/objects/<sha256>.rdf ontology bytes, content-addressed
    ontologies/manifest.jsonl       one line per store operation

Journal and manifest are UTF-8 line-delimited JSON. Appends write the
whole line (record plus newline) in a single call so a crashed run can
leave at most one torn trailing line, which readers skip with a warning.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .errors import CorruptObject, EmptyDocument, InvalidRecord, NotFound, OwseError
from .urls import normalize_url

log = logging.getLogger(__name__)

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


def _read_journal_lines(path: Path) -> list[tuple[int, str]]:
    """Complete (newline-terminated) lines of a journal with line numbers.

    A trailing chunk without its newline is treated as torn by a crashed
    writer: skipped with a warning, never an error.
    """
    if not path.exists():
        return []
    raw = path.read_text(encoding="utf-8", errors="replace")
    if not raw:
        return []
    torn = not raw.endswith("\n")
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if torn and lines:
        log.warning("%s: skipping torn trailing line %d", path, len(lines))
        lines.pop()
    return [(i + 1, line) for i, line in enumerate(lines)]


class UrlRepository:
    """Append-only, duplicate-free journal of ontology URLs."""

    def __init__(self, data_dir: str | Path):
        self.path = Path(data_dir) / JOURNAL_NAME
        self.path.parent.mkdir(parents=True, exist_ok=True)
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
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(record.to_json() + "\n")
            handle.flush()
        seen.add(canonical)
        return True

    def scan(self) -> list[UrlRecord]:
        """All journaled records in append order."""
        records = []
        for lineno, line in _read_journal_lines(self.path):
            try:
                records.append(UrlRecord.from_json(line))
            except (ValueError, InvalidRecord) as exc:
                log.warning("%s line %d: malformed record skipped (%s)", self.path, lineno, exc)
        return records

    def __len__(self) -> int:
        return len(self._seen_urls())


class OntologyRepository:
    """Content-addressed store for raw ontology documents."""

    def __init__(self, data_dir: str | Path):
        root = Path(data_dir) / ONTOLOGY_DIR
        self.objects_dir = root / "objects"
        self.manifest_path = root / "manifest.jsonl"
        self.objects_dir.mkdir(parents=True, exist_ok=True)

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
        tmp.write_bytes(data)
        os.replace(tmp, path)
        line = json.dumps(
            {"id": blob_id, "source_url": source_url, "fetched_at": utc_now(), "size": len(data)},
            ensure_ascii=False,
        )
        with open(self.manifest_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
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
        """Manifest entries in append order (torn tail skipped)."""
        entries = []
        for lineno, line in _read_journal_lines(self.manifest_path):
            try:
                entry = json.loads(line)
                if not isinstance(entry, dict):
                    raise ValueError("not an object")
                entries.append(entry)
            except ValueError as exc:
                log.warning(
                    "%s line %d: malformed manifest entry skipped (%s)",
                    self.manifest_path,
                    lineno,
                    exc,
                )
        return entries

    def url_map(self) -> dict[str, str]:
        """Latest blob id recorded for each source URL."""
        return {
            e["source_url"]: e["id"]
            for e in self.manifest()
            if isinstance(e.get("source_url"), str) and isinstance(e.get("id"), str)
        }

    def count(self) -> int:
        return sum(1 for _ in self.objects_dir.glob("*.rdf"))
