import functools
import gc
import hashlib
import json
import logging
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from owse import indexer

from owse.errors import (
    CorruptIndex,
    CorruptObject,
    EmptyDocument,
    InvalidRecord,
    NotFound,
    OwseError,
    VersionMismatch,
)
from owse.indexer import (
    DocEntry,
    FieldKind,
    InvertedIndex,
    Posting,
    load_index,
    save_index,
)
from owse.storage import OntologyRepository, UrlRecord, UrlRepository
from owse.urls import normalize_url

from support import index_snapshots, reference_load_index
from test_urls import NOISE, REF_HEADS, REF_PIECES


# A line json.loads refuses with RecursionError, not ValueError.
DEEPLY_NESTED = "[" * 200_000 + "]" * 200_000


def record(url, depth=1):
    return UrlRecord(url=url, referrer="http://a/", depth=depth, discovered_at="2026-01-01T00:00:00Z")


class TestUrlRepository:
    def test_append_to_empty_repo(self, tmp_path):
        repo = UrlRepository(tmp_path)
        assert repo.append(record("http://a/x.owl")) is True
        assert len(repo) == 1

    def test_duplicate_append_is_rejected(self, tmp_path):
        repo = UrlRepository(tmp_path)
        assert repo.append(record("http://a/x.owl")) is True
        assert repo.append(record("http://a/x.owl")) is False
        assert (tmp_path / "urls.jsonl").read_text().count("\n") == 1

    def test_canonical_equality_dedups(self, tmp_path):
        repo = UrlRepository(tmp_path)
        assert repo.append(record("http://a:80/x.owl")) is True
        assert repo.append(record("HTTP://A/x.owl")) is False

    def test_reopened_repo_dedups_against_journal(self, tmp_path):
        UrlRepository(tmp_path).append(record("http://a/x.owl"))
        repo = UrlRepository(tmp_path)
        assert repo.append(record("HTTP://a:80/x.owl")) is False
        assert len(repo) == 1
        assert repo.append(record("http://a/y.owl")) is True
        assert len(repo) == 2

    @pytest.mark.parametrize(
        "url, alias",
        [
            ("http://x/a", "HTTP://X:80/a#f"),
            ("https://x/", "https://X:443"),
            # RFC 3986 makes the IPvFuture "v" case-insensitive; urlsplit
            # refuses an uppercase one since 3.11, normalize_url does not.
            ("http://[V1.fe]/o.owl", "http://[v1.fe]/o.owl"),
        ],
    )
    def test_absolute_http_url_is_appended_once(self, tmp_path, url, alias):
        repo = UrlRepository(tmp_path)
        assert repo.append(record(url)) is True
        assert repo.append(record(alias)) is False
        assert [r.url for r in UrlRepository(tmp_path).scan()] == [url]

    @pytest.mark.parametrize("url", ["x.owl", "urn:isbn:123", "http://:80/", "http://[bad/"])
    def test_url_without_a_canonical_form_is_refused(self, tmp_path, url):
        with pytest.raises(InvalidRecord, match="cannot canonicalize"):
            UrlRepository(tmp_path).append(record(url))
        assert not (tmp_path / "urls.jsonl").exists()

    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from(REF_HEADS + ["http://"]),
        st.lists(st.sampled_from(REF_PIECES + NOISE + ["[V1.fe]"]), max_size=8).map("".join),
    )
    @example("http://", "[V1.fe]/o.owl")
    def test_append_refuses_exactly_what_normalize_url_refuses(self, tmp_path_factory, head, tail):
        url = head + tail
        try:
            normalize_url(url, url)
        except OwseError:
            canonical = False
        else:
            canonical = True
        repo = UrlRepository(tmp_path_factory.mktemp("journal"))
        if canonical:
            assert repo.append(record(url)) is True
        else:
            with pytest.raises(InvalidRecord):
                repo.append(record(url))

    @pytest.mark.parametrize(
        "fields",
        [dict(depth=True), dict(depth=-1), dict(referrer=["http://a/"]), dict(discovered_at=5), dict(kind=None)],
    )
    def test_record_the_reader_would_skip_is_rejected(self, tmp_path, fields):
        repo = UrlRepository(tmp_path)
        with pytest.raises(InvalidRecord):
            repo.append(UrlRecord(url="http://a/x.owl", **fields))
        assert not (tmp_path / "urls.jsonl").exists()

    def test_scan_preserves_append_order(self, tmp_path):
        repo = UrlRepository(tmp_path)
        a, b = record("http://a/1.owl"), record("http://a/2.owl", depth=2)
        repo.append(a)
        repo.append(b)
        assert UrlRepository(tmp_path).scan() == [a, b]

    def test_empty_journal_scans_empty(self, tmp_path):
        assert UrlRepository(tmp_path).scan() == []

    def test_torn_trailing_line_is_skipped_with_warning(self, tmp_path, caplog):
        repo = UrlRepository(tmp_path)
        repo.append(record("http://a/1.owl"))
        repo.append(record("http://a/2.owl"))
        journal = tmp_path / "urls.jsonl"
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"url": "http://a/3.owl", "ref')  # no newline: torn
        with caplog.at_level("WARNING"):
            records = UrlRepository(tmp_path).scan()
        assert [r.url for r in records] == ["http://a/1.owl", "http://a/2.owl"]
        assert any("torn" in message for message in caplog.messages)

    def test_deeply_nested_torn_tail_is_skipped_with_warning(self, tmp_path, caplog):
        UrlRepository(tmp_path).append(record("http://a/1.owl"))
        with open(tmp_path / "urls.jsonl", "a", encoding="utf-8") as fh:
            fh.write(DEEPLY_NESTED)  # no newline: torn
        with caplog.at_level("WARNING"):
            assert [r.url for r in UrlRepository(tmp_path).scan()] == ["http://a/1.owl"]
        [message] = caplog.messages
        assert "torn trailing line 2" in message

    def test_malformed_middle_line_reported_scan_continues(self, tmp_path, caplog):
        repo = UrlRepository(tmp_path)
        repo.append(record("http://a/1.owl"))
        journal = tmp_path / "urls.jsonl"
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write("not json at all\n")
        repo2 = UrlRepository(tmp_path)
        repo2.append(record("http://a/2.owl"))
        with caplog.at_level("WARNING"):
            records = repo2.scan()
        assert [r.url for r in records] == ["http://a/1.owl", "http://a/2.owl"]
        assert any("line 2" in message for message in caplog.messages)

    def test_append_after_a_torn_line_is_kept(self, tmp_path, caplog):
        UrlRepository(tmp_path).append(record("http://a/1.owl"))
        with open(tmp_path / "urls.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"url": "http://a/2.owl", "ref')  # no newline: torn
        assert UrlRepository(tmp_path).append(record("http://a/3.owl")) is True
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert [r.url for r in UrlRepository(tmp_path).scan()] == ["http://a/1.owl", "http://a/3.owl"]
        [message] = caplog.messages
        assert "line 2: malformed record skipped" in message

    def test_record_torn_only_of_its_newline_is_read_once(self, tmp_path, caplog):
        UrlRepository(tmp_path).append(record("http://a/1.owl"))
        with open(tmp_path / "urls.jsonl", "a", encoding="utf-8") as fh:
            fh.write(UrlRecord(url="http://a/2.owl").to_json())  # whole, but no newline
        with caplog.at_level("WARNING"):
            assert [r.url for r in UrlRepository(tmp_path).scan()] == ["http://a/1.owl", "http://a/2.owl"]
            assert UrlRepository(tmp_path).append(record("http://a/2.owl")) is False
            assert UrlRepository(tmp_path).append(record("http://a/3.owl")) is True
            urls = [r.url for r in UrlRepository(tmp_path).scan()]
        assert urls == ["http://a/1.owl", "http://a/2.owl", "http://a/3.owl"]
        assert caplog.messages == []

    @pytest.mark.parametrize(
        "line",
        [
            "123",
            '["http://a/x.owl"]',
            '"http://a/x.owl"',
            '{"url": 5, "depth": 1, "discovered_at": "t"}',
            '{"url": "http://a/x.owl", "depth": null, "discovered_at": "t"}',
            '{"url": "http://a/x.owl", "depth": "1", "discovered_at": "t"}',
            '{"url": "http://a/x.owl", "depth": true, "discovered_at": "t"}',
            '{"url": "http://a/x.owl", "depth": -3, "discovered_at": "t"}',
            '{"url": "http://a/x.owl", "referrer": ["r"], "depth": 1, "discovered_at": "t"}',
            '{"url": "http://a/x.owl", "depth": 1, "discovered_at": 5}',
            '{"url": "http://a/x.owl", "depth": 1}',
            '{"url": "http://a/x.owl", "depth": 1, "discovered_at": "t", "kind": null}',
            pytest.param(DEEPLY_NESTED, id="deeply-nested"),
        ],
    )
    def test_line_that_is_not_a_record_is_skipped_with_warning(self, tmp_path, caplog, line):
        UrlRepository(tmp_path).append(record("http://a/1.owl"))
        with open(tmp_path / "urls.jsonl", "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        repo = UrlRepository(tmp_path)
        with caplog.at_level("WARNING"):
            assert repo.append(record("http://a/2.owl")) is True
        assert [r.url for r in repo.scan()] == ["http://a/1.owl", "http://a/2.owl"]
        assert len(repo) == 2
        assert any("line 2: malformed record skipped" in message for message in caplog.messages)

    def test_journaled_url_that_does_not_canonicalize_is_not_counted(self, tmp_path):
        UrlRepository(tmp_path).append(record("http://a/1.owl"))
        with open(tmp_path / "urls.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"url": "urn:x:y", "depth": 0, "discovered_at": "t"}\n')
        repo = UrlRepository(tmp_path)
        assert [r.url for r in repo.scan()] == ["http://a/1.owl", "urn:x:y"]
        assert len(repo) == 1
        assert repo.append(record("http://a/1.owl")) is False

    def test_journal_fields(self, tmp_path):
        UrlRepository(tmp_path).append(record("http://a/x.owl"))
        line = json.loads((tmp_path / "urls.jsonl").read_text())
        assert set(line) == {"url", "referrer", "depth", "discovered_at", "kind"}
        assert line["kind"] == "Ontology"


class TestOntologyRepository:
    def test_round_trip(self, tmp_path):
        repo = OntologyRepository(tmp_path)
        blob_id = repo.put(b"<rdf/>", source_url="http://a/x.owl")
        assert blob_id == hashlib.sha256(b"<rdf/>").hexdigest()
        assert repo.get(blob_id) == b"<rdf/>"
        [entry] = repo.manifest()
        assert entry["id"] == blob_id
        assert entry["source_url"] == "http://a/x.owl"
        assert entry["size"] == 6

    def test_put_is_idempotent_on_content(self, tmp_path):
        repo = OntologyRepository(tmp_path)
        first = repo.put(b"same bytes", source_url="http://a/1.owl")
        second = repo.put(b"same bytes", source_url="http://b/2.owl")
        assert first == second
        assert repo.count() == 1
        assert len(repo.manifest()) == 2

    def test_empty_document_rejected(self, tmp_path):
        with pytest.raises(EmptyDocument):
            OntologyRepository(tmp_path).put(b"", source_url="http://a/x.owl")

    def test_get_unknown_id(self, tmp_path):
        with pytest.raises(NotFound):
            OntologyRepository(tmp_path).get("ab" * 32)

    def test_tampered_object_detected(self, tmp_path):
        repo = OntologyRepository(tmp_path)
        blob_id = repo.put(b"original", source_url="http://a/x.owl")
        (repo.objects_dir / f"{blob_id}.rdf").write_bytes(b"tampered")
        with pytest.raises(CorruptObject):
            repo.get(blob_id)

    def test_put_over_a_tampered_object_repairs_it(self, tmp_path):
        repo = OntologyRepository(tmp_path)
        blob_id = repo.put(b"original", source_url="http://a/x.owl")
        (repo.objects_dir / f"{blob_id}.rdf").write_bytes(b"tampered")
        assert repo.put(b"original", source_url="http://a/x.owl") == blob_id
        assert repo.get(blob_id) == b"original"

    def test_url_map_keeps_latest(self, tmp_path):
        repo = OntologyRepository(tmp_path)
        repo.put(b"v1", source_url="http://a/x.owl")
        newer = repo.put(b"v2", source_url="http://a/x.owl")
        assert repo.url_map()["http://a/x.owl"] == newer

    def test_put_after_a_torn_line_is_kept(self, tmp_path, caplog):
        repo = OntologyRepository(tmp_path)
        first = repo.put(b"v1", source_url="http://a/1.owl")
        with open(repo.manifest_path, "a", encoding="utf-8") as fh:
            fh.write('{"id": "ab", "source_u')  # no newline: torn
        third = OntologyRepository(tmp_path).put(b"v3", source_url="http://a/3.owl")
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert OntologyRepository(tmp_path).url_map() == {"http://a/1.owl": first, "http://a/3.owl": third}
        [message] = caplog.messages
        assert "line 2: malformed manifest entry skipped" in message

    def test_entry_torn_only_of_its_newline_is_read_once(self, tmp_path, caplog):
        repo = OntologyRepository(tmp_path)
        first = repo.put(b"v1", source_url="http://a/1.owl")
        entry = {"id": "ab", "source_url": "http://a/2.owl", "fetched_at": "t", "size": 2}
        with open(repo.manifest_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry))  # whole, but no newline
        with caplog.at_level("WARNING"):
            assert OntologyRepository(tmp_path).url_map() == {"http://a/1.owl": first, "http://a/2.owl": "ab"}
            third = OntologyRepository(tmp_path).put(b"v3", source_url="http://a/3.owl")
            assert [e["id"] for e in repo.manifest()] == [first, "ab", third]
        assert caplog.messages == []

    @pytest.mark.parametrize(
        "line",
        [
            "123",
            '"source_url id"',
            '["source_url", "id"]',
            "null",
            json.dumps({"id": "ab"}),
            json.dumps({"source_url": ["http://a/x.owl"], "id": "ab"}),
            json.dumps({"source_url": "http://a/x.owl", "id": 5}),
            pytest.param(DEEPLY_NESTED, id="deeply-nested"),
        ],
    )
    def test_manifest_entry_that_is_not_an_object_is_skipped(self, tmp_path, caplog, line):
        repo = OntologyRepository(tmp_path)
        first = repo.put(b"v1", source_url="http://a/1.owl")
        with open(repo.manifest_path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        second = repo.put(b"v2", source_url="http://a/2.owl")
        with caplog.at_level("WARNING"):
            assert [e["id"] for e in repo.manifest()] == [first, second]
        assert any("line 2: malformed manifest entry skipped" in message for message in caplog.messages)
        assert repo.url_map() == {"http://a/1.owl": first, "http://a/2.owl": second}


# Lines no writer writes; none holds a "}" it does not open, so one
# written after a torn chunk cannot complete the torn line into a valid one.
MALFORMED_LINES = ["not json", "123", "[1, 2]", "null", '{"url": 5}', '{"id": "ab"}']
TORN = "torn"  # a log's tail that no reader accepts

log_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 3), st.integers(0, 2)),
        st.tuples(st.just("malformed"), st.sampled_from(MALFORMED_LINES)),
        st.tuples(st.just("torn"), st.integers(0, 3), st.integers(1, 200)),
    ),
    max_size=12,
)


def test_reading_a_missing_store_creates_nothing(tmp_path):
    data_dir = tmp_path / "missing"
    urls, ontologies = UrlRepository(data_dir), OntologyRepository(data_dir)
    assert (urls.scan(), len(urls), ontologies.manifest(), ontologies.url_map(), ontologies.count()) == ([], 0, [], {}, 0)
    with pytest.raises(NotFound):
        ontologies.get("ab")
    assert not data_dir.exists()
    # The first write of each store makes its directories.
    assert urls.append(record("http://a/x.owl")) is True
    blob_id = ontologies.put(b"v1", source_url="http://a/x.owl")
    assert [r.url for r in UrlRepository(data_dir).scan()] == ["http://a/x.owl"]
    assert OntologyRepository(data_dir).get(blob_id) == b"v1"


class TestLogs:
    """The journal and the manifest under writes, malformed lines and
    chunks torn by a crashed writer, each write by a fresh repository."""

    @settings(max_examples=200, deadline=None)
    @given(ops=log_ops)
    @example(ops=[("write", 1, 0), ("torn", 2, 30), ("write", 3, 0)])
    @example(ops=[("write", 1, 0), ("torn", 2, 200), ("write", 2, 1)])
    def test_readers_keep_every_completed_line_and_skip_torn_ones(self, tmp_path_factory, ops):
        data_dir = tmp_path_factory.mktemp("logs")
        journal = data_dir / "urls.jsonl"
        manifest = OntologyRepository(data_dir).manifest_path
        manifest.parent.mkdir()  # made by a first put, which a malformed line may precede
        kept = {journal: [], manifest: []}  # items of the lines each reader keeps
        malformed = {journal: 0, manifest: 0}  # lines each reader must skip
        tail = {journal: None, manifest: None}  # after the last newline: None, TORN or a whole item

        def read(path):
            return kept[path] + ([] if tail[path] in (None, TORN) else [tail[path]])

        def wrote(path, kind, item=None):
            # The writer ends the tail before its own line, which it keeps;
            # a malformed line or a chunk written after a tail joins it.
            if kind == "write":
                if tail[path] is TORN:
                    malformed[path] += 1
                kept[path] = read(path) + [item]
                tail[path] = None
            elif kind == "malformed":
                malformed[path] += 1
                tail[path] = None
            else:
                tail[path] = item if tail[path] is None and item is not None else TORN

        for op in ops:
            if op[0] == "write":
                _, n, version = op
                url = f"http://a/{n}.owl"
                new = url not in read(journal)
                assert UrlRepository(data_dir).append(record(url)) is new
                if new:
                    wrote(journal, "write", url)
                blob_id = OntologyRepository(data_dir).put(f"v{version}".encode(), source_url=url)
                wrote(manifest, "write", (url, blob_id))
            elif op[0] == "malformed":
                for path in (journal, manifest):
                    with open(path, "a", encoding="utf-8") as fh:
                        fh.write(op[1] + "\n")
                    wrote(path, "malformed")
            else:
                _, n, cut = op
                url = f"http://a/{n}.owl"
                entry = {"id": "ab", "source_url": url, "fetched_at": "t", "size": 2}
                for path, line, item in (
                    (journal, record(url).to_json(), url),
                    (manifest, json.dumps(entry), (url, "ab")),
                ):
                    with open(path, "a", encoding="utf-8") as fh:
                        fh.write(line[:cut])
                    wrote(path, "torn", item if cut >= len(line) else None)

        messages = []
        handler = logging.Handler()
        handler.emit = lambda rec: messages.append(rec.getMessage())
        storage_log = logging.getLogger("owse.storage")
        storage_log.addHandler(handler)
        try:
            assert [r.url for r in UrlRepository(data_dir).scan()] == read(journal)
            assert OntologyRepository(data_dir).url_map() == dict(read(manifest))
        finally:
            storage_log.removeHandler(handler)
        for path in (journal, manifest):
            warnings = [m for m in messages if m.startswith(str(path))]
            assert sum("malformed" in m for m in warnings) == malformed[path]
            assert sum("torn trailing line" in m for m in warnings) == (tail[path] is TORN)
            assert len(warnings) == malformed[path] + (tail[path] is TORN)

def small_index():
    doc = DocEntry(
        blob_id="a" * 64, url="http://a/x.owl", size_bytes=10,
        class_count=1, property_count=2, relation_count=3,
    )
    postings = {
        "pizza": [Posting(0, FieldKind.CLASS_NAME, 2), Posting(0, FieldKind.LABEL, 1)],
    }
    return InvertedIndex(doc_table=[doc], postings=postings)


class TestIndexStore:
    def test_empty_index_round_trip(self, tmp_path):
        path = tmp_path / "index.json"
        save_index(InvertedIndex(), path)
        loaded = load_index(path)
        assert loaded.doc_count == 0
        assert loaded.postings == {}

    def test_round_trip_structural_equality(self, tmp_path):
        path = tmp_path / "index.json"
        index = small_index()
        save_index(index, path)
        assert load_index(path) == index

    def test_canonical_serialization_is_byte_identical(self, tmp_path):
        index = small_index()
        p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
        save_index(index, p1)
        save_index(index, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_postings_insertion_order_does_not_change_bytes(self, tmp_path):
        doc = small_index().doc_table[0]
        a = InvertedIndex(
            doc_table=[doc],
            postings={
                "zebra": [Posting(0, FieldKind.LABEL, 1)],
                "ant": [Posting(0, FieldKind.CLASS_NAME, 1)],
            },
        )
        b = InvertedIndex(
            doc_table=[doc],
            postings={
                "ant": [Posting(0, FieldKind.CLASS_NAME, 1)],
                "zebra": [Posting(0, FieldKind.LABEL, 1)],
            },
        )
        p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
        save_index(a, p1)
        save_index(b, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_field_comes_first(self, tmp_path):
        path = tmp_path / "index.json"
        save_index(small_index(), path)
        assert path.read_text().startswith('{"version":1,')

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text('{"version": 99, "totals": {"docs": 0}, "doc_table": [], "postings": {}}')
        with pytest.raises(VersionMismatch):
            load_index(path)

    @pytest.mark.parametrize("version", ["true", "1.0", '"1"', "null"])
    def test_non_integer_version_is_a_mismatch(self, tmp_path, version):
        # true and 1.0 compare equal to 1, but save_index writes neither.
        path = tmp_path / "index.json"
        path.write_text('{"version": %s, "totals": {"docs": 0}, "doc_table": [], "postings": {}}' % version)
        for load in (load_index, reference_load_index):
            with pytest.raises(VersionMismatch):
                load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(NotFound):
            load_index(tmp_path / "absent.json")

    def test_not_json_is_corrupt(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text("***")
        with pytest.raises(CorruptIndex):
            load_index(path)

    def test_deeply_nested_json_is_corrupt(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text(DEEPLY_NESTED)
        for load in (load_index, reference_load_index):
            with pytest.raises(CorruptIndex):
                load(path)

    def test_posting_ordinal_out_of_range_is_corrupt(self, tmp_path):
        path = tmp_path / "index.json"
        payload = {
            "version": 1,
            "totals": {"docs": 0},
            "doc_table": [],
            "postings": {"pizza": [[0, "ClassName", 1]]},
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptIndex):
            load_index(path)

    def test_zero_tf_is_corrupt(self, tmp_path):
        path = tmp_path / "index.json"
        payload = {
            "version": 1,
            "totals": {"docs": 1},
            "doc_table": [{"id": "a" * 64, "url": "http://a", "size_bytes": 1,
                           "classes": 0, "properties": 0, "relations": 0}],
            "postings": {"pizza": [[0, "ClassName", 0]]},
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptIndex):
            load_index(path)

    def test_unsorted_posting_list_is_corrupt(self, tmp_path):
        path = tmp_path / "index.json"
        payload = {
            "version": 1,
            "totals": {"docs": 2},
            "doc_table": [
                {"id": "a" * 64, "url": "http://a", "size_bytes": 1,
                 "classes": 0, "properties": 0, "relations": 0},
                {"id": "b" * 64, "url": "http://b", "size_bytes": 1,
                 "classes": 0, "properties": 0, "relations": 0},
            ],
            "postings": {"pizza": [[1, "ClassName", 1], [0, "ClassName", 1]]},
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptIndex):
            load_index(path)

    @settings(max_examples=60, deadline=None)
    @given(index=index_snapshots())
    def test_random_snapshot_round_trip(self, index, tmp_path_factory):
        path = tmp_path_factory.mktemp("idx") / "index.json"
        save_index(index, path)
        assert load_index(path) == index


def _mutate(payload: dict, draw) -> None:
    """Apply one drawn corruption (or type change) to an index payload with
    at least one posting."""
    postings = payload["postings"]
    term = draw(st.sampled_from(sorted(postings)))
    rows = postings[term]
    i = draw(st.integers(0, len(rows) - 1))
    doc, field_name, tf = rows[i]
    n_docs = len(payload["doc_table"])
    mutation = draw(
        st.sampled_from(
            [
                "doc_str", "doc_float", "doc_fraction", "doc_true", "doc_negative", "doc_n",
                "tf_zero", "tf_str", "field_unknown", "field_list", "row_2", "row_4",
                "row_not_list", "swap", "duplicate", "empty_term", "empty_list", "twin",
                "version_true", "version_float",
            ]
        )
    )
    replaced = {
        "doc_str": [str(doc), field_name, tf],
        "doc_float": [float(doc), field_name, tf],
        "doc_fraction": [doc + 0.5, field_name, tf],
        "doc_true": [True, field_name, tf],
        "doc_negative": [-1, field_name, tf],
        "doc_n": [n_docs, field_name, tf],
        "tf_zero": [doc, field_name, 0],
        "tf_str": [doc, field_name, "x"],
        "field_unknown": [doc, "NoSuchField", tf],
        "field_list": [doc, [field_name], tf],
        "row_2": [doc, field_name],
        "row_4": [doc, field_name, tf, 1],
        "row_not_list": draw(st.sampled_from([5, None, "abc", {"doc": doc}])),
    }
    if mutation in replaced:
        rows[i] = replaced[mutation]
    elif mutation == "swap":
        j = draw(st.integers(0, len(rows) - 1))
        rows[i], rows[j] = rows[j], rows[i]
    elif mutation == "duplicate":
        rows.insert(i, list(rows[i]))
    elif mutation == "twin":
        # A row value-equal to one another term lists, with a bool or a
        # float in place of its doc or tf.
        source = draw(st.sampled_from([t for t in sorted(postings) if t != term] or [term]))
        twin = list(draw(st.sampled_from(postings[source])))
        k = draw(st.sampled_from([0, 2]))
        twin[k] = draw(st.sampled_from([float(twin[k]), *([bool(twin[k])] if twin[k] in (0, 1) else [])]))
        rows[i] = twin
    elif mutation == "version_true":
        payload["version"] = True
    elif mutation == "version_float":
        payload["version"] = float(payload["version"])
    elif mutation == "empty_term":
        postings[""] = postings.pop(term)
    else:
        postings[term] = []


def _outcome(load, path):
    """What ``load`` makes of ``path``: the index, or the class of the
    error it refuses it with. The reference loader lets AttributeError
    or TypeError escape for postings that are no object and rows that
    are no list; load_index refuses both as corrupt."""
    try:
        return load(path)
    except (CorruptIndex, VersionMismatch) as exc:
        return exc.__class__
    except (AttributeError, TypeError):
        if load is not reference_load_index:
            raise
        return CorruptIndex


class TestLoadIndex:
    """load_index checks every posting in one pass; it must accept and
    refuse exactly what the reference loader in tests/support.py does."""

    @settings(max_examples=150, deadline=None)
    @given(index=index_snapshots())
    def test_snapshots_load_equal_to_reference(self, index, tmp_path_factory):
        path = tmp_path_factory.mktemp("idx") / "index.json"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded == reference_load_index(path) == index
        for plist in loaded.postings.values():
            assert all(type(p) is Posting and type(p.doc) is int and type(p.tf) is int for p in plist)

    @settings(max_examples=300, deadline=None)
    @given(index=index_snapshots().filter(lambda index: index.postings), data=st.data())
    def test_mutated_payloads_agree_with_reference(self, index, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("idx") / "index.json"
        save_index(index, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        _mutate(payload, data.draw)
        path.write_text(json.dumps(payload), encoding="utf-8")
        got, want = _outcome(load_index, path), _outcome(reference_load_index, path)
        assert got == want
        if got not in (CorruptIndex, VersionMismatch):
            for plist in got.postings.values():
                assert all(type(p.doc) is int and type(p.tf) is int for p in plist)

    @settings(max_examples=100, deadline=None)
    @given(index=index_snapshots())
    def test_equal_postings_load_as_one_object(self, index, tmp_path_factory):
        path = tmp_path_factory.mktemp("idx") / "index.json"
        save_index(index, path)
        loaded = load_index(path)
        postings = [p for plist in loaded.postings.values() for p in plist]
        assert len({id(p) for p in postings}) == len(set(postings))
        assert all(type(p.doc) is int and p.doc < loaded.doc_count for p in postings)

    @pytest.mark.parametrize(
        "valid, twin",
        [
            ([0, "ClassName", 1], [False, "ClassName", 1]),
            ([0, "ClassName", 1], [0.0, "ClassName", 1]),
            ([0, "ClassName", 1], [0, "ClassName", True]),
            ([0, "ClassName", 1], [0, "ClassName", 1.0]),
            ([1, "ClassName", 1], [True, "ClassName", 1]),
            ([1, "ClassName", 1], [1.0, "ClassName", 1]),
        ],
        ids=["false-doc", "float-doc-0", "true-tf", "float-tf", "true-doc", "float-doc-1"],
    )
    def test_wrong_type_twin_of_a_loaded_row_is_corrupt(self, tmp_path, valid, twin):
        # The twin compares and hashes equal to a row an earlier term
        # listed, so it must be refused before it is looked up.
        row = {"id": "a" * 64, "url": "http://a", "size_bytes": 1, "classes": 0, "properties": 0, "relations": 0}
        payload = {"version": 1, "totals": {"docs": 2}, "doc_table": [row, dict(row, id="b" * 64)]}
        path = tmp_path / "index.json"
        path.write_text(json.dumps(dict(payload, postings={"a": [valid], "b": [valid]})))
        loaded = load_index(path)
        assert loaded.postings["a"][0] is loaded.postings["b"][0]
        path.write_text(json.dumps(dict(payload, postings={"a": [valid], "b": [twin]})))
        for load in (load_index, reference_load_index):
            with pytest.raises(CorruptIndex):
                load(path)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda payload: payload.update(postings=[]),
            lambda payload: payload.update(postings={"pizza": 5}),
            lambda payload: payload["postings"]["pizza"][0].__setitem__(0, float("inf")),
            lambda payload: payload["postings"]["pizza"][0].__setitem__(2, float("inf")),
            lambda payload: payload["doc_table"][0].update(size_bytes=float("inf")),
            lambda payload: payload["postings"]["pizza"][0].__setitem__(0, False),
            lambda payload: payload["postings"]["pizza"][0].__setitem__(0, 0.9),
            lambda payload: payload["postings"]["pizza"][0].__setitem__(2, "2"),
            lambda payload: payload["doc_table"][0].update(id=5),
            lambda payload: payload["doc_table"][0].update(url=["u"]),
            lambda payload: payload["doc_table"][0].update(size_bytes="12"),
            lambda payload: payload["doc_table"][0].update(classes=1.5),
            lambda payload: payload["doc_table"][0].update(properties=True),
            lambda payload: payload["doc_table"][0].update(relations=-1),
            lambda payload: payload["totals"].update(docs=True),
            lambda payload: payload["totals"].update(docs=1.0),
        ],
        ids=[
            "postings-list", "rows-not-a-list", "infinite-doc", "infinite-tf", "infinite-size",
            "bool-doc", "float-doc", "string-tf", "int-id", "list-url", "string-size",
            "float-classes", "bool-properties", "negative-relations", "bool-totals", "float-totals",
        ],
    )
    def test_malformed_payloads_are_corrupt(self, tmp_path, mutate):
        # save_index writes none of these. The reference loader lets
        # AttributeError or TypeError escape for the first two.
        path = tmp_path / "index.json"
        save_index(small_index(), path)
        payload = json.loads(path.read_text())
        mutate(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptIndex):
            load_index(path)


def _json_object(*members) -> str:
    """A JSON object of (key, value) members in this order, repeats kept.
    A key starting with a quote and a str value are JSON text already."""
    def text(item, is_key=False):
        raw = item.startswith('"') if is_key else isinstance(item, str)
        return item if raw else json.dumps(item, separators=(",", ":"))

    return "{" + ",".join(f"{text(key, True)}:{text(value)}" for key, value in members) + "}"


def _spaced(text: str, ws: str) -> str:
    """``text`` with ``ws`` on both sides of every { } [ ] : , outside strings."""
    out, in_string, escaped = [], False, False
    for ch in text:
        if in_string:
            in_string = escaped or ch != '"'
            escaped = not escaped and ch == "\\"
        elif ch == '"':
            in_string = True
        elif ch in "{}[]:,":
            ch = ws + ch + ws
        out.append(ch)
    return "".join(out)


_ROW = {"id": "a" * 64, "url": "http://a", "size_bytes": 1, "classes": 0, "properties": 0, "relations": 0}
_DOCS = [_ROW, dict(_ROW, id="b" * 64, url="http://b")]
_ROWS = {
    "ab": [[0, "ClassName", 2], [1, "Label", 1]],
    "pizza": [[0, "ClassName", 2], [0, "Comment", 1]],
    'q"uo\\te\n': [[1, "OntologyIri", 3]],
}
_VALID = (("version", 1), ("totals", {"docs": 2}), ("doc_table", _DOCS), ("postings", _ROWS))
_CANONICAL = _json_object(*_VALID)


def _with(**values) -> str:
    """The valid index with some members' values replaced, in order."""
    return _json_object(*((key, values.get(key, value)) for key, value in _VALID))


_TEXTS = {
    "canonical": _CANONICAL,
    "postings-first": _json_object(*reversed(_VALID)),
    "version-last": _json_object(*_VALID[1:], _VALID[0]),
    "doc-table-after-postings": _json_object(_VALID[0], _VALID[1], _VALID[3], _VALID[2]),
    "doc-table-after-postings-too-short": _json_object(*_VALID[:2], _VALID[3], ("doc_table", _DOCS[:1])),
    "version-repeated-last-valid": _json_object(("version", 2), *_VALID),
    "version-repeated-last-invalid": _json_object(*_VALID, ("version", 2)),
    "version-repeated-last-float": _json_object(*_VALID, ("version", 1.0)),
    "doc-table-repeated": _json_object(("doc_table", []), *_VALID),
    "doc-table-repeated-after-postings": _json_object(*_VALID, ("doc_table", [])),
    "postings-repeated-first-invalid": _json_object(("postings", {"x": 5}), *_VALID),
    "postings-repeated-first-not-object": _json_object(("postings", []), *_VALID),
    "postings-repeated-last-not-object": _json_object(*_VALID, ("postings", [])),
    "postings-repeated-last-invalid": _json_object(*_VALID, ("postings", {"x": [[0, "Nope", 1]]})),
    "totals-repeated": _json_object(("totals", 5), *_VALID),
    "unknown-members": _json_object(("extra", '[NaN, -Infinity, {"a": []}]'), *_VALID, ("more", None)),
    "term-repeated-first-empty": _with(postings=_json_object(("pizza", []), *_ROWS.items())),
    "term-repeated-first-not-a-list": _with(postings=_json_object(("pizza", 5), *_ROWS.items())),
    "term-repeated-first-out-of-range": _with(postings=_json_object(*_ROWS.items(), ("ab", [[9, "ClassName", 1]]), ("ab", _ROWS["ab"]))),
    "term-repeated-first-unsorted": _with(postings=_json_object(("ab", _ROWS["ab"][::-1]), *_ROWS.items())),
    "term-repeated-first-bool-doc": _with(postings=_json_object(("ab", [[True, "Label", 1]]), *_ROWS.items())),
    "term-repeated-last-invalid": _with(postings=_json_object(*_ROWS.items(), ("ab", [[0, "Nope", 1]]))),
    "term-repeated-first-valid-last-empty": _with(postings=_json_object(*_ROWS.items(), ("pizza", []))),
    "escaped-term": _CANONICAL.replace('"ab"', '"\\u0061b"'),
    "escaped-term-twice": _CANONICAL.replace('"ab"', '"\\u0061\\u0062"'),
    "escaped-term-surrogate-pair": _with(postings=_json_object(('"\\ud83c\\udf55"', _ROWS["pizza"]))),
    "escaped-member-keys": _CANONICAL.replace('"version"', '"\\u0076ersion"').replace('"doc_table"', '"doc\\u005ftable"')
    .replace('"postings"', '"post\\u0069ngs"'),
    "escaped-term-invalid": _CANONICAL.replace('"ab"', '"\\x61b"'),
    "escaped-term-truncated": _CANONICAL.replace('"ab"', '"\\u06b"'),
    "control-character-in-term": _CANONICAL.replace('"ab"', '"a\tb"'),
    "whitespace-after-colons-only": json.dumps(json.loads(_CANONICAL), separators=(",", ": ")),
    "whitespace-after-commas-only": json.dumps(json.loads(_CANONICAL), separators=(", ", ":")),
    "leading-and-trailing-whitespace": " \n\r\t" + _CANONICAL + "\r\n \t",
    "leading-form-feed": "\x0c" + _CANONICAL,
    "trailing-no-break-space": _CANONICAL + "\u00a0",
    "leading-byte-order-mark": "\ufeff" + _CANONICAL,
    "trailing-data": _CANONICAL + "x",
    "trailing-object": _CANONICAL + "{}",
    "trailing-comma": _CANONICAL[:-1] + ",}",
    "trailing-comma-in-postings": _with(postings=_json_object(*_ROWS.items())[:-1] + ",}"),
    "missing-colon": _CANONICAL.replace('"pizza":', '"pizza"'),
    "missing-comma": _CANONICAL.replace('],"pizza"', ']"pizza"'),
    "nan-doc": _with(postings=_json_object(("ab", "[[NaN,\"ClassName\",1]]"))),
    "infinity-tf": _with(postings=_json_object(("ab", "[[0,\"ClassName\",Infinity]]"))),
    "minus-infinity-size": _CANONICAL.replace('"size_bytes":1', '"size_bytes":-Infinity', 1),
    "nan-version": _with(version="NaN"),
    "nan-totals": _with(totals='{"docs": NaN}'),
    "deep-row": _with(postings=_json_object(("ab", f"[{DEEPLY_NESTED}]"))),
    "deep-term-value": _with(postings=_json_object(("ab", DEEPLY_NESTED))),
    "deep-postings": _with(postings=DEEPLY_NESTED),
    "deep-doc-table": _with(doc_table=DEEPLY_NESTED),
    "deep-unknown-member": _json_object(*_VALID, ("extra", DEEPLY_NESTED)),
    "deep-top-level": DEEPLY_NESTED,
    "bad-posting-and-bad-version": _with(version=2, postings=_json_object(("ab", [[0, "Nope", 1]]))),
    "bad-posting-before-bad-version": _json_object(("postings", {"ab": [[7, "ClassName", 1]]}), *_VALID[1:3], ("version", True)),
    "bad-doc-table-and-bad-version": _with(version='"1"', doc_table=[{"id": 5}]),
    "empty-object": "{}",
    "only-version": '{"version": 1}',
    "empty-file": "",
    "top-level-array": "[]",
    "top-level-string": '"version"',
    "open-brace": "{",
}


class TestLoadIndexText:
    """load_index walks the text member by member; on any text it must
    give the outcome json.loads and the reference checks give."""

    @pytest.mark.parametrize("text", list(_TEXTS.values()), ids=list(_TEXTS))
    def test_hand_written_texts_agree_with_reference(self, tmp_path, text):
        path = tmp_path / "index.json"
        path.write_text(text, encoding="utf-8")
        assert _outcome(load_index, path) == _outcome(reference_load_index, path)

    @pytest.mark.parametrize("ws", [" ", "\n", "\t", "\r", "\r\n", " \n\t\r "])
    def test_whitespace_around_every_structural_character(self, tmp_path, ws):
        path = tmp_path / "index.json"
        path.write_text(_spaced(_CANONICAL, ws), encoding="utf-8")
        loaded = load_index(path)
        assert loaded == reference_load_index(path)
        assert sorted(loaded.postings) == sorted(_ROWS)

    def test_truncation_at_every_structural_character(self, tmp_path):
        path = tmp_path / "index.json"
        cuts = [i + end for i, ch in enumerate(_CANONICAL) if ch in '{}[]:,"' for end in (0, 1)]
        for cut in cuts:
            path.write_text(_CANONICAL[:cut], encoding="utf-8")
            got, want = _outcome(load_index, path), _outcome(reference_load_index, path)
            assert got == want, cut
        assert cuts[-1] == len(_CANONICAL)  # the whole text, which loads

    @settings(max_examples=300, deadline=None)
    @given(index=index_snapshots(), data=st.data())
    def test_mutated_texts_agree_with_reference(self, index, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("idx") / "index.json"
        save_index(index, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload["postings"] and data.draw(st.booleans()):
            _mutate(payload, data.draw)
        path.write_text(_drawn_text(payload, data.draw), encoding="utf-8")
        got, want = _outcome(load_index, path), _outcome(reference_load_index, path)
        assert got == want
        if got not in (CorruptIndex, VersionMismatch):
            postings = [p for plist in got.postings.values() for p in plist]
            assert all(type(p.doc) is int and type(p.tf) is int and type(p.field) is FieldKind for p in postings)
            assert len({id(p) for p in postings}) == len(set(postings))


# Values that stand in for a member or a term before (and so give way
# to) or after (and so replace) the real one.
_DECOYS = {
    "version": [2, True, "1", None, 1],
    "totals": [{"docs": -1}, 5, {}],
    "doc_table": [[], "x", [{"id": 1}]],
    "postings": [[], 5, {"x": 5}, {"": [[0, "ClassName", 1]]}],
}
_TERM_DECOYS = [[], 5, "abc", [[10**6, "ClassName", 1]], [[0, "Nope", 1]], [[0, "ClassName", 0]], [[0.0, "Label", 1]]]


def _drawn_text(payload: dict, draw) -> str:
    """``payload`` as JSON text: members in a drawn order, some repeated
    with a decoy value before or after the real one, drawn separators and
    escapes, and at times one character cut, added or dropped."""
    item_sep = draw(st.sampled_from([",", ", ", " ,\n", "\r\n,\t"]))
    key_sep = draw(st.sampled_from([":", ": ", " :\r\n"]))
    dumps = functools.partial(json.dumps, ensure_ascii=draw(st.booleans()), separators=(item_sep, key_sep))

    def obj(members, decoys) -> str:
        pairs = []
        for key, value in members:
            if decoys(key) and draw(st.integers(0, 3)) == 0:
                decoy = (key, dumps(draw(st.sampled_from(decoys(key)))))
                pairs += [decoy, (key, value)] if draw(st.booleans()) else [(key, value), decoy]
            else:
                pairs.append((key, value))
        return "{" + item_sep.join(dumps(key) + key_sep + value for key, value in pairs) + "}"

    postings = obj([(term, dumps(rows)) for term, rows in payload["postings"].items()], lambda term: _TERM_DECOYS)
    members = [(key, postings if key == "postings" else dumps(value)) for key, value in payload.items()]
    text = obj(draw(st.permutations(members)), _DECOYS.get)
    edit = draw(st.sampled_from(["none", "none", "cut", "add", "drop"]))
    at = draw(st.integers(0, len(text)))
    if edit == "cut":
        text = text[:at]
    elif edit == "add":
        text = text[:at] + draw(st.sampled_from(list('"\\{}[]:,0-eN x\x0c\ufeff'))) + text[at:]
    elif edit == "drop":
        text = text[:at] + text[at + 1 :]
    return text


class TestLoadIndexMemory:
    def test_peak_under_three_times_the_loaded_index(self, tmp_path):
        # 200 documents with 150 of 3,000 terms each: 30,000 rows, at most
        # 3,000 distinct postings. Decoding the whole file first peaked at
        # 5.7 times what the loaded index holds (5.98 / 1.05 MB, Python
        # 3.11); reading it a term at a time peaks at 2.2 times.
        rng = random.Random(7)
        terms = [f"term{i}" for i in range(3000)]
        postings: dict[str, list[Posting]] = {}
        for doc in range(200):
            for term in rng.sample(terms, 150):
                postings.setdefault(term, []).append(Posting(doc, rng.choice(list(FieldKind)), rng.randint(1, 3)))
        doc_table = [DocEntry(f"{doc:064x}", f"http://h{doc}.test/o.owl", 1000, 1, 1, 0) for doc in range(200)]
        path = tmp_path / "index.json"
        save_index(InvertedIndex(doc_table, postings), path)
        load_index(path)  # first-call allocations out of the count
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            loaded = load_index(path)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert loaded.postings == postings
        held, peak = after - before, peak - before
        assert peak < 3 * held, (peak, held)


class TestSaveIndexGc:
    """save_index turns the cyclic collector off while it runs and puts
    the caller's state back."""

    @pytest.fixture(autouse=True)
    def restore_gc(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_off_during_save_then_restored(self, tmp_path, monkeypatch, enabled):
        seen = []
        real_dumps = json.dumps

        def dumps(payload, **kwargs):
            seen.append(gc.isenabled())
            return real_dumps(payload, **kwargs)

        monkeypatch.setattr(indexer.json, "dumps", dumps)
        (gc.enable if enabled else gc.disable)()
        save_index(small_index(), tmp_path / "index.json")
        assert seen == [False]
        assert gc.isenabled() is enabled
        assert load_index(tmp_path / "index.json") == small_index()


class TestLoadIndexGc:
    """load_index turns the cyclic collector off while it runs and puts
    the caller's state back, whatever happens."""

    @pytest.fixture(autouse=True)
    def restore_gc(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    def test_enabled_after_successful_load(self, tmp_path):
        path = tmp_path / "index.json"
        save_index(small_index(), path)
        gc.enable()
        assert load_index(path) == small_index()
        assert gc.isenabled()

    def test_enabled_after_corrupt_index(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text('{"version": 1, "totals": {"docs": 0}, "doc_table": [], "postings": {"x": []}}')
        gc.enable()
        with pytest.raises(CorruptIndex):
            load_index(path)
        assert gc.isenabled()

    def test_disabled_stays_disabled(self, tmp_path):
        path = tmp_path / "index.json"
        save_index(small_index(), path)
        gc.disable()
        load_index(path)
        assert not gc.isenabled()

    def test_off_while_json_is_parsed(self, tmp_path, monkeypatch):
        path = tmp_path / "index.json"
        save_index(small_index(), path)
        seen = []

        class Decoder(json.JSONDecoder):
            def raw_decode(self, text, pos=0):
                seen.append(gc.isenabled())
                return super().raw_decode(text, pos)

        monkeypatch.setattr(indexer, "_DECODER", Decoder())
        gc.enable()
        load_index(path)
        assert seen and not any(seen)
