import gc
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owse import indexer

from owse.errors import (
    CorruptIndex,
    CorruptObject,
    EmptyDocument,
    InvalidRecord,
    NotFound,
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

from support import index_snapshots, reference_load_index


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

    def test_relative_url_rejected(self, tmp_path):
        repo = UrlRepository(tmp_path)
        with pytest.raises(InvalidRecord):
            repo.append(record("x.owl"))

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

    def test_journal_fields(self, tmp_path):
        UrlRepository(tmp_path).append(record("http://a/x.owl"))
        line = json.loads((tmp_path / "urls.jsonl").read_text())
        assert set(line) == {"url", "referrer", "depth", "discovered_at", "kind"}
        assert line["kind"] == "Ontology"


class TestOntologyRepository:
    def test_round_trip(self, tmp_path):
        repo = OntologyRepository(tmp_path)
        blob = repo.put(b"<rdf/>", source_url="http://a/x.owl")
        assert repo.get(blob.id) == b"<rdf/>"
        assert blob.size_bytes == 6
        assert blob.id == hashlib.sha256(b"<rdf/>").hexdigest()

    def test_put_is_idempotent_on_content(self, tmp_path):
        repo = OntologyRepository(tmp_path)
        first = repo.put(b"same bytes", source_url="http://a/1.owl")
        second = repo.put(b"same bytes", source_url="http://b/2.owl")
        assert first.id == second.id
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
        blob = repo.put(b"original", source_url="http://a/x.owl")
        (repo.objects_dir / f"{blob.id}.rdf").write_bytes(b"tampered")
        with pytest.raises(CorruptObject):
            repo.get(blob.id)

    def test_url_map_keeps_latest(self, tmp_path):
        repo = OntologyRepository(tmp_path)
        repo.put(b"v1", source_url="http://a/x.owl")
        newer = repo.put(b"v2", source_url="http://a/x.owl")
        assert repo.url_map()["http://a/x.owl"] == newer.id


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

    def test_missing_file(self, tmp_path):
        with pytest.raises(NotFound):
            load_index(tmp_path / "absent.json")

    def test_not_json_is_corrupt(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text("***")
        with pytest.raises(CorruptIndex):
            load_index(path)

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
                "row_not_list", "swap", "duplicate", "empty_term", "empty_list",
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
    elif mutation == "empty_term":
        postings[""] = postings.pop(term)
    else:
        postings[term] = []


def _outcome(load, path):
    try:
        return load(path)
    except CorruptIndex:
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
        if got is not CorruptIndex:
            for plist in got.postings.values():
                assert all(type(p.doc) is int and type(p.tf) is int for p in plist)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda payload: payload.update(postings=[]),
            lambda payload: payload.update(postings={"pizza": 5}),
            lambda payload: payload["postings"]["pizza"][0].__setitem__(0, float("inf")),
            lambda payload: payload["postings"]["pizza"][0].__setitem__(2, float("inf")),
            lambda payload: payload["doc_table"][0].update(size_bytes=float("inf")),
        ],
        ids=["postings-list", "rows-not-a-list", "infinite-doc", "infinite-tf", "infinite-size"],
    )
    def test_malformed_payloads_are_corrupt(self, tmp_path, mutate):
        # The reference loader lets AttributeError, TypeError or
        # OverflowError escape for these.
        path = tmp_path / "index.json"
        save_index(small_index(), path)
        payload = json.loads(path.read_text())
        mutate(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptIndex):
            load_index(path)


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
        real_loads = json.loads

        def loads(text):
            seen.append(gc.isenabled())
            return real_loads(text)

        monkeypatch.setattr(indexer.json, "loads", loads)
        gc.enable()
        load_index(path)
        assert seen == [False]
