import hashlib
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from owse import storage
from owse.indexer import (
    FieldKind,
    build_index,
    index_ontology,
    load_index,
    run_indexer,
    save_index,
    tokenize,
)
from owse.ontology import parse_rdfxml, summarize_ontology
from owse.storage import UrlRecord, UrlRepository

from support import FIXTURE_HOST, StaticTransport, make_summary, static_site_from

ONT_NAMES = ["library.rdf", "pizza.owl", "vehicle.rdf", "metadata.rdf"]


def fixture_summaries(webroot, base_prefix="http://fixture.local/onts/"):
    summaries = []
    for name in ONT_NAMES:
        data = (webroot / "onts" / name).read_bytes()
        url = base_prefix + name
        triples = parse_rdfxml(data, base=url)
        summaries.append(summarize_ontology(triples, url, "0" * 64, len(data)))
    return summaries


class TestTokenize:
    def test_camel_case_split(self):
        assert tokenize("hasAuthor") == ["has", "author"]

    def test_uppercase_run_split(self):
        assert tokenize("HTTPServer") == ["http", "server"]

    def test_separators_and_min_length(self):
        assert tokenize("foo_bar-2") == ["foo", "bar"]

    def test_empty_and_separator_only(self):
        assert tokenize("") == []
        assert tokenize("  !! ") == []

    def test_order_preserved(self):
        assert tokenize("Beta alpha Beta") == ["beta", "alpha", "beta"]

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=60))
    def test_idempotent_over_own_output(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


class TestIndexOntology:
    def test_single_class(self):
        summary = make_summary("http://x/o.owl", class_names=["Pizza"])
        pairs = index_ontology(summary, ordinal=0)
        class_postings = [(t, p) for t, p in pairs if p.field is FieldKind.CLASS_NAME]
        assert class_postings == [("pizza", (0, FieldKind.CLASS_NAME, 1))]
        iri_terms = {t for t, p in pairs if p.field is FieldKind.ONTOLOGY_IRI}
        assert "owl" in iri_terms  # tokens of the source URL

    def test_per_field_aggregation(self):
        summary = make_summary(
            "http://x/o.owl", class_names=["PizzaTopping"], labels=["pizza topping"]
        )
        pairs = index_ontology(summary, ordinal=3)
        pizza = [(p.field, p.tf) for t, p in pairs if t == "pizza"]
        assert pizza == [(FieldKind.CLASS_NAME, 1), (FieldKind.LABEL, 1)]
        assert all(p.doc == 3 for _, p in pairs)

    def test_empty_summary_yields_only_iri_postings(self):
        summary = make_summary("http://x/o.owl")
        pairs = index_ontology(summary, ordinal=0)
        assert pairs
        assert all(p.field is FieldKind.ONTOLOGY_IRI for _, p in pairs)

    def test_tf_aggregates_repeats_within_field(self):
        summary = make_summary("http://x/o.owl", class_names=["PizzaBase", "PizzaTopping"])
        pairs = dict(index_ontology(summary, ordinal=0))
        assert pairs["pizza"].tf == 2


class TestBuildIndex:
    def test_empty_corpus(self):
        index = build_index([])
        assert index.doc_count == 0
        assert index.postings == {}

    def test_single_doc_df_is_one(self):
        index = build_index([make_summary("http://x/o.owl", class_names=["Pizza"])])
        assert index.doc_count == 1
        assert all(index.df(term) == 1 for term in index.postings)

    def test_fixture_corpus_df_book(self, webroot):
        index = build_index(fixture_summaries(webroot))
        assert index.doc_count == 4
        assert index.df("book") == 1

    def test_doc_table_counts(self, webroot):
        index = build_index(fixture_summaries(webroot))
        library = index.doc_table[0]
        assert library.url.endswith("library.rdf")
        assert (library.class_count, library.property_count, library.relation_count) == (5, 4, 6)

    def test_deterministic_output(self, webroot, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_index(build_index(fixture_summaries(webroot)), p1)
        save_index(build_index(fixture_summaries(webroot)), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_tf_conservation(self, webroot):
        """Sum of tf over a term's postings equals a brute-force recount."""
        summaries = fixture_summaries(webroot)
        index = build_index(summaries)

        recount = Counter()
        for summary in summaries:
            for element in summary.classes:
                recount.update(tokenize(element.local_name))
            for element in summary.properties:
                recount.update(tokenize(element.local_name))
            for element in summary.classes + summary.properties:
                for text in element.labels + element.comments:
                    recount.update(tokenize(text))
            recount.update(tokenize(summary.ontology_iri))
            recount.update(tokenize(summary.source_url))

        indexed = {term: sum(p.tf for p in plist) for term, plist in index.postings.items()}
        assert indexed == dict(recount)

    def test_posting_lists_sorted_unique(self, webroot):
        index = build_index(fixture_summaries(webroot) * 2)
        order = {kind: i for i, kind in enumerate(FieldKind)}
        for plist in index.postings.values():
            keys = [(p.doc, order[p.field]) for p in plist]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)

    @given(
        st.lists(
            st.lists(st.sampled_from(["Pizza", "pizzaTopping", "hasBase", "x1", "Base"]), max_size=4),
            min_size=2,
            max_size=5,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_build_emits_doc_then_field_order(self, names):
        # Checked on build_index itself: save_index sorts again on write,
        # so the byte-identity tests cannot see disorder here.
        summaries = [
            make_summary(
                f"http://h{i}.example/pizza{i}.owl",
                class_names=words,
                property_names=words[::-1],
                labels=words,
                comments=words[:1],
                ontology_iri=f"http://pizza.example/{'/'.join(words)}",
            )
            for i, words in enumerate(names)
        ]
        rank = list(FieldKind).index
        for term, plist in build_index(summaries).postings.items():
            keys = [(p.doc, rank(p.field)) for p in plist]
            assert keys == sorted(set(keys)), term


class TestRunIndexer:
    def journal(self, tmp_path, urls):
        repo = UrlRepository(tmp_path)
        for i, url in enumerate(urls):
            repo.append(UrlRecord(url=url, depth=i))

    def test_indexes_journal_in_order(self, tmp_path, webroot):
        transport = static_site_from(webroot)
        urls = [f"{FIXTURE_HOST}/onts/{name}" for name in ONT_NAMES]
        self.journal(tmp_path, urls)
        report = run_indexer(tmp_path, transport)
        assert (report.indexed, report.skipped) == (4, 0)
        index = load_index(tmp_path / "index.json")
        assert [entry.url for entry in index.doc_table] == urls

    def test_turtle_document_skipped_gracefully(self, tmp_path, webroot):
        transport = static_site_from(webroot)
        urls = [f"{FIXTURE_HOST}/onts/{name}" for name in ONT_NAMES[:3]]
        urls.append(f"{FIXTURE_HOST}/onts/notes.ttl")
        self.journal(tmp_path, urls)
        report = run_indexer(tmp_path, transport)
        assert (report.indexed, report.skipped) == (3, 1)
        assert report.warnings[0][0].endswith("notes.ttl")

    def test_unresolvable_iri_does_not_abort_the_run(self, tmp_path, webroot):
        transport = static_site_from(webroot)
        bad = f"{FIXTURE_HOST}/onts/bad.rdf"
        transport.pages[bad] = (
            200,
            "application/rdf+xml",
            b'<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
            b' xmlns:owl="http://www.w3.org/2002/07/owl#">'
            b'<owl:Class rdf:about="http://[bad/x"/><owl:Class rdf:about="#Kept"/></rdf:RDF>',
        )
        urls = [f"{FIXTURE_HOST}/onts/library.rdf", bad]
        self.journal(tmp_path, urls)
        report = run_indexer(tmp_path, transport)
        assert (report.indexed, report.skipped) == (2, 0)
        index = load_index(tmp_path / "index.json")
        assert [entry.url for entry in index.doc_table] == urls
        assert [p.doc for p in index.postings["kept"]] == [1]

    def test_empty_journal_persists_empty_index(self, tmp_path, webroot):
        UrlRepository(tmp_path)  # creates an empty journal directory
        report = run_indexer(tmp_path, static_site_from(webroot))
        assert report.indexed == 0
        assert load_index(tmp_path / "index.json").doc_count == 0

    def test_uses_stored_blobs_without_fetching(self, tmp_path, webroot):
        from owse.storage import OntologyRepository

        transport = static_site_from(webroot)
        url = f"{FIXTURE_HOST}/onts/library.rdf"
        OntologyRepository(tmp_path).put(
            (webroot / "onts" / "library.rdf").read_bytes(), source_url=url
        )
        self.journal(tmp_path, [url])
        report = run_indexer(tmp_path, transport)
        assert report.indexed == 1
        assert transport.requested_urls() == []

    def test_truncated_refetch_skipped_as_oversize(self, tmp_path, webroot):
        from owse.storage import OntologyRepository

        transport = static_site_from(webroot)
        real_get = transport.get

        def truncating_get(url):
            response = real_get(url)
            response.truncated = True
            return response

        transport.get = truncating_get
        url = f"{FIXTURE_HOST}/onts/library.rdf"
        self.journal(tmp_path, [url])
        report = run_indexer(tmp_path, transport)
        assert (report.indexed, report.skipped) == (0, 1)
        assert report.warnings == [(url, "oversize")]
        assert OntologyRepository(tmp_path).count() == 0

    def test_refetched_blob_id_is_content_digest(self, tmp_path, webroot):
        transport = static_site_from(webroot)
        url = f"{FIXTURE_HOST}/onts/library.rdf"
        self.journal(tmp_path, [url])
        run_indexer(tmp_path, transport)
        digest = hashlib.sha256((webroot / "onts" / "library.rdf").read_bytes()).hexdigest()
        assert [entry.blob_id for entry in load_index(tmp_path / "index.json").doc_table] == [digest]

    def test_reads_journal_once_without_normalizing(self, tmp_path, monkeypatch):
        self.journal(tmp_path, [f"http://h.test/o{i}.owl" for i in range(200)])
        calls: Counter = Counter()
        real_scan, real_normalize = UrlRepository.scan, storage.normalize_url

        def counting_scan(repo):
            calls["scan"] += 1
            return real_scan(repo)

        def counting_normalize(raw, base):
            calls["normalize_url"] += 1
            return real_normalize(raw, base)

        monkeypatch.setattr(UrlRepository, "scan", counting_scan)
        monkeypatch.setattr(storage, "normalize_url", counting_normalize)
        report = run_indexer(tmp_path, StaticTransport({}))
        assert report.skipped == 200
        assert calls == {"scan": 1}
