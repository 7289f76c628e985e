import gc
import hashlib
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from owse import indexer, storage
from owse.indexer import (
    DocEntry,
    FieldKind,
    IndexReport,
    InvertedIndex,
    Posting,
    build_index,
    load_index,
    run_indexer,
    save_index,
    tokenize,
)
from owse.ontology import (
    ElementKind,
    OntologyElement,
    OntologySummary,
    parse_rdfxml,
    summarize_ontology,
)
from owse.storage import UrlRecord, UrlRepository

import oracle
from support import (
    FIXTURE_HOST,
    TAGGED_LITERALS,
    UNSUPPORTED_KINDS,
    UNSUPPORTED_RDF,
    StaticTransport,
    make_summary,
    nested_rdf,
    reference_build_index,
    reference_save_index,
    static_site_from,
    traced_peak,
)

ONT_NAMES = ["library.rdf", "pizza.owl", "vehicle.rdf", "metadata.rdf"]


def fixture_summaries(webroot, base_prefix="http://fixture.local/onts/"):
    summaries = []
    for name in ONT_NAMES:
        data = (webroot / "onts" / name).read_bytes()
        url = base_prefix + name
        triples = parse_rdfxml(data, base=url)
        summaries.append(summarize_ontology(triples, url, "0" * 64, len(data)))
    return summaries


# Texts composed of camel and upper runs, digits inside runs, separators
# and non-ASCII letters (the Kelvin sign lowercases to ASCII "k").
TEXT_PIECES = [
    "a", "z", "A", "Z", "0", "9", "ab", "AB", "Ab", "aB", "a1B", "ABC1d", "1a", "1A",
    "HTTPServer", "hasAuthor", "XMLHttpRequest", "v2Beta", "_", "-", "#", "/", ".", " ",
    "\u00e9", "\u00c9", "Caf\u00e9", "\u0130", "\u0131", "\u212a", "\u00df", "\ufb01",
]
texts = st.one_of(
    st.lists(st.sampled_from(TEXT_PIECES), max_size=12).map("".join),
    st.text(max_size=30),
)


@st.composite
def summaries(draw, texts=texts):
    def elements(kind):
        return [
            OntologyElement(
                iri=f"http://x.example/o#{name}",
                local_name=name,
                labels=draw(st.lists(texts, max_size=3)),
                comments=draw(st.lists(texts, max_size=3)),
                kind=kind,
            )
            for name in draw(st.lists(texts, max_size=4))
        ]

    return OntologySummary(
        ontology_iri=draw(texts),
        source_url="http://" + draw(texts),
        blob_id="0" * 64,
        size_bytes=1,
        classes=elements(ElementKind.CLASS),
        properties=elements(ElementKind.PLAIN_PROPERTY),
    )


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

    def test_only_ascii_letters_and_digits_form_terms(self):
        assert tokenize("Caf\u00e9 na\u00efve \u212aelvin") == ["caf", "na", "ve", "elvin"]

    @settings(max_examples=500, deadline=None)
    @given(texts)
    @example("a1" * 5000)  # one piece of many repeat steps
    @example("1A" * 5000)
    @example("A" * 10000 + "a")
    def test_equals_reference_tokenizer(self, text):
        assert tokenize(text) == oracle.tokenize(text)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=60))
    def test_idempotent_over_own_output(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


# One alphanumeric run of 1 MiB, a single piece: each peaked at 75 to
# 317 MiB while a repeat kept a backtracking frame per step.
LONG_RUNS = ["a1" * (1 << 19), "1A" * (1 << 19), "A" * (1 << 20)]


class TestTokenizeMemory:
    @pytest.mark.parametrize("text", LONG_RUNS, ids=["a1", "1A", "A"])
    def test_one_long_run_peaks_under_four_times_its_size(self, text):
        tokens, peak = traced_peak(tokenize, text)
        assert tokens == [text.lower()]
        assert peak < 4 * len(text), peak

    @pytest.mark.parametrize("text", LONG_RUNS, ids=["a1", "1A", "A"])
    def test_build_index_over_a_long_comment_peaks_under_four_times_its_size(self, text):
        summary = make_summary("http://x.example/o.owl", class_names=["Pizza"], comments=[text])
        index, peak = traced_peak(build_index, [summary])
        assert index.postings[text.lower()] == [Posting(0, FieldKind.COMMENT, 1)]
        assert peak < 4 * len(text), peak


def document_postings(summary):
    """(term, posting) pairs of the one-document index over ``summary``,
    in (term, field rank) order."""
    postings = build_index([summary]).postings
    return [(term, posting) for term in sorted(postings) for posting in postings[term]]


class TestDocumentPostings:
    def test_single_class(self):
        summary = make_summary("http://x/o.owl", class_names=["Pizza"])
        pairs = document_postings(summary)
        class_postings = [(t, p) for t, p in pairs if p.field is FieldKind.CLASS_NAME]
        assert class_postings == [("pizza", (0, FieldKind.CLASS_NAME, 1))]
        iri_terms = {t for t, p in pairs if p.field is FieldKind.ONTOLOGY_IRI}
        assert "owl" in iri_terms  # tokens of the source URL

    def test_per_field_aggregation(self):
        summary = make_summary(
            "http://x/o.owl", class_names=["PizzaTopping"], labels=["pizza topping"]
        )
        pairs = document_postings(summary)
        pizza = [(p.field, p.tf) for t, p in pairs if t == "pizza"]
        assert pizza == [(FieldKind.CLASS_NAME, 1), (FieldKind.LABEL, 1)]
        assert all(p.doc == 0 for _, p in pairs)

    def test_empty_summary_yields_only_iri_postings(self):
        summary = make_summary("http://x/o.owl")
        pairs = document_postings(summary)
        assert pairs
        assert all(p.field is FieldKind.ONTOLOGY_IRI for _, p in pairs)

    def test_tagged_and_typed_literals_index_as_label_and_comment(self):
        url = "http://x/o"
        summary = summarize_ontology(parse_rdfxml(TAGGED_LITERALS, base=url), url, "0" * 64, 1)
        fields = {(t, p.field) for t, p in document_postings(summary)}
        assert {("pizza", FieldKind.LABEL), ("dish", FieldKind.COMMENT)} <= fields

    def test_tf_aggregates_repeats_within_field(self):
        summary = make_summary("http://x/o.owl", class_names=["PizzaBase", "PizzaTopping"])
        pairs = dict(document_postings(summary))
        assert pairs["pizza"].tf == 2

    @settings(max_examples=200, deadline=None)
    @given(summaries())
    def test_equals_per_element_recount(self, summary):
        counts = oracle.field_counts(summary)
        expected = [
            (term, (0, kind, counts[kind.value][term]))
            for term in sorted(set().union(*counts.values()))
            for kind in FieldKind
            if counts[kind.value][term]
        ]
        assert document_postings(summary) == expected


# Words that collide across fields and documents, in camelCase and
# uppercase runs, and the empty text.
COLLIDING_WORDS = ["pizza", "Pizza", "pizzaTopping", "PizzaBase", "hasBase", "base", "HTTPServer", "x1", ""]
colliding_texts = st.lists(st.sampled_from(COLLIDING_WORDS), max_size=4).map(" ".join)
corpora = st.lists(summaries(st.one_of(colliding_texts, colliding_texts, texts)), max_size=5)


class TestWritePathReference:
    """build_index and save_index against the straightforward builder and
    writer in tests/support.py, which sort where the engine does not."""

    @settings(max_examples=150, deadline=None)
    @given(corpora)
    def test_build_equals_reference(self, corpus):
        index = build_index(corpus)
        assert index == reference_build_index(corpus)  # every posting list, in order
        assert all(type(p) is Posting for plist in index.postings.values() for p in plist)

    @settings(max_examples=50, deadline=None)
    @given(corpus=corpora)
    def test_saved_bytes_equal_reference(self, corpus, tmp_path_factory):
        directory = tmp_path_factory.mktemp("idx")
        save_index(build_index(corpus), directory / "a.json")
        reference_save_index(reference_build_index(corpus), directory / "b.json")
        assert (directory / "a.json").read_bytes() == (directory / "b.json").read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(corpus=corpora, data=st.data())
    def test_hand_built_lists_save_as_reference(self, corpus, data, tmp_path_factory):
        # Posting lists in any order, and with postings repeating a
        # (doc, field) pair, which save_index sorts stably and keeps.
        index = build_index(corpus)
        for term, plist in index.postings.items():
            repeats = data.draw(st.lists(st.tuples(st.sampled_from(plist), st.integers(1, 9)), max_size=3))
            plist += [Posting(p.doc, p.field, tf) for p, tf in repeats]
            index.postings[term] = data.draw(st.permutations(plist))
        directory = tmp_path_factory.mktemp("idx")
        save_index(index, directory / "a.json")
        reference_save_index(index, directory / "b.json")
        assert (directory / "a.json").read_bytes() == (directory / "b.json").read_bytes()


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


class TestIndexTypes:
    def test_new_indexes_are_equal_and_share_no_container(self):
        first, second = InvertedIndex(), InvertedIndex()
        assert first == second
        assert first.doc_table is not second.doc_table
        assert first.postings is not second.postings
        first.doc_table.append(DocEntry("0" * 64, "http://h/o", 1, 0, 0, 0))
        first.postings["term"] = [Posting(0, FieldKind.LABEL, 1)]
        assert (second.doc_table, second.postings) == ([], {})
        assert first != second

    def test_equality_compares_doc_table_and_postings(self):
        entry = DocEntry("0" * 64, "http://h/o", 1, 0, 0, 0)
        postings = {"term": [Posting(0, FieldKind.LABEL, 1)]}
        index = InvertedIndex(doc_table=[entry], postings=postings)
        assert index == InvertedIndex([entry], {"term": [Posting(0, FieldKind.LABEL, 1)]})
        assert index != InvertedIndex(doc_table=[entry])
        assert index != InvertedIndex(postings=postings)
        assert index != (index.doc_table, index.postings)

    def test_repr_names_both_fields(self):
        index = InvertedIndex(
            doc_table=[DocEntry(blob_id="b", url="http://h/o", size_bytes=9, class_count=1,
                                property_count=2, relation_count=3)],
            postings={"term": [Posting(0, FieldKind.CLASS_NAME, 2)]},
        )
        assert repr(index) == (
            "InvertedIndex(doc_table=[DocEntry(blob_id='b', url='http://h/o', size_bytes=9,"
            " class_count=1, property_count=2, relation_count=3)],"
            " postings={'term': [Posting(doc=0, field=<FieldKind.CLASS_NAME: 'ClassName'>, tf=2)]})"
        )

    def test_doc_entry_is_a_tuple_of_its_fields(self):
        entry = DocEntry(blob_id="b", url="http://h/o", size_bytes=9, class_count=1, property_count=2,
                         relation_count=3)
        assert entry == ("b", "http://h/o", 9, 1, 2, 3)
        assert entry.url == "http://h/o"


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

    def test_deeply_nested_document_is_indexed_with_a_warning(self, tmp_path, webroot):
        transport = static_site_from(webroot)
        deep = "http://deep.test/o.rdf"
        transport.pages[deep] = (200, "application/rdf+xml", nested_rdf(600))
        urls = [f"{FIXTURE_HOST}/onts/{name}" for name in ONT_NAMES[:2]]
        self.journal(tmp_path, [urls[0], deep, urls[1]])
        report = run_indexer(tmp_path, transport)
        assert (report.indexed, report.skipped) == (3, 0)
        assert report.parse_warnings["deep-nesting"] == 1
        index = load_index(tmp_path / "index.json")
        assert [entry.url for entry in index.doc_table] == [urls[0], deep, urls[1]]

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

    def test_parse_warnings_counted_by_kind(self, tmp_path, webroot):
        transport = static_site_from(webroot)
        unsupported = [f"{FIXTURE_HOST}/onts/unsupported{i}.rdf" for i in (1, 2)]
        for url in unsupported:
            transport.pages[url] = (200, "application/rdf+xml", UNSUPPORTED_RDF)
        urls = [f"{FIXTURE_HOST}/onts/{name}" for name in ONT_NAMES]
        urls[1:1] = [unsupported[0], f"{FIXTURE_HOST}/onts/notes.ttl", unsupported[1]]
        self.journal(tmp_path, urls)
        report = run_indexer(tmp_path, transport)
        assert (report.indexed, report.skipped) == (6, 1)
        indexed = [url for url in urls if not url.endswith(".ttl")]
        parsed = [parse_rdfxml(transport.pages[url][2], base=url) for url in indexed]
        assert sum(report.parse_warnings.values()) == sum(len(t.warnings) for t in parsed)
        assert report.parse_warnings == Counter(UNSUPPORTED_KINDS * 2)

    def test_collector_paused_during_run_then_restored(self, tmp_path, webroot, monkeypatch):
        seen = []
        real_parse = indexer.parse_rdfxml

        def parse(data, base):
            seen.append(gc.isenabled())
            return real_parse(data, base)

        monkeypatch.setattr(indexer, "parse_rdfxml", parse)
        self.journal(tmp_path, [f"{FIXTURE_HOST}/onts/{name}" for name in ONT_NAMES])
        was_enabled = gc.isenabled()
        gc.enable()
        try:
            run_indexer(tmp_path, static_site_from(webroot))
            assert seen == [False] * len(ONT_NAMES)
            assert gc.isenabled()
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_calls_the_module_global_summarize_ontology(self, tmp_path, webroot, monkeypatch):
        seen = []
        real_summarize = indexer.summarize_ontology

        def summarize(triples, source_url, blob_id, size_bytes):
            seen.append(source_url)
            return real_summarize(triples, source_url, blob_id, size_bytes)

        monkeypatch.setattr(indexer, "summarize_ontology", summarize)
        urls = [f"{FIXTURE_HOST}/onts/{name}" for name in ONT_NAMES]
        self.journal(tmp_path, urls)
        assert run_indexer(tmp_path, static_site_from(webroot)).indexed == len(urls)
        assert seen == urls

    def test_report_starts_from_zero(self):
        first, second = IndexReport(), IndexReport()
        assert (first.indexed, first.skipped, first.warnings, first.parse_warnings) == (0, 0, [], Counter())
        first.warnings.append(("http://h/x", "empty-document"))
        first.parse_warnings["parse-type"] += 1
        assert (second.skipped, second.warnings, second.parse_warnings) == (0, [], Counter())

    def test_empty_journal_persists_empty_index(self, tmp_path, webroot):
        data_dir = tmp_path / "fresh"  # created by run_indexer
        report = run_indexer(data_dir, static_site_from(webroot))
        assert report.indexed == 0
        assert load_index(data_dir / "index.json").doc_count == 0

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

    def test_tampered_blob_is_refetched_once(self, tmp_path, webroot):
        from owse.storage import OntologyRepository

        transport = static_site_from(webroot)
        url = f"{FIXTURE_HOST}/onts/library.rdf"
        data = (webroot / "onts" / "library.rdf").read_bytes()
        repo = OntologyRepository(tmp_path)
        blob_id = repo.put(data, source_url=url)
        (repo.objects_dir / f"{blob_id}.rdf").write_bytes(b"tampered")
        self.journal(tmp_path, [url])
        assert run_indexer(tmp_path, transport).indexed == 1
        assert transport.requested_urls() == [url]
        assert run_indexer(tmp_path, transport).indexed == 1
        assert transport.requested_urls() == [url]
        assert repo.get(blob_id) == data

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

    @pytest.mark.parametrize(
        "status, body, reason",
        [(404, b"not found", "http status 404"), (500, b"", "http status 500"), (200, b"", "empty-document")],
    )
    def test_unusable_refetch_is_skipped_with_its_reason(self, tmp_path, status, body, reason):
        url = "http://a.test/e.owl"
        self.journal(tmp_path, [url])
        report = run_indexer(tmp_path, StaticTransport({url: (status, "application/rdf+xml", body)}))
        assert report.warnings == [(url, reason)]

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
