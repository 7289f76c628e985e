import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owse.indexer import DocEntry, FieldKind, InvertedIndex, Posting, build_index
from owse.query import ScoredHit, SearchResults, parse_query, search

from support import make_summary

from oracle import brute_force_search


def reference_search(raw: str, index: InvertedIndex, top_k: int = 10) -> SearchResults:
    """search() as it was before it kept only the top k: every posting
    grouped by document, a hit built for every match, all hits sorted."""
    query = parse_query(raw)
    per_doc: dict[int, float] = {}
    per_doc_matches: dict[int, list[tuple[str, FieldKind, int]]] = {}

    for term in sorted(query.unique_terms):
        plist = index.postings.get(term)
        if not plist:
            continue
        by_doc: dict[int, list[Posting]] = {}
        for posting in plist:
            by_doc.setdefault(posting.doc, []).append(posting)
        idf = math.log2(1 + index.doc_count / (1 + len(by_doc)))
        for doc, here in by_doc.items():
            field_part = 0.0
            for p in here:
                field_part += p.field.weight * math.log2(1 + p.tf)
            per_doc[doc] = per_doc.get(doc, 0.0) + idf * field_part
            per_doc_matches.setdefault(doc, []).extend((term, p.field, p.tf) for p in here)

    hits = [
        ScoredHit(
            url=index.doc_table[doc].url,
            blob_id=index.doc_table[doc].blob_id,
            score=score,
            matched=per_doc_matches[doc],
        )
        for doc, score in per_doc.items()
        if score > 0
    ]
    hits.sort(key=lambda h: (-h.score, h.url))
    return SearchResults(hits=hits[:top_k], total_matching=len(hits), query=query)


# A small vocabulary, so terms collide across fields and documents and
# equal scores tie across URLs; the URL words are in it too.
WORDS = ["author", "book", "pizza", "has", "name"]
URLS = [f"http://{host}.test/{path}" for host in ("aa", "bb") for path in ("book", "pizza", "x1", "x2")]
IRIS = ["", "http://onto.test/pizza", "http://onto.test/hasAuthor"]


def camel(words: list[str]) -> str:
    return words[0] + "".join(word.capitalize() for word in words[1:])


local_names = st.lists(st.sampled_from(WORDS + ["Pizza"]), min_size=1, max_size=3).map(camel)
texts = st.lists(st.sampled_from(WORDS), max_size=4).map(" ".join)


@st.composite
def corpora(draw):
    return [
        make_summary(
            url,
            class_names=draw(st.lists(local_names, max_size=3)),
            property_names=draw(st.lists(local_names, max_size=2)),
            labels=draw(st.lists(texts, max_size=2)),
            comments=draw(st.lists(texts, max_size=2)),
            ontology_iri=draw(st.sampled_from(IRIS)),
        )
        for url in draw(st.lists(st.sampled_from(URLS), min_size=1, unique=True))
    ]


# Vocabulary words, camelCase forms of them and terms no document holds.
query_words = st.one_of(st.sampled_from(WORDS + ["zzzz", "nothing", "http"]), local_names)
queries = st.lists(query_words, max_size=4).map(" ".join)


def three_doc_corpus():
    """One doc with an Author class, two without; no other 'author' tokens."""
    return [
        make_summary("http://h1/one", class_names=["Author"]),
        make_summary("http://h2/two", class_names=["Bird"]),
        make_summary("http://h3/three", class_names=["Cactus"]),
    ]


def scores(raw, index):
    """URL -> score of every document search() ranks for ``raw``."""
    return {hit.url: hit.score for hit in search(raw, index, top_k=index.doc_count).hits}


class TestParseQuery:
    def test_plain_keywords(self):
        assert parse_query("pizza topping pizza").unique_terms == {"pizza", "topping"}

    def test_shared_tokenizer_splits_camel_case(self):
        assert parse_query("hasAuthor").unique_terms == {"has", "author"}

    def test_separators_only(self):
        assert parse_query("  !! ").unique_terms == set()


class TestScoreOntology:
    """Per-document scores, as search() reports them."""

    def test_worked_value_single_class_n3(self):
        # df("author") = 1, N = 3, ClassName tf 1:
        # log2(1 + 3/2) * 3.0 * log2(2) = 3.965784284662087
        index = build_index(three_doc_corpus())
        (hit,) = search("author", index).hits
        assert hit.score == pytest.approx(3.965784284662087, abs=1e-9)
        assert round(hit.score, 4) == 3.9658
        assert hit.matched == [("author", FieldKind.CLASS_NAME, 1)]

    def test_field_parts_add_in_turn(self):
        # "pizza" in ClassName tf 1, Comment tf 4 and OntologyIri tf 2 (the
        # IRI and the URL): added in turn, 3.0 + log2(5) + 1.5 * log2(3)
        # is 7.699371845969096 on every Python; sum() reads ...097 from 3.12.
        summary = make_summary(
            "http://h/pizza",
            class_names=["Pizza"],
            comments=["pizza pizza pizza pizza"],
            ontology_iri="http://onto.test/pizza",
        )
        index = build_index([summary])
        assert index.postings["pizza"] == [
            Posting(0, FieldKind.CLASS_NAME, 1),
            Posting(0, FieldKind.COMMENT, 4),
            Posting(0, FieldKind.ONTOLOGY_IRI, 2),
        ]
        (hit,) = search("pizza", index).hits
        assert hit.score == math.log2(1 + 1 / 2) * 7.699371845969096

    def test_absent_term_scores_zero(self):
        index = build_index(three_doc_corpus())
        assert scores("zzzz", index) == {}

    def test_term_in_other_doc_scores_zero(self):
        index = build_index(three_doc_corpus())
        assert list(scores("bird", index)) == ["http://h2/two"]

    def test_additivity_over_disjoint_term_sets(self):
        index = build_index(three_doc_corpus())
        both = scores("author one bird", index)
        only_a = scores("author", index)
        only_b = scores("one bird", index)
        assert set(both) == set(only_a) | set(only_b)
        for url, score in both.items():
            assert score == pytest.approx(only_a.get(url, 0.0) + only_b.get(url, 0.0), rel=1e-12)

    def test_extra_matching_posting_never_decreases_score(self):
        plain = make_summary("http://h1/one", class_names=["Author"])
        labeled = make_summary("http://h1/one", class_names=["Author"], labels=["author list"])
        others = [
            make_summary("http://h2/two", class_names=["Bird"]),
            make_summary("http://h3/three", class_names=["Cactus"]),
        ]
        before = scores("author", build_index([plain] + others))["http://h1/one"]
        after = scores("author", build_index([labeled] + others))["http://h1/one"]
        assert after > before


class TestResultTypes:
    def test_built_by_keyword_and_compared(self):
        matched = [("book", FieldKind.CLASS_NAME, 1)]
        hit = ScoredHit(url="http://h/o", blob_id="0" * 64, score=1.5, matched=matched)
        assert hit == ScoredHit(url="http://h/o", blob_id="0" * 64, score=1.5, matched=list(matched))
        assert hit != ScoredHit(url="http://h/o", blob_id="0" * 64, score=2.0, matched=matched)
        query = parse_query("book")
        results = SearchResults(hits=[hit], total_matching=1, query=query)
        assert results == SearchResults(hits=[hit], total_matching=1, query=parse_query("Book"))
        assert results != SearchResults(hits=[], total_matching=1, query=query)

    def test_each_is_a_tuple_of_its_fields(self):
        hit = ScoredHit(url="http://h/o", blob_id="b", score=1.5, matched=[])
        results = SearchResults(hits=[hit], total_matching=1, query=parse_query("x1"))
        assert hit == ("http://h/o", "b", 1.5, [])
        assert results == ([hit], 1, ({"x1"},))


class TestSearch:
    def test_single_match(self):
        index = build_index(three_doc_corpus())
        results = search("author", index)
        assert [hit.url for hit in results.hits] == ["http://h1/one"]
        assert results.total_matching == 1

    def test_empty_query(self):
        index = build_index(three_doc_corpus())
        results = search("", index)
        assert results.hits == []
        assert results.total_matching == 0

    def test_score_ties_break_by_url_ascending(self):
        summaries = [
            make_summary("http://b/x", class_names=["Same"]),
            make_summary("http://a/x", class_names=["Same"]),
        ]
        results = search("same", build_index(summaries))
        assert [hit.url for hit in results.hits] == ["http://a/x", "http://b/x"]
        assert results.hits[0].score == results.hits[1].score

    def test_insertion_order_does_not_change_ranking(self):
        forward = three_doc_corpus()
        backward = list(reversed(forward))
        ranked_fwd = [(h.score, h.url) for h in search("author bird cactus http", build_index(forward)).hits]
        ranked_bwd = [(h.score, h.url) for h in search("author bird cactus http", build_index(backward)).hits]
        assert ranked_fwd == ranked_bwd

    def test_top_k_truncation(self):
        summaries = [
            make_summary(f"http://h/{i:02d}", class_names=["Shared", f"Unique{i}"])
            for i in range(5)
        ]
        results = search("shared", build_index(summaries), top_k=3)
        assert len(results.hits) == 3
        assert results.total_matching == 5

    def test_matched_terms_subset_of_query(self):
        index = build_index(three_doc_corpus())
        results = search("author cactus nothing", index)
        for hit in results.hits:
            assert hit.matched
            assert {term for term, _, _ in hit.matched} <= {"author", "cactus", "nothing"}
            assert hit.score > 0

    def test_multi_term_scores_sum(self):
        index = build_index(three_doc_corpus())
        combined = search("author one", index).hits[0].score
        single_a = search("author", index).hits[0].score
        single_b = search("one", index).hits[0].score
        assert combined == pytest.approx(single_a + single_b, rel=1e-12)

    def test_negative_top_k_is_refused(self):
        index = build_index(three_doc_corpus())
        with pytest.raises(ValueError, match="top_k"):
            search("author bird cactus", index, top_k=-2)

    def test_document_scoring_zero_is_not_a_match(self):
        # load_index refuses tf 0, but a hand-built index may hold one.
        index = InvertedIndex(
            doc_table=[DocEntry(c * 64, f"http://h/{c}", 1, 0, 0, 0) for c in "01"],
            postings={"pizza": [Posting(0, FieldKind.LABEL, 0), Posting(1, FieldKind.LABEL, 2)]},
        )
        results = search("pizza", index)
        assert [hit.url for hit in results.hits] == ["http://h/1"]
        assert results.total_matching == 1
        assert results == reference_search("pizza", index)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_reference_model_and_oracle(self, data):
        summaries = data.draw(corpora())
        raw = data.draw(queries)
        top_k = data.draw(st.integers(0, len(summaries) + 1))
        index = build_index(summaries)
        shuffled = data.draw(st.booleans())
        if shuffled:
            rng = data.draw(st.randoms(use_true_random=False))
            postings = {term: rng.sample(plist, len(plist)) for term, plist in index.postings.items()}
            index = InvertedIndex(doc_table=index.doc_table, postings=postings)

        results = search(raw, index, top_k=top_k)
        assert results == reference_search(raw, index, top_k=top_k)

        expected, total = brute_force_search(summaries, raw, top_k=top_k)
        assert results.total_matching == total
        assert [hit.score for hit in results.hits] == pytest.approx([s for _, s in expected], abs=1e-9)
        every = dict(brute_force_search(summaries, raw, top_k=len(summaries))[0])
        for hit in results.hits:
            assert hit.score == pytest.approx(every[hit.url], abs=1e-9)
        if not shuffled:
            # Summed in field order, as the oracle sums: ties order by URL alike.
            assert [hit.url for hit in results.hits] == [url for url, _ in expected]

    def test_agrees_with_brute_force_oracle(self):
        summaries = three_doc_corpus()
        index = build_index(summaries)
        for raw in ("author", "bird cactus", "http", "one two three", "zzzz"):
            engine = search(raw, index, top_k=10)
            expected, total = brute_force_search(summaries, raw, top_k=10)
            assert [h.url for h in engine.hits] == [url for url, _ in expected]
            assert engine.total_matching == total
            for hit, (_, score) in zip(engine.hits, expected):
                assert hit.score == pytest.approx(score, abs=1e-9)
