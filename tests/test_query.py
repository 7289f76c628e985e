import pytest

from owse.indexer import FieldKind, build_index
from owse.query import parse_query, search

from support import make_summary

from oracle import brute_force_search


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
