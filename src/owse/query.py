"""Keyword search over the inverted index.

A document's score for a query is the sum, over query terms it contains,
of idf(t) * sum_f w_f * log2(1 + tf), where idf(t) = log2(1 + N/(1+df))
and w_f is the weight of the field the term occurred in. Matching is
disjunctive: a document qualifies when any query term occurs in it.
Each sum adds its parts into one float in turn, in posting order, so
every Python ranks alike. Results are ordered by score descending with
URL as the tie-break.
A query scores each posting of its terms once and builds hits only for
the top k it returns; ``total_matching`` still counts every match.
"""

from __future__ import annotations

import heapq
import math
from typing import NamedTuple

from .indexer import FieldKind, InvertedIndex, tokenize


class Query(NamedTuple):
    """A parsed query, a named tuple."""

    unique_terms: set[str]


class ScoredHit(NamedTuple):
    """One ranked document, a named tuple: ``matched`` lists the (term,
    field, tf) postings of the query terms it contains."""

    url: str
    blob_id: str
    score: float
    matched: list[tuple[str, FieldKind, int]]


class SearchResults(NamedTuple):
    """The ``hits`` of a search, best first, a named tuple."""

    hits: list[ScoredHit]
    total_matching: int
    query: Query


def parse_query(raw: str) -> Query:
    """Split a raw query with the indexing tokenizer."""
    return Query(unique_terms=set(tokenize(raw)))


def search(raw: str, index: InvertedIndex, top_k: int = 10) -> SearchResults:
    """The ``top_k`` best documents matching at least one query term."""
    if top_k < 0:
        raise ValueError(f"top_k must be 0 or more, not {top_k}")
    query = parse_query(raw)
    terms = [term for term in sorted(query.unique_terms) if index.postings.get(term)]
    per_doc: dict[int, float] = {}
    for term in terms:
        by_doc: dict[int, float] = {}
        for doc, kind, tf in index.postings[term]:
            by_doc[doc] = by_doc.get(doc, 0.0) + kind.weight * math.log2(1 + tf)
        idf = math.log2(1 + index.doc_count / (1 + len(by_doc)))  # df = len(by_doc)
        for doc, field_sum in by_doc.items():
            per_doc[doc] = per_doc.get(doc, 0.0) + idf * field_sum

    scores = [score for score in per_doc.values() if score > 0]
    # Only documents that reach the k-th best score can rank, so the URL
    # tie-break is read for those alone.
    cut = min(heapq.nlargest(top_k, scores), default=math.inf)
    doc_table = index.doc_table
    near = [doc for doc, score in per_doc.items() if score >= cut]
    top = sorted(near, key=lambda doc: (-per_doc[doc], doc_table[doc].url))[:top_k]
    matched: dict[int, list[tuple[str, FieldKind, int]]] = {doc: [] for doc in top}
    for term in terms:
        for doc, kind, tf in index.postings[term]:
            here = matched.get(doc)
            if here is not None:
                here.append((term, kind, tf))
    hits = [
        ScoredHit(
            url=doc_table[doc].url,
            blob_id=doc_table[doc].blob_id,
            score=per_doc[doc],
            matched=matched[doc],
        )
        for doc in top
    ]
    return SearchResults(hits=hits, total_matching=len(scores), query=query)
