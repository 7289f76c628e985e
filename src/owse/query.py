"""Keyword search over the inverted index.

A document's score for a query is the sum, over query terms it contains,
of idf(t) * sum_f w_f * log2(1 + tf), where idf(t) = log2(1 + N/(1+df))
and w_f is the weight of the field the term occurred in. Matching is
disjunctive: a document qualifies when any query term occurs in it.
Results are ordered by score descending with URL as the tie-break.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .indexer import FieldKind, InvertedIndex, Posting, tokenize


@dataclass
class Query:
    raw: str
    unique_terms: set[str]


@dataclass
class ScoredHit:
    url: str
    blob_id: str
    score: float
    matched: list[tuple[str, FieldKind, int]] = field(default_factory=list)


@dataclass
class SearchResults:
    hits: list[ScoredHit]
    total_matching: int
    query: Query


def parse_query(raw: str) -> Query:
    """Split a raw query with the indexing tokenizer."""
    return Query(raw=raw, unique_terms=set(tokenize(raw)))


def _field_part(postings: list[Posting]) -> float:
    return sum(p.field.weight * math.log2(1 + p.tf) for p in postings)


def search(raw: str, index: InvertedIndex, top_k: int = 10) -> SearchResults:
    """Rank every document matching at least one query term."""
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
        idf = math.log2(1 + index.doc_count / (1 + len(by_doc)))  # df = len(by_doc)
        for doc, here in by_doc.items():
            per_doc[doc] = per_doc.get(doc, 0.0) + idf * _field_part(here)
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
