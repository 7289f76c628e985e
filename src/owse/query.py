"""Keyword search over the inverted index.

A document's score for a query is the sum, over query terms it contains,
of idf(t) * sum_f w_f * log2(1 + tf), where idf(t) = log2(1 + N/(1+df))
and w_f is the weight of the field the term occurred in. Matching is
disjunctive: a document qualifies when any query term occurs in it.
Results are ordered by score descending with URL as the tie-break.
A query scores each posting of its terms once and builds hits only for
the top k it returns; ``total_matching`` still counts every match.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from .indexer import FieldKind, InvertedIndex, tokenize


@dataclass
class Query:
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
    return Query(unique_terms=set(tokenize(raw)))


def search(raw: str, index: InvertedIndex, top_k: int = 10) -> SearchResults:
    """The ``top_k`` best documents matching at least one query term."""
    if top_k < 0:
        raise ValueError(f"top_k must be 0 or more, not {top_k}")
    query = parse_query(raw)
    terms = [term for term in sorted(query.unique_terms) if index.postings.get(term)]
    per_doc: dict[int, float] = {}
    for term in terms:
        by_doc: dict[int, list[float]] = {}
        for doc, kind, tf in index.postings[term]:
            by_doc.setdefault(doc, []).append(kind.weight * math.log2(1 + tf))
        idf = math.log2(1 + index.doc_count / (1 + len(by_doc)))  # df = len(by_doc)
        for doc, parts in by_doc.items():
            # sum(), as tests/oracle.py sums, not adding in turn: from Python
            # 3.12 sum() compensates float rounding, so the two differ there
            # by an ulp, which reorders near ties.
            per_doc[doc] = per_doc.get(doc, 0.0) + idf * sum(parts)

    candidates = [doc for doc, score in per_doc.items() if score > 0]
    doc_table = index.doc_table
    top = heapq.nsmallest(top_k, candidates, key=lambda doc: (-per_doc[doc], doc_table[doc].url))
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
    return SearchResults(hits=hits, total_matching=len(candidates), query=query)
