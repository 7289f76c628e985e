"""Brute-force reference scorer, independent of the inverted index.

Recomputes term frequencies and document frequencies directly from
ontology summaries and evaluates the ranking formula from first
principles. The field weights and the tokenizer are restated literally
here so a weight or tokenizer regression in the engine cannot hide.

Also holds ``normalize_url`` as urljoin/urlsplit alone compute it, the
reference for the fast path in owse.urls.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from urllib.parse import urljoin, urlsplit, urlunsplit

from owse.errors import Unparseable, UnsupportedScheme
from owse.ontology import OntologySummary

WEIGHTS = {
    "ClassName": 3.0,
    "PropertyName": 2.0,
    "Label": 2.0,
    "Comment": 1.0,
    "OntologyIri": 1.5,
}
FIELDS = ["ClassName", "PropertyName", "Label", "Comment", "OntologyIri"]

_WORD_RUN = re.compile(r"[A-Za-z0-9]+")
# Split points inside a run: aB (lower-to-upper) and the last capital of an
# uppercase run followed by a lowercase letter (HTTPServer -> HTTP Server).
_CASE_SPLIT = re.compile(r"(?<=[a-z])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")


def tokenize(text: str) -> list[str]:
    """Lowercased terms of ``text``, order preserved: ASCII alphanumeric
    runs split at camel-case boundaries, pieces shorter than two
    characters dropped."""
    tokens = []
    for run in _WORD_RUN.findall(text):
        for piece in _CASE_SPLIT.split(run):
            if len(piece) >= 2:
                tokens.append(piece.lower())
    return tokens


def field_counts(summary: OntologySummary) -> dict[str, Counter]:
    """Term frequency per field, recounted straight from the summary."""
    counts = {name: Counter() for name in FIELDS}
    for element in summary.classes:
        counts["ClassName"].update(tokenize(element.local_name))
    for element in summary.properties:
        counts["PropertyName"].update(tokenize(element.local_name))
    for element in summary.classes + summary.properties:
        for label in element.labels:
            counts["Label"].update(tokenize(label))
        for comment in element.comments:
            counts["Comment"].update(tokenize(comment))
    counts["OntologyIri"].update(tokenize(summary.ontology_iri))
    counts["OntologyIri"].update(tokenize(summary.source_url))
    return counts


def brute_force_search(
    summaries: list[OntologySummary], raw_query: str, top_k: int = 10
) -> tuple[list[tuple[str, float]], int]:
    """(url, score) ranking plus total match count for ``raw_query``."""
    docs = [field_counts(s) for s in summaries]
    n = len(docs)
    terms = sorted(set(tokenize(raw_query)))

    df = {term: sum(1 for counts in docs if any(counts[f][term] for f in FIELDS)) for term in terms}

    scored = []
    for summary, counts in zip(summaries, docs):
        score = 0.0
        for term in terms:
            present = [(f, counts[f][term]) for f in FIELDS if counts[f][term] > 0]
            if not present:
                continue
            idf = math.log2(1 + n / (1 + df[term]))
            score += idf * sum(WEIGHTS[f] * math.log2(1 + tf) for f, tf in present)
        if score > 0:
            scored.append((summary.source_url, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:top_k], len(scored)


def remove_dot_segments(path: str) -> str:
    output: list[str] = []
    for segment in path.split("/"):
        if segment == ".":
            continue
        if segment == "..":
            if len(output) > 1:
                output.pop()
            continue
        output.append(segment)
    if path.endswith(("/.", "/..")) and (not output or output[-1] != ""):
        output.append("")
    return "/".join(output)


def normalize_url(raw: str, base: str) -> str:
    """Canonical form of ``raw`` resolved against ``base``, by urljoin and
    urlsplit alone (owse.urls.normalize_url before its fast path)."""
    try:
        absolute = urljoin(base, raw.strip())
        parts = urlsplit(absolute)
    except ValueError as exc:
        raise Unparseable(f"cannot parse URL {raw!r}: {exc}") from exc

    scheme = parts.scheme.lower()
    if scheme not in ("http", "https"):
        raise UnsupportedScheme(f"unsupported scheme in {absolute!r}")
    if not parts.hostname:
        raise Unparseable(f"no host in {absolute!r}")

    host = parts.hostname.lower()
    if parts.netloc.rpartition("@")[2].startswith("["):
        host = f"[{host}]"
    try:
        port = parts.port
    except ValueError as exc:
        raise Unparseable(f"bad port in {absolute!r}") from exc

    netloc = host
    if port is not None and str(port) != {"http": "80", "https": "443"}[scheme]:
        netloc = f"{host}:{port}"
    if parts.username:
        userinfo = parts.username
        if parts.password:
            userinfo += f":{parts.password}"
        netloc = f"{userinfo}@{netloc}"

    path = remove_dot_segments(parts.path) or "/"
    return urlunsplit((scheme, netloc, path, parts.query, ""))
