"""Seeded inputs for the benchmark workloads and the reference outcomes
they are checked against.

Every function here is a pure function of its ``random.Random``: the same
seed gives byte-identical sites, corpora, summaries and query mixes. The
program under test only ever sees what these functions produce.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math
import posixpath
import random
import statistics
import sys
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urljoin, urlsplit

from owse.indexer import INDEX_NAME, build_index, save_index
from owse.ontology import ElementKind, OntologyElement, OntologySummary

SYLLABLES = (
    "ka", "lo", "mi", "ren", "tor", "sa", "vel", "dun", "pra", "zi",
    "mon", "tek", "ul", "bar", "cy", "fen", "gal", "hor", "ist", "jun",
    "ko", "lum", "nex", "or", "pel", "quin", "ras", "sim", "tav", "ur",
    "vor", "wen", "xal", "yor", "zen", "ab", "del", "eco", "fil", "gro",
)
ACRONYMS = ("XML", "HTTP", "RDF", "GPS", "DNA", "ISO")
HTML_TYPE = "text/html"
RDF_TYPE = "application/rdf+xml"
ONTOLOGY_SUFFIXES = (".owl", ".rdf")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- vocabulary ---------------------------------------------------------


class Zipf:
    """Draws items with probability proportional to 1 / rank**s."""

    def __init__(self, items: list[str], rng: random.Random, s: float = 1.07):
        self.items = items
        self.rng = rng
        self.cum = list(itertools.accumulate(1.0 / (k + 1) ** s for k in range(len(items))))

    def draw(self) -> str:
        return self.items[bisect.bisect_right(self.cum, self.rng.random() * self.cum[-1])]


def vocabulary(rng: random.Random, size: int) -> list[str]:
    """``size`` distinct lowercase pseudo-words in a seeded rank order."""
    words: dict[str, None] = {}
    while len(words) < size:
        words.setdefault("".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 3))))
    ranked = list(words)
    rng.shuffle(ranked)
    return ranked


def camel(rng: random.Random, words: Zipf, upper: bool) -> str:
    """CamelCase name of 1-3 Zipf words, sometimes with an acronym."""
    parts = [words.draw().capitalize() for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.05:
        parts.insert(rng.randrange(len(parts) + 1), rng.choice(ACRONYMS))
    name = "".join(parts)
    return name if upper else name[0].lower() + name[1:]


def sentence(rng: random.Random, words: Zipf, low: int, high: int) -> str:
    return " ".join(words.draw() for _ in range(rng.randint(low, high)))


# -- RDF/XML ontology documents ------------------------------------------

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"\n'
    '         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"\n'
    '         xmlns:owl="http://www.w3.org/2002/07/owl#"{base}>\n'
)


def ontology_xml(
    rng: random.Random,
    words: Zipf,
    url: str,
    target_bytes: int,
    refs: list[str] = (),
    unsupported: bool = False,
) -> tuple[bytes, list[str]]:
    """An RDF/XML ontology of about ``target_bytes`` and its class names.

    Subject IRIs mix ``#frag``, ``rdf:ID``, absolute and relative forms;
    some documents declare an ``xml:base``. ``refs`` become owl:imports
    and rdfs:seeAlso statements on the ontology header.
    """
    base_attr = ""
    if rng.random() < 0.3:
        base_attr = f'\n         xml:base="{url}"'
    out = [_HEADER.format(base=base_attr)]
    out.append('  <owl:Ontology rdf:about="">\n')
    out.append(f"    <rdfs:label>{sentence(rng, words, 1, 3)}</rdfs:label>\n")
    for i, ref in enumerate(refs):
        tag = "owl:imports" if i % 2 == 0 else "rdfs:seeAlso"
        out.append(f'    <{tag} rdf:resource="{ref}"/>\n')
    out.append("  </owl:Ontology>\n")
    size = sum(len(part) for part in out)
    classes: list[str] = []
    seen: set[str] = set()
    while size < target_bytes or len(classes) < 2:
        name = camel(rng, words, upper=True)
        if name in seen:
            name = f"{name}{len(classes)}"
        seen.add(name)
        form = rng.random()
        if form < 0.55:
            head = f'  <owl:Class rdf:about="#{name}">\n'
        elif form < 0.75:
            head = f'  <owl:Class rdf:ID="{name}">\n'
        elif form < 0.9:
            head = f'  <owl:Class rdf:about="{url}#{name}">\n'
        else:
            head = f'  <owl:Class rdf:about="terms/{name}">\n'
        parts = [head, f"    <rdfs:label>{sentence(rng, words, 1, 3)}</rdfs:label>\n"]
        if rng.random() < 0.6:
            parts.append(f"    <rdfs:comment>{sentence(rng, words, 5, 14)}</rdfs:comment>\n")
        if classes and rng.random() < 0.5:
            parts.append(f'    <rdfs:subClassOf rdf:resource="#{rng.choice(classes)}"/>\n')
        if unsupported and rng.random() < 0.02:
            parts.append(
                '    <owl:unionOf rdf:parseType="Collection">'
                f'<owl:Class rdf:about="#{name}Part"/></owl:unionOf>\n'
            )
        parts.append("  </owl:Class>\n")
        classes.append(name)
        if rng.random() < 0.4:
            prop = camel(rng, words, upper=False)
            kind = "owl:ObjectProperty" if rng.random() < 0.6 else "owl:DatatypeProperty"
            parts.append(
                f'  <{kind} rdf:about="#{prop}">\n'
                f"    <rdfs:label>{sentence(rng, words, 1, 3)}</rdfs:label>\n"
                f'    <rdfs:domain rdf:resource="#{name}"/>\n'
                f'    <rdfs:range rdf:resource="#{rng.choice(classes)}"/>\n'
                f"  </{kind}>\n"
            )
        if unsupported and rng.random() < 0.01:
            parts.append("  <rdf:Bag><rdf:li>member</rdf:li></rdf:Bag>\n")
        size += sum(len(part) for part in parts)
        out.extend(parts)
    out.append("</rdf:RDF>\n")
    return "".join(out).encode("utf-8"), classes


def lognormal_sizes(rng: random.Random, n: int, median: int, sigma: float, low: int, high: int) -> list[int]:
    """``n`` log-normal sizes, one per quantile stratum, in seeded order:
    every seed gets the same size mix, so costs do not drift with it."""
    normal = statistics.NormalDist()
    sizes = [
        int(min(high, max(low, median * math.exp(sigma * normal.inv_cdf((k + 0.5) / n))))) for k in range(n)
    ]
    rng.shuffle(sizes)
    return sizes


def padded_ontology(rng: random.Random, words: Zipf, url: str, size: int) -> bytes:
    """A large document made by repeating the class section of a 64 KB one."""
    body, _ = ontology_xml(rng, words, url, 64 * 1024)
    text = body.decode("utf-8")
    head_end = text.index("</owl:Ontology>\n") + len("</owl:Ontology>\n")
    tail_start = text.rindex("</rdf:RDF>")
    section = text[head_end:tail_start]
    copies = max(1, (size - len(text)) // len(section) + 1)
    return (text[:head_end] + section * copies + text[tail_start:]).encode("utf-8")


# -- crawl sites and their reference outcome ------------------------------


@dataclass
class CrawlExpect:
    """What a complete crawl of a site must produce, whatever the order."""

    fetched: set[str]  # URLs requested, robots.txt files excluded
    journal: set[str]  # canonical ontology URLs journaled
    blobs: set[str]  # sha256 of every stored document
    errors: Counter  # (url, error kind) -> count


@dataclass
class Site:
    """A generated web: URL -> (status, content type, body)."""

    seeds: list[str]
    pages: dict[str, tuple[int, str, bytes]]
    redirects: dict[str, str] = field(default_factory=dict)
    links: dict[str, list[str]] = field(default_factory=dict)  # page -> intended targets
    refs: dict[str, list[str]] = field(default_factory=dict)  # ontology -> imports/seeAlso
    robots: dict[str, list[str]] = field(default_factory=dict)  # host -> Disallow prefixes
    oversize: set[str] = field(default_factory=set)

    def expect(self, follow_ontology_links: bool) -> CrawlExpect:
        """Breadth-first reference crawl over the intended link graph.

        Depth and budgets are unbounded, so the result is the reachable
        set minus robots-disallowed URLs. Redirect aliases are linked only
        from a page that links their target first, so the crawler's
        visited set cannot make the outcome depend on fetch order.
        """
        visited = set(self.seeds)
        queue = deque(self.seeds)
        result = CrawlExpect(set(), set(), set(), Counter())
        while queue:
            url = queue.popleft()
            parts = urlsplit(url)
            if any(parts.path.startswith(p) for p in self.robots.get(parts.netloc, ())):
                result.errors[(url, "robots-disallowed")] += 1
                continue
            result.fetched.add(url)
            final = self.redirects.get(url, url)
            visited.add(final)
            status, _, body = self.pages.get(final, (404, "", b""))
            if not 200 <= status < 300:
                result.errors[(url, f"http-{status}")] += 1
                continue
            if final in self.oversize:
                result.errors[(url, "oversize")] += 1
                continue
            targets: list[str] = []
            if final.endswith(ONTOLOGY_SUFFIXES):
                if not body:
                    result.errors[(url, "empty-document")] += 1
                    continue
                result.journal.add(final)
                result.blobs.add(sha256(body))
                if follow_ontology_links:
                    targets = self.refs.get(final, [])
            elif final.endswith(".html"):
                targets = self.links.get(final, [])
            for target in targets:
                if target not in visited:
                    visited.add(target)
                    queue.append(target)
        return result


def _href(rng: random.Random, target: str, base: str, absolute_ok: bool) -> str:
    """One of several spellings of ``target`` as written in a page whose
    effective base is ``base``; all normalize to ``target``."""
    t, b = urlsplit(target), urlsplit(base)
    same_host = t.netloc == b.netloc
    choice = rng.random()
    if not same_host or (absolute_ok and choice < 0.2):
        if absolute_ok and choice < 0.1:
            return f"HTTP://{t.netloc.upper()}:80{t.path}#top"
        return target
    if choice < 0.45:
        return t.path
    if choice < 0.55:
        head, tail = posixpath.split(t.path)
        return f"{head}/./x/../{tail}" if head != "/" else f"/./{tail}"
    rel = posixpath.relpath(t.path, posixpath.dirname(b.path) or "/")
    return rel + ("#sec" if choice > 0.9 else "")


_JUNK_LINKS = (
    "mailto:webmaster@example.org",
    "javascript:void(0)",
    "ftp://files.example.org/pub/readme.txt",
    "http://[::1",
    "https:///no-host",
)


def _html_page(rng: random.Random, title: str, words: Zipf, hrefs: list[str], base: str | None) -> bytes:
    head = f'<base href="{base}">' if base else ""
    out = [f"<!DOCTYPE html>\n<html>\n<head><title>{title}</title>{head}</head>\n<body>\n"]
    for href in hrefs:
        out.append(f'<p>{sentence(rng, words, 3, 10)} <a href="{href}">{words.draw()}</a></p>\n')
    if hrefs and rng.random() < 0.3:
        out.append(f'<link rel="stylesheet" href="{rng.choice(hrefs)}">\n')
    out.append("</body>\n</html>\n")
    return "".join(out).encode("utf-8")


def _assign_hosts(rng: random.Random, hosts: list[str], skew: float, n: int) -> list[str]:
    """Exactly ``skew`` of ``n`` items on hosts[0], the rest spread evenly."""
    first = round(skew * n)
    others = hosts[1:] or hosts
    assigned = [hosts[0]] * first + [others[k % len(others)] for k in range(n - first)]
    rng.shuffle(assigned)
    return assigned


def _link_quota(links_per_page: int) -> list[str]:
    """Link categories of one page: the same mix on every page."""
    quota = {
        "page": round(0.6 * links_per_page),
        "onto": round(0.1 * links_per_page),
        "dangling": 1,
        "private": 1,
        "file": 1,
        "junk": 1,
    }
    quota["dup"] = max(0, links_per_page - sum(quota.values()))
    return [kind for kind, count in quota.items() for _ in range(count)]


def build_site(
    rng: random.Random,
    hosts: list[str],
    n_pages: int,
    n_ontologies: int,
    links_per_page: int,
    skew: float,
    robots_hosts: list[str],
    ontology_size: tuple[int, float, int, int],
    n_aliases: int,
    absolute_links: bool,
    big_ontologies: list[int] = (),
) -> Site:
    """A seeded synthetic web over ``hosts`` (``http://host`` bases).

    ``skew`` of the pages sit on ``hosts[0]``. Each page links about
    ``links_per_page`` targets: other pages, ontologies, dangling (404)
    and robots-disallowed URLs, plain files, duplicates, non-http and
    unparseable strings, spelled relative, root-relative, absolute, with
    dot segments or fragments, some against an in-document ``<base>``.
    A fifth of the ontologies are reachable only through owl:imports or
    rdfs:seeAlso. ``big_ontologies`` adds documents of those sizes.
    """
    words = Zipf(vocabulary(rng, 1500), rng)
    site = Site(seeds=[f"http://{hosts[0]}/index.html"], pages={})
    for host in robots_hosts:
        site.robots[host] = ["/private/"]
        site.pages[f"http://{host}/robots.txt"] = (
            200, "text/plain", b"# generated\nUser-agent: *\nDisallow: /private/\n"
        )

    page_hosts = _assign_hosts(rng, hosts, skew, n_pages - 1)
    page_urls = site.seeds + [f"http://{page_hosts[i - 1]}/s{i % 8}/p{i}.html" for i in range(1, n_pages)]
    children: dict[int, list[int]] = {}
    for i in range(1, n_pages):
        children.setdefault(rng.randrange(i), []).append(i)

    median, sigma, low, high = ontology_size
    sizes = lognormal_sizes(rng, n_ontologies, median, sigma, low, high) + list(big_ontologies)
    onto_hosts = _assign_hosts(rng, hosts, skew, len(sizes))
    onto_urls = [f"http://{onto_hosts[j]}/onts/o{j}{'.owl' if j % 3 else '.rdf'}" for j in range(len(sizes))]
    hidden = set(rng.sample(range(n_ontologies), n_ontologies // 5))
    linked = [j for j in range(len(onto_urls)) if j not in hidden]
    # Each hidden ontology is referenced from an earlier-listed one, so
    # every hidden document sits on an imports chain from a linked one.
    order = linked + sorted(hidden)
    for position, j in enumerate(order):
        if j in hidden:
            referrer = onto_urls[order[rng.randrange(position)]]
            site.refs.setdefault(referrer, []).append(onto_urls[j])
    for position, j in enumerate(order):
        url = onto_urls[j]
        refs = site.refs.setdefault(url, [])
        if position % 5 == 0:  # extra references to already-linked documents
            refs.append(onto_urls[rng.choice(linked)])
        if sizes[j] > 1024 * 1024:
            body = padded_ontology(rng, words, url, sizes[j])
        else:
            body, _ = ontology_xml(rng, words, url, sizes[j], refs, unsupported=True)
        site.pages[url] = (200, RDF_TYPE if j % 2 else "application/octet-stream", body)
    empty_url = f"http://{hosts[-1]}/onts/empty.owl"
    site.pages[empty_url] = (200, RDF_TYPE, b"")

    def pool(kind: str, ext: str, count: int) -> list[str]:
        return [f"http://{host}/{kind}/{kind[0]}{k}{ext}" for k, host in enumerate(_assign_hosts(rng, hosts, 0.5, count))]

    dangling = pool("missing", ".html", max(4, n_pages // 25))
    private = pool("private", ".html", max(4, n_pages // 40))
    files = pool("files", ".txt", max(4, n_pages // 50))
    for url in files:
        site.pages[url] = (200, "text/plain", f"plain file {url}\n".encode())
    for url in private:
        site.pages[url] = (200, HTML_TYPE, b"<html><body>private</body></html>\n")

    # Targets every page must carry: spanning-tree children, one link per
    # linked ontology, the empty document, and the alias pairs.
    must: dict[int, list[str]] = {i: [page_urls[c] for c in children.get(i, [])] for i in range(n_pages)}
    for j in linked:
        must[rng.randrange(n_pages)].append(onto_urls[j])
    must[rng.randrange(n_pages)].append(empty_url)
    for k, j in enumerate(rng.sample(linked, min(n_aliases, len(linked)))):
        parts = urlsplit(onto_urls[j])
        alias = f"http://{parts.netloc}/alias/a{k}{posixpath.splitext(parts.path)[1]}"
        site.redirects[alias] = onto_urls[j]
        must[rng.randrange(n_pages)].extend([onto_urls[j], alias])

    pools = {
        "page": page_urls,
        "onto": [onto_urls[j] for j in linked],
        "dangling": dangling,
        "private": private,
        "file": files,
    }
    quota = _link_quota(links_per_page)
    for i, url in enumerate(page_urls):
        targets = list(must[i])
        for kind in quota:
            if kind == "junk":
                targets.append(None)  # non-http or unparseable
            elif kind == "dup":
                targets.append(rng.choice(targets))  # may repeat a junk slot
            else:
                targets.append(rng.choice(pools[kind]))
        aliases = [t for t in targets if t in site.redirects]
        targets = [t for t in targets if t not in site.redirects]
        rng.shuffle(targets)
        for alias in aliases:  # after the target, which is already in the list
            targets.append(alias)
        base = None
        if rng.random() < 0.1:
            base = f"/s{rng.randrange(8)}/"
            if absolute_links:
                base = f"http://{rng.choice(hosts)}{base}"
        effective = urljoin(url, base or "")
        hrefs = [
            rng.choice(_JUNK_LINKS) if t is None else _href(rng, t, effective, absolute_links)
            for t in targets
        ]
        site.links[url] = [t for t in targets if t is not None]
        site.pages[url] = (200, HTML_TYPE, _html_page(rng, f"page {i}", words, hrefs, base))
    return site


SITES_PER_RUN = 4


def crawl_sites(seed: int) -> list[Site]:
    """``web_memory``'s crawl: four disjoint webs of 600 pages on 8 hosts,
    70% of the pages on one host. A run crawls them in turn: with two
    workers the crawler's fetch order, and so its frontier work, varies
    from crawl to crawl, and mixing several link graphs keeps a run's
    figures steady."""
    sites = []
    for k in range(SITES_PER_RUN):
        rng = random.Random(f"crawl_site:{seed}:{k}")
        hosts = [f"h{i}.site{k}.test" for i in range(8)]
        sites.append(
            build_site(
                rng,
                hosts,
                n_pages=600,
                n_ontologies=90,
                links_per_page=20,
                skew=0.7,
                robots_hosts=hosts[:6],
                ontology_size=(1500, 0.6, 600, 12000),
                n_aliases=6,
                absolute_links=True,
            )
        )
    return sites


def crawl_http_site(seed: int, base_host: str) -> Site:
    """``web_http``'s crawl: one host; a log-normal ontology size mix with a
    few multi-MB documents and one over the 8 MiB body cap."""
    rng = random.Random(f"crawl_http:{seed}")
    mb = 1024 * 1024
    site = build_site(
        rng,
        [base_host],
        n_pages=60,
        n_ontologies=24,
        links_per_page=12,
        skew=1.0,
        robots_hosts=[base_host],
        ontology_size=(20000, 1.2, 2000, 600000),
        n_aliases=0,
        absolute_links=False,
        big_ontologies=[2 * mb, 3 * mb + 12345, 8 * mb + mb // 2],
    )
    site.oversize = {u for u, (_, _, body) in site.pages.items() if len(body) > 8 * mb}
    return site


# -- index corpus --------------------------------------------------------


@dataclass
class Corpus:
    docs: list[tuple[str, bytes]]  # (url, body) in journal order
    class_names: dict[str, list[str]]  # url -> class local names
    malformed: str  # url of the one document that is not well-formed

    @property
    def total_bytes(self) -> int:
        return sum(len(body) for _, body in self.docs)


def index_corpus(seed: int, n_docs: int = 200, big: tuple[int, ...] = (300_000, 500_000, 800_000)) -> Corpus:
    """Ontologies with log-normal sizes plus one of each size in ``big``,
    a Zipf-shared camelCase vocabulary, mixed IRI forms and xml:base, some
    unsupported constructs, and one malformed document."""
    rng = random.Random(f"index_build:{seed}")
    words = Zipf(vocabulary(rng, 4000), rng)
    docs: list[tuple[str, bytes]] = []
    names: dict[str, list[str]] = {}
    sizes = lognormal_sizes(rng, n_docs - len(big), 6000, 1.0, 800, 200_000) + list(big)
    rng.shuffle(sizes)
    for j, size in enumerate(sizes):
        url = f"http://onto{j % 40}.example.org/ns/{words.draw()}{j}.owl"
        body, classes = ontology_xml(rng, words, url, size, unsupported=True)
        docs.append((url, body))
        names[url] = classes
    malformed = f"http://broken.example.org/ns/broken{seed}.owl"
    smallest = min((body for _, body in docs), key=len)  # so its cost does not vary with the seed
    docs.insert(rng.randrange(len(docs)), (malformed, smallest[: len(smallest) // 2]))
    return Corpus(docs, names, malformed)


# -- query summaries and queries -----------------------------------------

URL_TERMS = ("http", "example", "org", "ontologies", "owl")


@dataclass
class QueryCorpus:
    summaries: list[OntologySummary]
    queries: list[str]


def query_corpus(seed: int, n_docs: int = 1000, n_queries: int = 2000) -> QueryCorpus:
    """Generated summaries (no RDF parse) and a seeded query mix: 1-4
    Zipf terms, URL tokens present in every document, rare terms,
    camelCase forms and about 10% misses."""
    rng = random.Random(f"query_mix:{seed}")
    vocab = vocabulary(rng, 6000)
    words = Zipf(vocab, rng)
    summaries = []
    for j in range(n_docs):
        url = f"http://onto{j % 50}.example.org/ontologies/{words.draw()}{j}.owl"
        classes = []
        for k in range(rng.randint(6, 40)):
            name = camel(rng, words, upper=True)
            element = OntologyElement(iri=f"{url}#{name}{k}", local_name=f"{name}{k}")
            element.labels = [sentence(rng, words, 1, 3)]
            if rng.random() < 0.5:
                element.comments = [sentence(rng, words, 4, 12)]
            classes.append(element)
        properties = []
        for _ in range(rng.randint(2, 15)):
            name = camel(rng, words, upper=False)
            properties.append(
                OntologyElement(iri=f"{url}#{name}", local_name=name, kind=ElementKind.OBJECT_PROPERTY)
            )
        summaries.append(
            OntologySummary(
                ontology_iri=url,
                source_url=url,
                blob_id=sha256(url.encode()),
                size_bytes=rng.randint(1000, 200000),
                classes=classes,
                properties=properties,
            )
        )
    rare = vocab[-500:]
    # Every seed gets the same mix, in every 20 queries (so also in the
    # warm client's prefix): 2 misses, 4 with a URL token, 3 with a rare
    # term and 11 plain; 1-4 terms in equal shares, and every fourth query
    # written as one camelCase word.
    block = ["miss"] * 2 + ["url"] * 4 + ["rare"] * 3 + ["plain"] * 11
    kinds = []
    for _ in range(n_queries // 20):
        rng.shuffle(block)
        kinds += block
    queries = []
    for i, kind in enumerate(kinds):
        if kind == "miss":
            queries.append(f"q{rng.randrange(10**6)}zz nonexistentterm")
            continue
        terms = [words.draw() for _ in range(1 + i % 4)]
        if kind == "url":
            terms[0] = rng.choice(URL_TERMS)
        elif kind == "rare":
            terms[-1] = rng.choice(rare)
        if i % 4 == 3:
            terms = ["".join(t.capitalize() for t in terms)]  # camelCase form
        queries.append(" ".join(terms))
    return QueryCorpus(summaries, queries)


QUERIES_NAME = "queries.json"


def write_query_index(seed: int, directory: Path, n_docs: int) -> None:
    """The query part's inputs: ``index.json`` built from ``n_docs``
    generated summaries, and the query mix as a JSON list."""
    corpus = query_corpus(seed, n_docs)
    save_index(build_index(corpus.summaries), directory / INDEX_NAME)
    (directory / QUERIES_NAME).write_text(json.dumps(corpus.queries), encoding="utf-8")


if __name__ == "__main__":
    # python3 gen.py SEED DIRECTORY N_DOCS: the query part's set-up, run in
    # a child process so that the measuring process's heap holds only the index.
    write_query_index(int(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3]))
