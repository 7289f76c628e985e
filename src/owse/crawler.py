"""Breadth-first web crawler that discovers OWL ontology URLs.

Starting from seed pages, the crawler browses HTML for links, classifies
each fetched resource, stores ontology documents, and journals their
URLs. Optionally it also follows owl:imports / rdfs:seeAlso references
found inside ontologies. Budgets bound the work: HTML and failed fetches
consume the page budget, successfully stored ontologies consume the
ontology budget, and the crawl stops the moment either runs out.

Per-host politeness: request starts to the same host are separated by at
least the configured interval. /robots.txt (user-agent *, Disallow
prefixes) is honored before the first fetch on each scheme and host.
"""

from __future__ import annotations

import heapq
import logging
import re
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from enum import Enum
from html import unescape
from html.parser import HTMLParser
from urllib.parse import urlsplit

from .errors import ConfigError, CorruptObject, FetchError, NotFound, NotRdf, OwseError, XmlNotWellFormed
from .ontology import OWL_IMPORTS, RDFS_SEEALSO, Iri, TripleSet, parse_rdfxml
from .storage import OntologyRepository, UrlRecord, UrlRepository
from .transport import FetchResponse, Transport
from .urls import host_of, normalize_url

log = logging.getLogger(__name__)

SNIFF_WINDOW = 4096  # bytes of body examined for classification

ONTOLOGY_EXTENSIONS = (".owl", ".rdf")
ONTOLOGY_CONTENT_TYPES = {"application/rdf+xml", "application/owl+xml", "text/rdf"}
HTML_CONTENT_TYPES = {"text/html", "application/xhtml+xml"}


@dataclass
class CrawlConfig:
    seeds: list[str]
    max_pages: int = 100
    max_ontologies: int = 100
    max_depth: int = 3
    politeness_ms: int = 1000
    follow_ontology_links: bool = False
    workers: int = 1

    def validate(self) -> None:
        problems = []
        if not self.seeds:
            problems.append("at least one seed URL is required")
        for seed in self.seeds:
            try:
                normalize_url(seed, seed)
            except OwseError as exc:
                problems.append(f"bad seed {seed!r}: {exc}")
        if self.max_pages < 1:
            problems.append("max_pages must be >= 1")
        if self.max_ontologies < 1:
            problems.append("max_ontologies must be >= 1")
        if self.max_depth < 0:
            problems.append("max_depth must be >= 0")
        if self.politeness_ms < 0:
            problems.append("politeness_ms must be >= 0")
        if self.workers < 1:
            problems.append("workers must be >= 1")
        if problems:
            raise ConfigError("; ".join(problems))


class ResourceKind(Enum):
    HTML = "Html"
    ONTOLOGY = "Ontology"
    OTHER = "Other"


class StopReason(Enum):
    PAGE_BUDGET = "PageBudget"
    ONTOLOGY_BUDGET = "OntologyBudget"
    FRONTIER_EXHAUSTED = "FrontierExhausted"


@dataclass
class CrawlReport:
    pages_fetched: int = 0
    ontologies_found: int = 0
    errors: list[tuple[str, str]] = field(default_factory=list)
    stop_reason: StopReason = StopReason.FRONTIER_EXHAUSTED
    elapsed_ms: int = 0


def classify_resource(url: str, content_type: str, body: bytes) -> ResourceKind:
    """Classify a fetched resource by its URL, media type and first
    SNIFF_WINDOW body bytes; the ontology test wins over the HTML test."""
    path = urlsplit(url).path.lower()
    media_type = content_type.split(";", 1)[0].strip().lower()
    window = body[:SNIFF_WINDOW]
    if (
        path.endswith(ONTOLOGY_EXTENSIONS)
        or media_type in ONTOLOGY_CONTENT_TYPES
        or b"<rdf:RDF" in window
        or b"owl:Ontology" in window
    ):
        return ResourceKind.ONTOLOGY
    if media_type in HTML_CONTENT_TYPES or b"<html" in window.lower():
        return ResourceKind.HTML
    return ResourceKind.OTHER


class _LinkScanner(HTMLParser):
    """Tolerant scan for href attributes of <a> and <link> tags and for
    the first <base href>."""

    def __init__(self, base: str):
        super().__init__(convert_charrefs=True)
        self.base = base
        self.base_set = False
        self.hrefs: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag not in ("a", "link", "base"):
            return
        for name, href in attrs:
            # The first href that has a value, as browsers keep the first
            # of duplicate attributes.
            if name == "href" and href is not None:
                break
        else:
            return
        if tag != "base":
            self.hrefs.append(href)
        elif href and not self.base_set:
            try:
                self.base = normalize_url(href, self.base)
            except OwseError:
                pass
            self.base_set = True


# A plain HTML document: every "<" starts a <!DOCTYPE>, an end tag, or a
# start tag of ASCII names, [ \t\n\r\f] and bare or quoted attributes,
# and no "<" or ">" sits inside a declaration or attribute value; a
# raw-text or RCDATA element holds no "<" up to its own end tag. Each of
# these reads the same under every html.parser from Python 3.10 on, which
# differ on comments, "<?", "<![", unquoted values, other whitespace and
# which elements hold raw text. A value's "&" starts only a numeric
# reference or "&amp;", or precedes no letter: later releases unescape
# named references in values by the HTML5 rules, not by html.unescape.
# Text runs sit only between tokens and no two branches match the same
# text, so a document has at most one parse, and one that is not plain
# fails in linear time.
_WS = r"[ \t\n\r\f]"
_NAME = r"[a-z_:][-a-z0-9_:.]*"
_REF = r"&(?:#|(?-i:amp;)|(?![a-z#]))"
_VALUE = rf""""[^"<>&]*(?:{_REF}[^"<>&]*)*"|'[^'<>&]*(?:{_REF}[^'<>&]*)*'"""
_ATTRS = rf"(?:{_WS}+{_NAME}(?:=(?:{_VALUE}))?)*"
_RAW_TEXT = "script|style|title|textarea|xmp|iframe|noembed|noframes|noscript"
_TOKEN = (
    r"<!doctype[^<>]*>"
    r"|</[a-z][-a-z0-9]*>"
    rf"|<(?!(?:{_RAW_TEXT}|plaintext)[ \t\n\r\f/>])[a-z][-a-z0-9]*{_ATTRS}{_WS}*/?>"
    rf"|<({_RAW_TEXT}){_ATTRS}{_WS}*/?>[^<]*</\1>"
)
_PLAIN_HTML = re.compile(rf"[^<]*(?:(?:{_TOKEN})[^<]*)*", re.ASCII | re.IGNORECASE)
_LINK_TAG = re.compile(rf"<(a|link|base)({_ATTRS}){_WS}*/?>", re.ASCII | re.IGNORECASE)
_LINK_ATTR = re.compile(rf"({_NAME})(?:=({_VALUE}))?", re.ASCII | re.IGNORECASE)


def _is_plain(text: str) -> bool:
    """``_PLAIN_HTML.fullmatch(text)``, without its backtracking through
    every earlier token when the document fails near its end: the parse
    is unique, so the longest plain prefix decides."""
    return _PLAIN_HTML.match(text).end() == len(text)


def _scan_links(text: str, base: str) -> _LinkScanner:
    """The hrefs and effective base of an HTML document: one regex pass
    over a plain document, the tolerant parser over any other, each
    through the same ``handle_starttag``."""
    scanner = _LinkScanner(base)
    if _is_plain(text):
        for tag, attr_text in _LINK_TAG.findall(text):
            # Names lowercased and values unescaped, as html.parser does.
            attrs = [
                (name.lower(), unescape(value[1:-1]) if value else None)
                for name, value in _LINK_ATTR.findall(attr_text)
            ]
            scanner.handle_starttag(tag.lower(), attrs)
    else:
        scanner.feed(text)
        scanner.close()
    return scanner


def _resolve(hrefs: list[str], base: str) -> list[str]:
    """``normalize_url(href, base)`` of each href that normalizes, in order."""
    links = []
    for href in hrefs:
        try:
            links.append(normalize_url(href, base))
        except OwseError:
            pass
    return links


def extract_html_links(body: bytes, base: str) -> list[str]:
    """Normalized link targets of an HTML document, in document order.

    Honors the first in-document <base href>. Unparseable and non-http
    targets are dropped; duplicates are preserved (the frontier dedups).
    """
    scanner = _scan_links(body.decode("utf-8", errors="replace"), base)
    return _resolve(scanner.hrefs, scanner.base)


def extract_ontology_refs(triples: TripleSet) -> list[str]:
    """http/https objects of owl:imports and rdfs:seeAlso statements."""
    refs: dict[str, None] = {}  # ordered set
    for _, predicate, obj in triples.triples:
        if predicate in (OWL_IMPORTS, RDFS_SEEALSO) and isinstance(obj, Iri):
            if obj not in refs and urlsplit(obj).scheme in ("http", "https"):
                refs[str(obj)] = None
    return list(refs)


def parse_robots(text: str) -> list[str]:
    """Disallow path prefixes that apply to user-agent ``*``."""
    disallows: list[str] = []
    agents: list[str] = []
    rules_started = False
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        fieldname, _, value = line.partition(":")
        fieldname = fieldname.strip().lower()
        value = value.strip()
        if fieldname == "user-agent":
            if rules_started:
                agents = []
                rules_started = False
            agents.append(value)
        elif fieldname == "disallow":
            rules_started = True
            if "*" in agents and value:
                disallows.append(value)
        else:
            rules_started = True
    return disallows


class _Frontier:
    """Per-host FIFO queues of (seq, url, depth, referrer) plus a heap of
    (seq, host) queue heads, where seq is the enqueue order (Mercator's
    frontier, Heydon & Najork 1999). A dispatch takes the earliest-enqueued
    URL whose host is not busy; with no busy host that is the BFS order,
    because every discovered link is one hop deeper than its page."""

    def __init__(self) -> None:
        self._queues: dict[str, deque] = {}
        self._heads: list[tuple[int, str]] = []
        self._seq = 0

    def push(self, url: str, depth: int, referrer: str) -> None:
        host = host_of(url)
        queue = self._queues.get(host)
        if queue is None:
            queue = self._queues[host] = deque()
            heapq.heappush(self._heads, (self._seq, host))
        queue.append((self._seq, url, depth, referrer))
        self._seq += 1

    def pop_dispatchable(self, busy_hosts: set[str]) -> tuple[str, int, str, str] | None:
        """(url, depth, referrer, host) of the next URL to fetch, or None."""
        set_aside = []
        while self._heads and self._heads[0][1] in busy_hosts:
            set_aside.append(heapq.heappop(self._heads))
        entry = None
        if self._heads:
            host = self._heads[0][1]
            queue = self._queues[host]
            _, url, depth, referrer = queue.popleft()
            if queue:
                heapq.heapreplace(self._heads, (queue[0][0], host))
            else:
                heapq.heappop(self._heads)
                del self._queues[host]
            entry = url, depth, referrer, host
        for head in set_aside:
            heapq.heappush(self._heads, head)
        return entry


class _Crawl:
    def __init__(
        self,
        config: CrawlConfig,
        transport: Transport,
        url_repo: UrlRepository,
        ontology_repo: OntologyRepository,
    ):
        self.config = config
        self.transport = transport
        self.url_repo = url_repo
        self.ontology_repo = ontology_repo
        self.frontier = _Frontier()
        self.visited: set[str] = set()
        self.report = CrawlReport()
        self._next_start: dict[str, float] = {}  # host -> earliest next request start
        self._robots: dict[tuple[str, str], list[str]] = {}  # (scheme, host) -> disallows
        self._lock = threading.Lock()  # guards both per-host dicts
        self._blob_ids: dict[str, str] | None = None  # the store's url_map, read on first use

    # -- frontier ----------------------------------------------------

    def enqueue(self, url: str, depth: int, referrer: str) -> None:
        if depth > self.config.max_depth or url in self.visited:
            return
        self.visited.add(url)
        self.frontier.push(url, depth, referrer)

    # -- per-task fetch path (runs in worker threads) ----------------

    def _get(self, url: str, host: str) -> FetchResponse:
        """GET ``url`` once ``host``'s politeness interval has passed since
        its last request start. A request that raises still counts as a
        start, taken just before the call."""
        # Per-host requests are serialized by the dispatcher, so reading
        # and later updating the slot cannot race for one host.
        with self._lock:
            delay = self._next_start.get(host, 0.0) - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        started = time.monotonic()
        try:
            response = self.transport.get(url)
            started = response.started_at
            return response
        finally:
            with self._lock:
                self._next_start[host] = started + self.config.politeness_ms / 1000.0

    def _robots_disallows(self, scheme: str, host: str) -> list[str]:
        # A robots.txt holds for its scheme and authority (RFC 9309).
        key = scheme, host
        with self._lock:
            if key in self._robots:
                return self._robots[key]
        # Not cached: fetch. Only one worker can be on this host, so no
        # other thread can be fetching the same robots file concurrently.
        disallows: list[str] = []
        try:
            response = self._get(f"{scheme}://{host}/robots.txt", host)
            if 200 <= response.status < 300:
                disallows = parse_robots(response.body.decode("utf-8", errors="replace"))
        except FetchError:
            pass
        with self._lock:
            self._robots[key] = disallows
        return disallows

    def _fetch_task(self, url: str, host: str) -> FetchResponse | str:
        """The response to ``url``, the one request in flight to ``host``,
        its ``host_of``, or the kind of error that stopped the fetch:
        politeness goes by host[:port] and robots.txt by scheme and
        host[:port], whatever userinfo the URL carries."""
        parts = urlsplit(url)
        disallows = self._robots_disallows(parts.scheme, host)
        path = parts.path or "/"
        if any(path.startswith(prefix) for prefix in disallows):
            log.info("robots.txt disallows %s; skipping", url)
            return "robots-disallowed"
        try:
            return self._get(url, host)
        except FetchError as exc:
            return exc.kind

    # -- completion handling (runs on the dispatcher thread) ---------

    def _blob_id_map(self) -> dict[str, str]:
        """The store's ``url_map``, read once per crawl and kept current by
        ``_put``: a re-crawl reads the manifest once, not once per ontology."""
        if self._blob_ids is None:
            self._blob_ids = self.ontology_repo.url_map()
        return self._blob_ids

    def _put(self, body: bytes, canonical_url: str) -> str:
        blob_id = self.ontology_repo.put(body, source_url=canonical_url)
        self._blob_id_map()[canonical_url] = blob_id
        return blob_id

    def _handle_ontology(self, body: bytes, canonical_url: str, depth: int, referrer: str) -> None:
        # Journal first: a crash before the put leaves a journaled URL
        # without a blob, which run_indexer refetches.
        if self.url_repo.append(UrlRecord(url=canonical_url, referrer=referrer, depth=depth)):
            blob_id = self._put(body, canonical_url)
            self.report.ontologies_found += 1
            log.info("ontology %s stored as %s", canonical_url, blob_id[:12])
        else:
            # Journaled already, earlier in this run (a redirect alias) or by
            # an earlier run: a fetch that stores nothing, unless the URL's
            # stored object is missing or corrupt. Its references are still
            # scanned at this depth: the earlier fetch may have been deeper
            # (workers fetch out of BFS order), or its run stopped.
            try:
                self.ontology_repo.get(self._blob_id_map()[canonical_url])
            except (KeyError, NotFound, CorruptObject):
                self._put(body, canonical_url)
        if self.config.follow_ontology_links and depth < self.config.max_depth:
            try:
                triples = parse_rdfxml(body, base=canonical_url)
            except (XmlNotWellFormed, NotRdf) as exc:
                log.warning("%s: cannot scan for ontology references (%s)", canonical_url, exc)
                return
            for ref in _resolve(extract_ontology_refs(triples), canonical_url):
                self.enqueue(ref, depth + 1, canonical_url)

    def _handle_response(self, url: str, depth: int, referrer: str, response: FetchResponse) -> str | None:
        """Store or scan a response; return the kind of error it is, or None."""
        try:
            canonical_url = normalize_url(response.url, url)
        except OwseError:
            canonical_url = url
        self.visited.add(canonical_url)
        if not 200 <= response.status < 300:
            return f"http-{response.status}"
        if response.truncated:
            return "oversize"
        kind = classify_resource(canonical_url, response.content_type, response.body)
        if kind is ResourceKind.ONTOLOGY:
            if not response.body:
                return "empty-document"
            self._handle_ontology(response.body, canonical_url, depth, referrer)
        elif kind is ResourceKind.HTML and depth < self.config.max_depth:
            for link in extract_html_links(response.body, canonical_url):
                self.enqueue(link, depth + 1, canonical_url)
        return None

    def _process(self, url: str, depth: int, referrer: str, result: FetchResponse | str) -> None:
        """Account for one dispatched URL, given its response or error kind:
        a request that stored no new ontology is one page."""
        found = self.report.ontologies_found
        error = result if isinstance(result, str) else self._handle_response(url, depth, referrer, result)
        if error is not None:
            self.report.errors.append((url, error))
        if error != "robots-disallowed" and self.report.ontologies_found == found:  # a skip makes no request
            self.report.pages_fetched += 1

    # -- dispatcher ---------------------------------------------------

    def _budget_reached(self, inflight: int) -> StopReason | None:
        """The budget that ``inflight`` more results could reach, or None.

        Each result adds at most one to one counter, and a dispatch needs
        this to be None, so a budget is reached only with nothing in
        flight, and at most one is reached when the crawl ends.
        """
        if self.report.ontologies_found + inflight >= self.config.max_ontologies:
            return StopReason.ONTOLOGY_BUDGET
        if self.report.pages_fetched + inflight >= self.config.max_pages:
            return StopReason.PAGE_BUDGET
        return None

    def run(self) -> CrawlReport:
        start = time.monotonic()
        for seed in self.config.seeds:
            self.enqueue(normalize_url(seed, seed), 0, "")

        with ThreadPoolExecutor(max_workers=self.config.workers) as pool:
            inflight: dict[Future, tuple[str, int, str, str]] = {}  # future -> (url, depth, referrer, host)
            while True:
                while len(inflight) < self.config.workers and self._budget_reached(len(inflight)) is None:
                    busy = {host for _, _, _, host in inflight.values()}
                    entry = self.frontier.pop_dispatchable(busy)
                    if entry is None:
                        break
                    url, _, _, host = entry
                    future = pool.submit(self._fetch_task, url, host)
                    inflight[future] = entry
                if not inflight:
                    break
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                for future in done:
                    url, depth, referrer, _ = inflight.pop(future)
                    self._process(url, depth, referrer, future.result())

        self.report.stop_reason = self._budget_reached(0) or StopReason.FRONTIER_EXHAUSTED
        self.report.elapsed_ms = int((time.monotonic() - start) * 1000)
        return self.report


def crawl(
    config: CrawlConfig,
    transport: Transport,
    url_repo: UrlRepository,
    ontology_repo: OntologyRepository,
) -> CrawlReport:
    """Run a breadth-first crawl under ``config``.

    Each dispatch takes the earliest-enqueued URL whose host has no
    request in flight. With workers=1 that is exactly the BFS order, so
    the fetch order is reproducible against a deterministic transport.
    """
    config.validate()
    return _Crawl(config, transport, url_repo, ontology_repo).run()
