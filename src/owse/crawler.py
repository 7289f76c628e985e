"""Breadth-first web crawler that discovers OWL ontology URLs.

Starting from seed pages, the crawler browses HTML for links, classifies
each fetched resource, stores ontology documents, and journals their
URLs. Optionally it also follows owl:imports / rdfs:seeAlso references
found inside ontologies. Budgets bound the work: HTML and failed fetches
consume the page budget, successfully stored ontologies consume the
ontology budget, and the crawl stops the moment either runs out.

Per-host politeness: request starts to the same host are separated by at
least the configured interval, and /robots.txt (user-agent *, Disallow
prefixes) is honored before the first fetch on each host.
"""

from __future__ import annotations

import heapq
import logging
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from enum import Enum
from html.parser import HTMLParser
from urllib.parse import urlsplit

from .errors import ConfigError, FetchError, NotRdf, OwseError, XmlNotWellFormed
from .ontology import OWL_IMPORTS, RDFS_SEEALSO, Iri, TripleSet, parse_rdfxml
from .storage import OntologyRepository, UrlRecord, UrlRepository, utc_now
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


def classify_resource(url: str, content_type: str, body_prefix: bytes) -> ResourceKind:
    """Classify a fetched resource; the ontology test wins over the HTML test."""
    path = urlsplit(url).path.lower()
    media_type = content_type.split(";", 1)[0].strip().lower()
    window = body_prefix[:SNIFF_WINDOW]
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
    """Tolerant scan for href attributes of <a> and <link> tags."""

    def __init__(self, base: str):
        super().__init__(convert_charrefs=True)
        self.base = base
        self.base_set = False
        self.hrefs: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag == "base" and not self.base_set:
            href = dict(attrs).get("href")
            if href:
                try:
                    self.base = normalize_url(href, self.base)
                except OwseError:
                    pass
                self.base_set = True
        elif tag in ("a", "link"):
            for name, value in attrs:
                if name == "href" and value is not None:
                    self.hrefs.append(value)
                    break


# A resolution table: normalize_url results keyed by what they depend on
# (see _resolve), None for an href that does not normalize.
Resolutions = dict[tuple[str, str], str | None]
_UNRESOLVED = object()


def _is_base_free(href: str) -> bool:
    """True when ``href`` (stripped) is ``http(s)://`` with a non-empty
    authority and no tab, CR or LF, which urlsplit deletes: its
    normalization then depends on the base's scheme alone, because
    urljoin re-serializes it (dropping an empty ``;params``) only when the
    schemes match."""
    if href.startswith("http://"):
        first = href[7:8]
    elif href.startswith("https://"):
        first = href[8:9]
    else:
        return False
    return first not in ("", "/", "?", "#") and "\t" not in href and "\r" not in href and "\n" not in href


def _resolve(hrefs: list[str], base: str, resolved: Resolutions) -> list[str]:
    """``normalize_url(href, base)`` of each href that normalizes, in
    order, each distinct key normalized once per ``resolved`` table.

    A base-free href is keyed by (base scheme, href), any other by
    (base, href). A base that urlsplit rejects fails every href (urljoin
    parses the base first) and keys them all itself; no scheme equals it.
    """
    try:
        scheme = urlsplit(base).scheme
    except ValueError:
        scheme = base
    links = []
    for href in hrefs:
        href = href.strip()  # as normalize_url does
        key = (scheme if _is_base_free(href) else base, href)
        link = resolved.get(key, _UNRESOLVED)
        if link is _UNRESOLVED:
            try:
                link = normalize_url(href, base)
            except OwseError:
                link = None
            resolved[key] = link
        if link is not None:
            links.append(link)
    return links


def extract_html_links(body: bytes, base: str, resolved: Resolutions | None = None) -> list[str]:
    """Normalized link targets of an HTML document, in document order.

    Honors the first in-document <base href>. Unparseable and non-http
    targets are dropped; duplicates are preserved (the frontier dedups).
    ``resolved`` is a resolution table shared by the pages of one crawl;
    by default the call uses a fresh one.
    """
    scanner = _LinkScanner(base)
    scanner.feed(body.decode("utf-8", errors="replace"))
    scanner.close()
    return _resolve(scanner.hrefs, scanner.base, {} if resolved is None else resolved)


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


class _PolitenessGate:
    """Spaces request starts to the same host by a minimum interval."""

    def __init__(self, interval_ms: int):
        self.interval = interval_ms / 1000.0
        self._next_allowed: dict[str, float] = {}
        self._lock = threading.Lock()

    def wait_turn(self, host: str) -> None:
        # Per-host requests are serialized by the dispatcher, so reading
        # and later updating the slot cannot race for one host.
        with self._lock:
            allowed_at = self._next_allowed.get(host, 0.0)
        delay = allowed_at - time.monotonic()
        if delay > 0:
            time.sleep(delay)

    def note_start(self, host: str, started_at: float) -> None:
        with self._lock:
            self._next_allowed[host] = started_at + self.interval


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


@dataclass
class _Outcome:
    url: str
    depth: int
    referrer: str
    response: FetchResponse | None = None
    error_kind: str | None = None  # fetch failure or robots skip


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
        self.gate = _PolitenessGate(config.politeness_ms)
        self.frontier = _Frontier()
        self.visited: set[str] = set()
        self.resolved: Resolutions = {}
        self.report = CrawlReport()
        self.stop: StopReason | None = None
        self._robots: dict[str, list[str]] = {}
        self._robots_lock = threading.Lock()

    # -- frontier ----------------------------------------------------

    def enqueue(self, url: str, depth: int, referrer: str) -> None:
        if depth > self.config.max_depth or url in self.visited:
            return
        self.visited.add(url)
        self.frontier.push(url, depth, referrer)

    # -- per-task fetch path (runs in worker threads) ----------------

    def _robots_disallows(self, scheme: str, host: str) -> list[str]:
        with self._robots_lock:
            if host in self._robots:
                return self._robots[host]
        # Not cached: fetch. Only one worker can be on this host, so no
        # other thread can be fetching the same robots file concurrently.
        disallows: list[str] = []
        robots_url = f"{scheme}://{host}/robots.txt"
        self.gate.wait_turn(host)
        started = time.monotonic()
        try:
            response = self.transport.get(robots_url)
            self.gate.note_start(host, response.started_at)
            if 200 <= response.status < 300:
                disallows = parse_robots(response.body.decode("utf-8", errors="replace"))
        except FetchError:
            self.gate.note_start(host, started)
        with self._robots_lock:
            self._robots[host] = disallows
        return disallows

    def _fetch_task(self, url: str, depth: int, referrer: str) -> _Outcome:
        outcome = _Outcome(url=url, depth=depth, referrer=referrer)
        parts = urlsplit(url)
        host = parts.netloc.lower()
        disallows = self._robots_disallows(parts.scheme, host)
        path = parts.path or "/"
        if any(path.startswith(prefix) for prefix in disallows):
            log.info("robots.txt disallows %s; skipping", url)
            outcome.error_kind = "robots-disallowed"
            return outcome
        self.gate.wait_turn(host)
        started = time.monotonic()
        try:
            outcome.response = self.transport.get(url)
            self.gate.note_start(host, outcome.response.started_at)
        except FetchError as exc:
            self.gate.note_start(host, started)
            outcome.error_kind = exc.kind
        return outcome

    # -- completion handling (runs on the dispatcher thread) ---------

    def _handle_ontology(self, outcome: _Outcome, canonical_url: str) -> None:
        response = outcome.response
        assert response is not None
        # Journal first: a crash before the put leaves a journaled URL
        # without a blob, which run_indexer refetches.
        record = UrlRecord(url=canonical_url, referrer=outcome.referrer, depth=outcome.depth)
        if self.url_repo.append(record):
            blob = self.ontology_repo.put(response.body, source_url=canonical_url, fetched_at=utc_now())
            self.report.ontologies_found += 1
            log.info("ontology %s stored as %s", canonical_url, blob.id[:12])
        else:
            # Journaled already, earlier in this run (a redirect alias) or by
            # an earlier run: a fetch that stores nothing. Its references are
            # still scanned at this depth: the earlier fetch may have been
            # deeper (workers fetch out of BFS order), or its run stopped.
            self.report.pages_fetched += 1
        if self.config.follow_ontology_links and outcome.depth < self.config.max_depth:
            try:
                triples = parse_rdfxml(response.body, base=canonical_url)
            except (XmlNotWellFormed, NotRdf) as exc:
                log.warning("%s: cannot scan for ontology references (%s)", canonical_url, exc)
                return
            for ref in _resolve(extract_ontology_refs(triples), canonical_url, self.resolved):
                self.enqueue(ref, outcome.depth + 1, canonical_url)

    def _process(self, outcome: _Outcome) -> None:
        if outcome.error_kind is not None:
            if outcome.error_kind == "robots-disallowed":
                self.report.errors.append((outcome.url, outcome.error_kind))
                return  # no fetch happened: no budget consumed
            self.report.pages_fetched += 1
            self.report.errors.append((outcome.url, outcome.error_kind))
            self._check_budgets()
            return

        response = outcome.response
        assert response is not None
        try:
            canonical_url = normalize_url(response.url, outcome.url)
        except OwseError:
            canonical_url = outcome.url
        self.visited.add(canonical_url)

        if not 200 <= response.status < 300:
            self.report.pages_fetched += 1
            self.report.errors.append((outcome.url, f"http-{response.status}"))
            self._check_budgets()
            return
        if response.truncated:
            self.report.pages_fetched += 1
            self.report.errors.append((outcome.url, "oversize"))
            self._check_budgets()
            return

        kind = classify_resource(canonical_url, response.content_type, response.body[:SNIFF_WINDOW])
        if kind is ResourceKind.ONTOLOGY:
            if not response.body:
                self.report.pages_fetched += 1
                self.report.errors.append((outcome.url, "empty-document"))
            else:
                self._handle_ontology(outcome, canonical_url)
        else:
            self.report.pages_fetched += 1
            if kind is ResourceKind.HTML and outcome.depth < self.config.max_depth:
                for link in extract_html_links(response.body, canonical_url, self.resolved):
                    self.enqueue(link, outcome.depth + 1, canonical_url)
        self._check_budgets()

    def _check_budgets(self) -> None:
        if self.stop is None:
            if self.report.ontologies_found >= self.config.max_ontologies:
                self.stop = StopReason.ONTOLOGY_BUDGET
            elif self.report.pages_fetched >= self.config.max_pages:
                self.stop = StopReason.PAGE_BUDGET

    # -- dispatcher ---------------------------------------------------

    def _budget_room(self, inflight: int) -> bool:
        # Any in-flight fetch could land on either counter, so dispatch
        # only while the worst case keeps both within budget.
        return (
            self.report.pages_fetched + inflight < self.config.max_pages
            and self.report.ontologies_found + inflight < self.config.max_ontologies
        )

    def run(self) -> CrawlReport:
        start = time.monotonic()
        for seed in self.config.seeds:
            self.enqueue(normalize_url(seed, seed), 0, "")

        with ThreadPoolExecutor(max_workers=self.config.workers) as pool:
            inflight: dict[Future, str] = {}  # future -> host
            while self.stop is None:
                while len(inflight) < self.config.workers and self._budget_room(len(inflight)):
                    busy = set(inflight.values())
                    entry = self.frontier.pop_dispatchable(busy)
                    if entry is None:
                        break
                    url, depth, referrer, host = entry
                    future = pool.submit(self._fetch_task, url, depth, referrer)
                    inflight[future] = host
                if not inflight:
                    break
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                for future in done:
                    del inflight[future]
                    self._process(future.result())

        if self.stop is None:
            self.stop = StopReason.FRONTIER_EXHAUSTED
        self.report.stop_reason = self.stop
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
