"""Breadth-first web crawler that discovers OWL ontology URLs.

Starting from seed pages, the crawler browses HTML for links, classifies
each fetched resource, stores ontology documents, and journals their
URLs. Optionally it also follows owl:imports / rdfs:seeAlso references
found inside ontologies. Budgets bound the work: HTML and failed fetches
consume the page budget, successfully stored ontologies consume the
ontology budget, and the crawl stops the moment either runs out.

Per-host politeness: request starts to the same host are separated by at
least the configured interval. /robots.txt (Disallow prefixes of the
owse-crawler groups, else of the * groups) is honored before the first
fetch on each scheme and host.
"""

from __future__ import annotations

import heapq
import logging
import queue
import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from html import unescape
from html.entities import html5
from urllib.parse import urlsplit

from .errors import ConfigError, CorruptObject, FetchError, NotFound, NotRdf, OwseError, XmlNotWellFormed
from .ontology import OWL_IMPORTS, RDFS_SEEALSO, Iri, TripleSet, parse_rdfxml
from .storage import OntologyRepository, UrlRecord, UrlRepository
from .transport import USER_AGENT, FetchResponse, Transport
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


# The link scan reads a page by the HTML5 tokenizer's rules for what can
# hide a tag. A comment runs to "-->", "--!>" or the end; "<!-->" and
# "<!--->" are empty. "<!", "<?" and "</" before a non-letter open a bogus
# comment up to ">", which covers doctypes and "<![CDATA[". The text of a
# raw-text or RCDATA element runs to its own end tag, and <plaintext> runs
# to the end; noscript is markup, as for a browser that runs no scripts.
# Any other tag runs to the first ">" outside a quoted value, and a quote
# opens a value only after an attribute name and "=". Every branch is
# picked by its first characters and cannot fail after them: the
# attribute loop ends only at ">" or the end, and a quote the end cuts off
# runs to the end. So nothing backtracks, and the attribute loop is
# possessive (*+): it keeps no backtracking frame per attribute, and the
# scan is linear in time and in memory. Only <a>, <link> and <base>
# capture their attributes, and those that no ">" closes are dropped.
_SPACE = r"[\t\n\f\r ]"
_VALUE = r""""[^"]*"?|'[^']*'?|[^\t\n\f\r >]*"""
# Attribute names and the spaces after them run together up to "/", "="
# or ">": an "=" opens a value only there, and starts a name anywhere else.
_ATTRS = rf"[\t\n\f\r /]*(?:[^\t\n\f\r />][^/=>]*(?:={_SPACE}*(?:{_VALUE}))?[\t\n\f\r /]*)*+"
_NAME_END = r"(?![^\t\n\f\r />])"
_RAW_TEXT = "script|style|xmp|iframe|noembed|noframes|title|textarea"
_TOKEN = re.compile(
    r"<(?:!--(?:-?>|.*?(?:--!?>|\Z))"
    r"|(?:!|\?|/(?![a-z]))[^>]*>?"
    rf"|(a|link|base){_NAME_END}({_ATTRS})(>?)"
    rf"|(?P<raw>{_RAW_TEXT}){_NAME_END}{_ATTRS}(?:>.*?(?=</(?P=raw)[\t\n\f\r />]|\Z))?"
    rf"|plaintext{_NAME_END}{_ATTRS}(?:>.*)?"
    rf"|/?[a-z][^\t\n\f\r />]*{_ATTRS}>?)",
    re.ASCII | re.IGNORECASE | re.DOTALL,
)
# One attribute of a closed tag: its name, "=" if it has a value, the value.
_ATTR = re.compile(rf"([^\t\n\f\r />][^\t\n\f\r />=]*)(?:{_SPACE}*(=){_SPACE}*({_VALUE}))?")


# A character reference where html.unescape finds one.
_CHARREF = re.compile(r"&(#[0-9]+;?|#[xX][0-9a-fA-F]+;?|[^\t\n\f <&#;]{1,32};?)")


def _attribute_charref(match: re.Match) -> str:
    """One character reference of an attribute value, decoded as HTML5
    decodes it there: as html.unescape does, except that a named reference
    without ";" stays as written when "=" or an ASCII letter or digit
    follows it (``&section=2`` is no ``&sect``)."""
    ref, name = match.group(), match.group(1)
    if name[0] != "#" and name not in html5:
        # html.unescape would decode the longest name that starts the run.
        end = next((end for end in range(len(name) - 1, 1, -1) if name[:end] in html5), 0)
        if end and (name[end] == "=" or name[end].isascii() and name[end].isalnum()):
            return ref
    return unescape(ref)


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
    hrefs = []
    base_set = False
    for tag, attrs, closed, _ in _TOKEN.findall(body.decode("utf-8", errors="replace")):
        if not closed:
            continue
        for attr in _ATTR.finditer(attrs):
            name, equals, value = attr.groups()
            # The first href that has a value, as browsers keep the first
            # of duplicate attributes (read one at a time, so a long tag's
            # attributes are never all listed); names lowercased, references
            # in values decoded by the attribute rule of _attribute_charref.
            if equals and name.lower() == "href":
                href = value[1:-1] if value[:1] in ('"', "'") else value
                if "&" in href:
                    href = _CHARREF.sub(_attribute_charref, href)
                break
        else:
            continue
        if tag.lower() != "base":
            hrefs.append(href)
        elif href and not base_set:
            try:
                base = normalize_url(href, base)
            except OwseError:
                pass
            base_set = True
    return _resolve(hrefs, base)


def extract_ontology_refs(triples: TripleSet) -> list[str]:
    """http/https objects of owl:imports and rdfs:seeAlso statements."""
    refs: dict[str, None] = {}  # ordered set
    for _, predicate, obj in triples.triples:
        if predicate in (OWL_IMPORTS, RDFS_SEEALSO) and isinstance(obj, Iri):
            if obj not in refs and urlsplit(obj).scheme in ("http", "https"):
                refs[str(obj)] = None
    return list(refs)


_ROBOTS_TOKEN = USER_AGENT.partition("/")[0].lower()  # owse-crawler, the product token


def parse_robots(text: str) -> list[str]:
    """Disallow path prefixes that apply to owse (RFC 9309, section 2.2.1):
    those of every group for owse's product token ``owse-crawler``,
    matched case-insensitively, or of every group for ``*`` when no group
    names the token. A group for the token takes the place of ``*`` even
    with no Disallow line."""
    groups: dict[str, list[str]] = {}  # lowercased user-agent -> its groups' disallows
    agents: dict[str, list[str]] = {}  # those of the group being read
    rules_started = False
    for raw_line in text.removeprefix("\ufeff").splitlines():  # a UTF-8 byte order mark is no field
        line = raw_line.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        fieldname, _, value = line.partition(":")
        fieldname = fieldname.strip().lower()
        value = value.strip()
        if fieldname == "user-agent":
            if rules_started:
                agents = {}
                rules_started = False
            agent = value.lower()
            agents[agent] = groups.setdefault(agent, [])
        elif fieldname == "disallow":
            rules_started = True
            if value:
                for disallows in agents.values():
                    disallows.append(value)
        else:
            rules_started = True
    return groups.get(_ROBOTS_TOKEN, groups.get("*", []))


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

    # -- fetch path (runs in the fetch threads) ----------------------

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

    def _fetch_loop(self, tasks: queue.SimpleQueue, results: queue.SimpleQueue) -> None:
        """A fetch thread: runs ``_fetch_task`` for each (url, depth,
        referrer, host) on ``tasks`` up to a None, and puts (entry, result)
        on ``results``; the result is whatever the task raised, if it did."""
        while (entry := tasks.get()) is not None:
            try:
                results.put((entry, self._fetch_task(entry[0], entry[3])))
            except BaseException as exc:  # the dispatcher raises it
                results.put((entry, exc))

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

        tasks: queue.SimpleQueue = queue.SimpleQueue()
        results: queue.SimpleQueue = queue.SimpleQueue()
        threads: list[threading.Thread] = []
        inflight: set[str] = set()  # the host of each fetch in flight, one fetch per host
        try:
            while True:
                while len(inflight) < self.config.workers and self._budget_reached(len(inflight)) is None:
                    entry = self.frontier.pop_dispatchable(inflight)
                    if entry is None:
                        break
                    inflight.add(entry[3])
                    tasks.put(entry)
                    if len(threads) < len(inflight):  # no more threads than fetches ever in flight
                        thread = threading.Thread(target=self._fetch_loop, args=(tasks, results))
                        thread.start()
                        threads.append(thread)
                if not inflight:
                    break
                (url, depth, referrer, host), result = results.get()
                inflight.remove(host)
                if isinstance(result, BaseException):
                    raise result
                self._process(url, depth, referrer, result)
        finally:
            for thread in threads:
                tasks.put(None)
            for thread in threads:
                thread.join()

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
