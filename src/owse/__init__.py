"""owse: a self-contained ontology web search engine.

Crawls the web for OWL ontology documents, indexes their classes,
properties, and relations, and answers keyword queries with ranked
ontology URLs. The pipeline has three phases backed by three stores:

    crawl  -> urls.jsonl + ontologies/   (URL journal, document store)
    index  -> index.json                 (inverted index)
    query  -> ranked ontology URLs

Each phase is available both as a library and as an ``owse`` CLI
subcommand. This package exports the library surface README documents;
every other name is imported from its submodule (``owse.crawler``,
``owse.indexer``, ``owse.ontology``, ``owse.query``, ``owse.storage``,
``owse.transport``, ``owse.urls``, ``owse.errors``).
"""

from .crawler import CrawlConfig, crawl
from .errors import OwseError
from .indexer import load_index, run_indexer
from .query import search
from .storage import OntologyRepository, UrlRepository
from .transport import FetchResponse, HttpTransport, Transport

__version__ = "1.0.0"

__all__ = [
    "CrawlConfig",
    "FetchResponse",
    "HttpTransport",
    "OntologyRepository",
    "OwseError",
    "Transport",
    "UrlRepository",
    "crawl",
    "load_index",
    "run_indexer",
    "search",
]
