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

import importlib

__version__ = "1.0.0"

# Exported name -> submodule defining it. Imported on first access (PEP
# 562), so ``owse query`` never loads the crawler, transport or store.
_EXPORTS = {
    "CrawlConfig": "crawler",
    "FetchResponse": "transport",
    "HttpTransport": "transport",
    "OntologyRepository": "storage",
    "OwseError": "errors",
    "Transport": "transport",
    "UrlRepository": "storage",
    "crawl": "crawler",
    "load_index": "indexer",
    "run_indexer": "indexer",
    "search": "query",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
