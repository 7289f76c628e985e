"""owse: a self-contained ontology web search engine.

Crawls the web for OWL ontology documents, indexes their classes,
properties, and relations, and answers keyword queries with ranked
ontology URLs. The pipeline has three phases backed by three stores:

    crawl  -> urls.jsonl + ontologies/   (URL journal, document store)
    index  -> index.json                 (inverted index)
    query  -> ranked ontology URLs

Each phase is available both as a library (this package) and as an
``owse`` CLI subcommand.
"""

from .crawler import (
    CrawlConfig,
    CrawlReport,
    ResourceKind,
    StopReason,
    classify_resource,
    crawl,
    extract_html_links,
    extract_ontology_refs,
    parse_robots,
)
from .errors import (
    ConfigError,
    CorruptIndex,
    CorruptObject,
    EmptyDocument,
    FetchError,
    InvalidRecord,
    NotFound,
    NotRdf,
    OwseError,
    Unparseable,
    UnsupportedScheme,
    VersionMismatch,
    XmlNotWellFormed,
)
from .indexer import (
    FIELD_WEIGHTS,
    DocEntry,
    FieldKind,
    IndexReport,
    InvertedIndex,
    Posting,
    build_index,
    index_ontology,
    load_index,
    run_indexer,
    save_index,
    tokenize,
)
from .ontology import (
    BlankNode,
    ElementKind,
    Iri,
    Literal,
    OntologyElement,
    OntologySummary,
    RelationKind,
    Triple,
    TripleSet,
    local_name,
    parse_rdfxml,
    summarize_ontology,
)
from .query import Query, ScoredHit, SearchResults, parse_query, search
from .storage import OntologyBlob, OntologyRepository, UrlRecord, UrlRepository
from .transport import FetchResponse, HttpTransport, Transport
from .urls import normalize_url

__version__ = "1.0.0"

__all__ = [
    "BlankNode",
    "ConfigError",
    "CorruptIndex",
    "CorruptObject",
    "CrawlConfig",
    "CrawlReport",
    "DocEntry",
    "ElementKind",
    "EmptyDocument",
    "FetchError",
    "FetchResponse",
    "FieldKind",
    "FIELD_WEIGHTS",
    "HttpTransport",
    "IndexReport",
    "InvalidRecord",
    "InvertedIndex",
    "Iri",
    "Literal",
    "NotFound",
    "NotRdf",
    "OntologyBlob",
    "OntologyElement",
    "OntologyRepository",
    "OntologySummary",
    "OwseError",
    "Posting",
    "Query",
    "RelationKind",
    "ResourceKind",
    "ScoredHit",
    "SearchResults",
    "StopReason",
    "Transport",
    "Triple",
    "TripleSet",
    "Unparseable",
    "UnsupportedScheme",
    "UrlRecord",
    "UrlRepository",
    "VersionMismatch",
    "XmlNotWellFormed",
    "build_index",
    "classify_resource",
    "crawl",
    "extract_html_links",
    "extract_ontology_refs",
    "index_ontology",
    "load_index",
    "local_name",
    "normalize_url",
    "parse_query",
    "parse_rdfxml",
    "parse_robots",
    "run_indexer",
    "save_index",
    "search",
    "summarize_ontology",
    "tokenize",
]
