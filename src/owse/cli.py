"""Command-line front door: crawl, index, query, stats, fixture.

The pipeline runs in phase order: ``owse crawl`` fills the URL journal
and ontology store, ``owse index`` builds index.json from them, and
``owse query`` searches it. Exit codes: 0 success, 1 I/O or store
failure, 2 usage error, 3 empty query result.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import indexer, query as query_mod
from .errors import ConfigError, CorruptIndex, NotFound, OwseError, VersionMismatch

# The crawler, transport, store and fixture server are imported inside
# the commands that use them, the RDF/XML parser by the indexer when it
# first parses, and logging only under --log-level: ``owse query`` loads
# only the index, query and error modules.

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_EMPTY = 3


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return number


def _nonnegative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return number


def _port(value: str) -> int:
    number = _positive_int(value)
    if number > 65535:
        raise argparse.ArgumentTypeError("must be <= 65535")
    return number


def _add_data_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--data-dir",
        default=os.environ.get("OWSE_DATA_DIR"),
        help="store directory (default: $OWSE_DATA_DIR)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="owse", description=__doc__)
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        help="log to stderr from this level up (default: logging is not configured)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_crawl = sub.add_parser("crawl", help="browse the web for ontology URLs")
    _add_data_dir(p_crawl)
    p_crawl.add_argument("--seed", action="append", required=True, help="starting URL (repeatable)")
    p_crawl.add_argument("--max-pages", type=_positive_int, default=100)
    p_crawl.add_argument("--max-ontologies", type=_positive_int, default=100)
    p_crawl.add_argument("--max-depth", type=_nonnegative_int, default=3)
    p_crawl.add_argument("--politeness-ms", type=_nonnegative_int, default=1000)
    p_crawl.add_argument("--follow-ontology-links", action="store_true")
    p_crawl.add_argument("--workers", type=_positive_int, default=1)

    p_index = sub.add_parser("index", help="build the index from journaled URLs")
    _add_data_dir(p_index)

    p_query = sub.add_parser("query", help="search the index")
    _add_data_dir(p_query)
    p_query.add_argument("--top-k", type=_positive_int, default=10)
    p_query.add_argument("keywords", help="query keywords")

    p_stats = sub.add_parser("stats", help="show store counts")
    _add_data_dir(p_stats)

    p_fixture = sub.add_parser("fixture", help="serve a directory for offline testing")
    p_fixture.add_argument("--port", type=_port, required=True)
    p_fixture.add_argument("--root", required=True)

    return parser


def _require_data_dir(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Path:
    """The store directory, not created here: ``crawl`` and ``index``
    create it, ``query`` and ``stats`` only read."""
    if not args.data_dir:
        parser.error("--data-dir is required (or set OWSE_DATA_DIR)")
    return Path(args.data_dir)


def cmd_crawl(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import crawler
    from .storage import OntologyRepository, UrlRepository
    from .transport import HttpTransport

    config = crawler.CrawlConfig(
        seeds=args.seed,
        max_pages=args.max_pages,
        max_ontologies=args.max_ontologies,
        max_depth=args.max_depth,
        politeness_ms=args.politeness_ms,
        follow_ontology_links=args.follow_ontology_links,
        workers=args.workers,
    )
    config.validate()  # before any store directory is created
    data_dir = _require_data_dir(args, parser)
    data_dir.mkdir(parents=True, exist_ok=True)
    with HttpTransport() as transport:
        report = crawler.crawl(
            config,
            transport=transport,
            url_repo=UrlRepository(data_dir),
            ontology_repo=OntologyRepository(data_dir),
        )
    print(f"pages_fetched: {report.pages_fetched}")
    print(f"ontologies_found: {report.ontologies_found}")
    print(f"errors: {len(report.errors)}")
    for url, kind in report.errors:
        print(f"  {kind}: {url}")
    print(f"stop_reason: {report.stop_reason.value}")
    print(f"elapsed_ms: {report.elapsed_ms}")
    return EXIT_OK


def cmd_index(args: argparse.Namespace, data_dir: Path) -> int:
    from .transport import HttpTransport

    with HttpTransport() as transport:
        report = indexer.run_indexer(data_dir, transport=transport)
    print(f"indexed: {report.indexed} skipped: {report.skipped}")
    for url, reason in report.warnings:
        print(f"  skipped {url}: {reason}")
    return EXIT_OK


def cmd_query(args: argparse.Namespace, data_dir: Path) -> int:
    index_path = data_dir / indexer.INDEX_NAME
    try:
        index = indexer.load_index(index_path)
    except NotFound:
        print(f"index not found: {index_path}", file=sys.stderr)
        return EXIT_FAILURE
    except (VersionMismatch, CorruptIndex) as exc:
        print(f"unusable index: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    results = query_mod.search(args.keywords, index, top_k=args.top_k)
    for rank, hit in enumerate(results.hits, start=1):
        terms = ",".join(sorted({term for term, _, _ in hit.matched}))
        print(f"{rank}\t{hit.score:.4f}\t{hit.url}\t{terms}")
    return EXIT_OK if results.hits else EXIT_EMPTY


def cmd_stats(args: argparse.Namespace, data_dir: Path) -> int:
    from .storage import OntologyRepository, UrlRepository

    url_repo = UrlRepository(data_dir)
    ontology_repo = OntologyRepository(data_dir)
    index_path = data_dir / indexer.INDEX_NAME
    docs = terms = postings = 0
    if index_path.exists():
        index = indexer.load_index(index_path)
        docs = index.doc_count
        terms = len(index.postings)
        postings = sum(len(plist) for plist in index.postings.values())
    print(f"urls: {len(url_repo)}")
    print(f"blobs: {ontology_repo.count()}")
    print(f"docs: {docs}")
    print(f"terms: {terms}")
    print(f"postings: {postings}")
    return EXIT_OK


def cmd_fixture(args: argparse.Namespace) -> int:
    from .fixture_server import make_server

    root = Path(args.root)
    if not root.is_dir():
        print(f"root directory not found: {root}", file=sys.stderr)
        return EXIT_FAILURE
    try:
        server = make_server(root, args.port)
    except OSError as exc:
        print(f"cannot bind port {args.port}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    print(f"serving {root} at http://127.0.0.1:{args.port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level:
        import logging

        logging.basicConfig(level=args.log_level.upper(), format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "fixture":
            return cmd_fixture(args)
        if args.command == "crawl":
            return cmd_crawl(args, parser)
        data_dir = _require_data_dir(args, parser)
        if args.command == "index":
            return cmd_index(args, data_dir)
        if args.command == "query":
            return cmd_query(args, data_dir)
        if args.command == "stats":
            return cmd_stats(args, data_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OwseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    raise AssertionError(f"unhandled command {args.command!r}")


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
