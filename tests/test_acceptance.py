"""End-to-end acceptance suite over the committed fixture corpus.

Each test covers one acceptance criterion and prints a PASS line; run
with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import hashlib
import json
import random
import time

import pytest
from hypothesis import given, settings

from owse import cli
from owse.crawler import CrawlConfig, StopReason, crawl
from owse.errors import NotRdf, XmlNotWellFormed
from owse.indexer import build_index, load_index, run_indexer, save_index
from owse.ontology import TripleSet, parse_rdfxml, summarize_ontology
from owse.query import search
from owse.storage import OntologyRepository, UrlRecord, UrlRepository
from owse.transport import HttpTransport

from conftest import EXPECTED_DIR
from support import FIXTURE_HOST, RecordingTransport, index_snapshots, make_summary, static_site_from, summary_as_dict

from oracle import brute_force_search

ONT_NAMES = ["library.rdf", "pizza.owl", "vehicle.rdf", "metadata.rdf"]


def crawl_config(seed, **overrides):
    defaults = dict(
        seeds=[seed],
        max_pages=100,
        max_ontologies=100,
        max_depth=3,
        politeness_ms=0,
        follow_ontology_links=False,
        workers=1,
    )
    defaults.update(overrides)
    return CrawlConfig(**defaults)


def run_pipeline(data_dir, seed, **overrides):
    with HttpTransport() as transport:
        report = crawl(
            crawl_config(seed, **overrides),
            transport=transport,
            url_repo=UrlRepository(data_dir),
            ontology_repo=OntologyRepository(data_dir),
        )
        run_indexer(data_dir, transport=transport)
    return report


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory, fixture_site):
    """One full crawl+index run (import following on) shared by criteria 5 and 7."""
    data_dir = tmp_path_factory.mktemp("pipeline")
    run_pipeline(data_dir, f"{fixture_site}/index.html", follow_ontology_links=True)
    return data_dir


def rederive_summaries(data_dir):
    """Summaries straight from the journal and blob store, bypassing the index.

    Mirrors the indexer's skip semantics: journal entries without a stored
    blob or with unparseable bytes are left out.
    """
    url_repo = UrlRepository(data_dir)
    ontology_repo = OntologyRepository(data_dir)
    blob_ids = ontology_repo.url_map()
    summaries = []
    for record in url_repo.scan():
        blob_id = blob_ids.get(record.url)
        if blob_id is None:
            continue
        data = ontology_repo.get(blob_id)
        try:
            triples = parse_rdfxml(data, base=record.url)
        except (XmlNotWellFormed, NotRdf):
            continue
        summaries.append(summarize_ontology(triples, record.url, blob_id, len(data)))
    return summaries


def test_c1_fixture_end_to_end_discovery(tmp_path, fixture_site, expected_crawl, http_transport):
    started = time.monotonic()
    seed = f"{fixture_site}/index.html"

    report_off = crawl(
        crawl_config(seed, politeness_ms=50),
        transport=http_transport,
        url_repo=UrlRepository(tmp_path / "off"),
        ontology_repo=OntologyRepository(tmp_path / "off"),
    )
    report_on = crawl(
        crawl_config(seed, politeness_ms=50, follow_ontology_links=True),
        transport=http_transport,
        url_repo=UrlRepository(tmp_path / "on"),
        ontology_repo=OntologyRepository(tmp_path / "on"),
    )
    elapsed = time.monotonic() - started

    assert report_off.ontologies_found == len(expected_crawl["ontology_paths_no_follow"]) == 3
    assert report_on.ontologies_found == len(expected_crawl["ontology_paths_with_follow"]) == 4
    assert {r.url for r in UrlRepository(tmp_path / "on").scan()} == {
        fixture_site + path for path in expected_crawl["ontology_paths_with_follow"]
    }
    assert elapsed < 30
    print(f"\nACCEPTANCE 1 discovery (3 without / 4 with import following, {elapsed:.1f}s): PASS")


def test_c2_budget_and_depth_properties(tmp_path, fixture_site, expected_crawl, http_transport):
    started = time.monotonic()
    pages_by_depth = expected_crawl["html_pages_fetched_by_max_depth"]
    for max_pages in (1, 2, 5, 100):
        for max_depth in (0, 1, 2, 3):
            data_dir = tmp_path / f"run-{max_pages}-{max_depth}"
            url_repo = UrlRepository(data_dir)
            report = crawl(
                crawl_config(
                    f"{fixture_site}/index.html", max_pages=max_pages, max_depth=max_depth
                ),
                transport=http_transport,
                url_repo=url_repo,
                ontology_repo=OntologyRepository(data_dir),
            )
            reachable = pages_by_depth[str(max_depth)]
            assert report.pages_fetched <= max_pages
            assert report.pages_fetched == min(max_pages, reachable)
            assert all(r.depth <= max_depth for r in url_repo.scan())
            if report.stop_reason is StopReason.PAGE_BUDGET:
                assert report.pages_fetched == max_pages
            else:
                assert report.stop_reason is StopReason.FRONTIER_EXHAUSTED
                assert report.pages_fetched < max_pages
    elapsed = time.monotonic() - started
    assert elapsed < 60
    print(f"\nACCEPTANCE 2 budget/depth grid (16 combos, {elapsed:.1f}s): PASS")


def test_c3_politeness_spacing(tmp_path, fixture_site, http_transport):
    interval_ms = 200
    transport = RecordingTransport(http_transport)
    crawl(
        crawl_config(f"{fixture_site}/index.html", politeness_ms=interval_ms, max_pages=6),
        transport=transport,
        url_repo=UrlRepository(tmp_path),
        ontology_repo=OntologyRepository(tmp_path),
    )
    by_host: dict[str, list[float]] = {}
    for url, started_at in transport.log:
        host = url.split("/")[2]
        by_host.setdefault(host, []).append(started_at)
    assert sum(len(starts) for starts in by_host.values()) >= 5
    for host, starts in by_host.items():
        for before, after in zip(starts, starts[1:]):
            assert after - before >= interval_ms / 1000.0, f"gap too small on {host}"
    print("\nACCEPTANCE 3 politeness (same-host starts >= 200 ms apart): PASS")


def test_c4_parser_exactness_and_robustness(webroot, expected_summaries):
    base_prefix = expected_summaries["base_prefix"]
    for name, expected in expected_summaries["ontologies"].items():
        data = (webroot / "onts" / name).read_bytes()
        url = base_prefix + name
        summary = summarize_ontology(parse_rdfxml(data, base=url), url, "0" * 64, len(data))
        got = summary_as_dict(summary)
        assert got == expected, f"summary mismatch for {name}"

    rng = random.Random(0xC4)
    originals = [(webroot / "onts" / name).read_bytes() for name in ONT_NAMES]
    fuzz_inputs = 0
    for _ in range(1000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 300)))
        _assert_defined_outcome(blob)
        fuzz_inputs += 1
    for _ in range(1000):
        data = bytearray(rng.choice(originals))
        for _ in range(rng.randint(1, 8)):
            pos = rng.randrange(len(data)) if data else 0
            op = rng.randrange(4)
            if op == 0 and data:
                data[pos] = rng.randrange(256)
            elif op == 1 and data:
                del data[pos : pos + rng.randint(1, 20)]
            elif op == 2:
                data[pos:pos] = bytes(rng.randrange(256) for _ in range(rng.randint(1, 10)))
            else:
                data = data[:pos]
        _assert_defined_outcome(bytes(data))
        fuzz_inputs += 1
    print(f"\nACCEPTANCE 4 parser exactness + {fuzz_inputs} fuzz inputs: PASS")


def _assert_defined_outcome(blob: bytes):
    try:
        result = parse_rdfxml(blob, base="http://fuzz.test/doc")
    except (XmlNotWellFormed, NotRdf):
        return
    assert isinstance(result, TripleSet)


def test_c5_oracle_equivalence(pipeline_dir, query_set):
    assert len(query_set) >= 20
    index = load_index(pipeline_dir / "index.json")
    summaries = rederive_summaries(pipeline_dir)
    assert index.doc_count == len(summaries) == 4

    for raw in query_set:
        engine = search(raw, index, top_k=10)
        expected, total = brute_force_search(summaries, raw, top_k=10)
        assert [h.url for h in engine.hits] == [url for url, _ in expected], f"order for {raw!r}"
        assert engine.total_matching == total
        for hit, (_, score) in zip(engine.hits, expected):
            assert hit.score == pytest.approx(score, abs=1e-9), f"score for {raw!r}"

    # Worked single-class case: N=3, df=1, ClassName tf=1.
    corpus = [
        make_summary("http://h1/one", class_names=["Author"]),
        make_summary("http://h2/two", class_names=["Bird"]),
        make_summary("http://h3/three", class_names=["Cactus"]),
    ]
    (top,), _ = brute_force_search(corpus, "author", top_k=1)
    assert top[1] == pytest.approx(3.965784284662087, abs=1e-9)
    assert round(top[1], 4) == 3.9658
    engine_hit = search("author", build_index(corpus)).hits[0]
    assert engine_hit.score == pytest.approx(top[1], abs=1e-9)
    print(f"\nACCEPTANCE 5 oracle equivalence on {len(query_set)} queries: PASS")


def test_c6_determinism_and_round_trip(tmp_path, fixture_site):
    seed = f"{fixture_site}/index.html"
    first, second = tmp_path / "run1", tmp_path / "run2"
    run_pipeline(first, seed, follow_ontology_links=True)
    run_pipeline(second, seed, follow_ontology_links=True)
    bytes1 = (first / "index.json").read_bytes()
    bytes2 = (second / "index.json").read_bytes()
    assert bytes1 == bytes2

    rounds = 0

    @settings(max_examples=100, deadline=None)
    @given(index=index_snapshots())
    def round_trip(index):
        nonlocal rounds
        path = tmp_path / "snapshot.json"
        save_index(index, path)
        assert load_index(path) == index
        rounds += 1

    round_trip()
    assert rounds >= 100
    print(f"\nACCEPTANCE 6 determinism + {rounds} round-trip cases: PASS")


@pytest.mark.parametrize("follow", [False, True])
def test_c6_index_bytes_equal_the_committed_digest(tmp_path, webroot, follow):
    # test_c6 compares two runs of one build; this pins the bytes across
    # builds, so a change that alters them must update the digest.
    expected = json.loads((EXPECTED_DIR / "index_sha256.json").read_text())
    crawl(
        crawl_config(f"{FIXTURE_HOST}/index.html", follow_ontology_links=follow),
        transport=static_site_from(webroot),
        url_repo=UrlRepository(tmp_path),
        ontology_repo=OntologyRepository(tmp_path),
    )
    run_indexer(tmp_path, transport=static_site_from(webroot))
    digest = hashlib.sha256((tmp_path / "index.json").read_bytes()).hexdigest()
    assert digest == expected["follow_ontology_links"][str(follow).lower()]
    print(f"\nACCEPTANCE 6 index bytes equal the committed digest (follow={follow}): PASS")


def test_c7_graceful_degradation(pipeline_dir, fixture_site, capsys):
    url_repo = UrlRepository(pipeline_dir)
    url_repo.append(UrlRecord(url=f"{fixture_site}/onts/notes.ttl", depth=1))
    url_repo.append(UrlRecord(url=f"{fixture_site}/missing.rdf", depth=1))

    code = cli.main(["index", "--data-dir", str(pipeline_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "indexed: 4 skipped: 2" in out

    code = cli.main(["query", "--data-dir", str(pipeline_dir), "book"])
    out = capsys.readouterr().out
    assert code == 0
    assert "library.rdf" in out.splitlines()[0]
    print("\nACCEPTANCE 7 graceful degradation (2 bad journal entries skipped): PASS")
