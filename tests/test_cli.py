import http.client
import json
import statistics
import time

import pytest

from owse import cli
from owse.indexer import INDEX_NAME
from owse.transport import HttpTransport


def run_cli(*argv):
    return cli.main(list(argv))


class TestUsageErrors:
    def test_missing_seed_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("crawl", "--data-dir", str(tmp_path))
        assert excinfo.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_max_pages_zero_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(
                "crawl", "--data-dir", str(tmp_path),
                "--seed", "http://x/", "--max-pages", "0",
            )
        assert excinfo.value.code == 2

    def test_missing_data_dir_exits_2(self, monkeypatch):
        monkeypatch.delenv("OWSE_DATA_DIR", raising=False)
        with pytest.raises(SystemExit) as excinfo:
            run_cli("stats")
        assert excinfo.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("frobnicate")
        assert excinfo.value.code == 2

    def test_invalid_seed_reported_as_config_error(self, tmp_path, capsys):
        data_dir = tmp_path / "untouched"
        code = run_cli("crawl", "--data-dir", str(data_dir), "--seed", "notaurl")
        assert code == 2
        assert "configuration error" in capsys.readouterr().err
        assert not data_dir.exists()  # failed validation mutates nothing


class TestQueryAndStats:
    def test_query_before_indexing_exits_1(self, tmp_path, capsys):
        code = run_cli("query", "--data-dir", str(tmp_path), "book")
        assert code == 1
        assert "index not found" in capsys.readouterr().err

    def test_query_corrupt_index_exits_1(self, tmp_path, capsys):
        (tmp_path / INDEX_NAME).write_text("not json")
        code = run_cli("query", "--data-dir", str(tmp_path), "book")
        assert code == 1
        assert INDEX_NAME in capsys.readouterr().err

    def test_stats_fresh_data_dir_all_zeros(self, tmp_path, capsys):
        assert run_cli("stats", "--data-dir", str(tmp_path / "new")) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "urls: 0", "blobs: 0", "docs: 0", "terms: 0", "postings: 0",
        ]

    def test_stats_corrupt_index_exits_1(self, tmp_path, capsys):
        (tmp_path / INDEX_NAME).write_text('{"version": 99}')
        assert run_cli("stats", "--data-dir", str(tmp_path)) == 1
        assert INDEX_NAME in capsys.readouterr().err


class TestFixtureServer:
    def test_content_types_and_404(self, fixture_site):
        get = HttpTransport().get
        page = get(f"{fixture_site}/index.html")
        assert page.status == 200
        assert page.content_type == "text/html"

        ontology = get(f"{fixture_site}/onts/library.rdf")
        assert ontology.status == 200
        assert ontology.content_type == "application/rdf+xml"

        owl = get(f"{fixture_site}/onts/pizza.owl")
        assert owl.content_type == "application/rdf+xml"

        missing = get(f"{fixture_site}/missing")
        assert missing.status == 404

        robots = get(f"{fixture_site}/robots.txt")
        assert robots.status == 200
        assert "Disallow: /private/" in robots.body.decode()

    def test_keep_alive_responses_do_not_stall(self, fixture_site):
        # Headers and body go out in separate writes; with Nagle on, each
        # response on a reused connection waits for the delayed ACK (~40 ms).
        host, port = fixture_site.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=5)
        elapsed = []
        try:
            for _ in range(10):
                started = time.perf_counter()
                conn.request("GET", "/robots.txt")
                response = conn.getresponse()
                response.read()
                elapsed.append(time.perf_counter() - started)
                assert response.status == 200
        finally:
            conn.close()
        assert statistics.median(elapsed[1:]) < 0.020

    def test_fixture_command_rejects_missing_root(self, tmp_path, capsys):
        code = run_cli("fixture", "--port", "1", "--root", str(tmp_path / "nope"))
        assert code == 1
        assert "root directory not found" in capsys.readouterr().err


class TestPipeline:
    def test_crawl_index_query_stats(self, tmp_path, fixture_site, capsys):
        data_dir = tmp_path / "data"
        code = run_cli(
            "crawl", "--data-dir", str(data_dir),
            "--seed", f"{fixture_site}/index.html",
            "--politeness-ms", "0",
            "--follow-ontology-links",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ontologies_found: 4" in out
        assert "stop_reason: FrontierExhausted" in out

        assert run_cli("index", "--data-dir", str(data_dir)) == 0
        assert "indexed: 4 skipped: 0" in capsys.readouterr().out

        assert run_cli("query", "--data-dir", str(data_dir), "book") == 0
        lines = capsys.readouterr().out.splitlines()
        rank, score, url, terms = lines[0].split("\t")
        assert rank == "1"
        assert url == f"{fixture_site}/onts/library.rdf"
        assert "book" in terms
        assert float(score) > 0

        assert run_cli("query", "--data-dir", str(data_dir), "zzzz") == 3
        assert capsys.readouterr().out == ""

        assert run_cli("stats", "--data-dir", str(data_dir)) == 0
        stats_out = capsys.readouterr().out
        assert "urls: 4" in stats_out
        assert "blobs: 4" in stats_out
        assert "docs: 4" in stats_out

    def test_index_with_empty_journal(self, tmp_path, capsys):
        data_dir = tmp_path / "fresh"
        assert run_cli("index", "--data-dir", str(data_dir)) == 0
        assert "indexed: 0 skipped: 0" in capsys.readouterr().out
        assert (data_dir / INDEX_NAME).exists()

    def test_data_dir_from_environment(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("OWSE_DATA_DIR", str(tmp_path / "envdir"))
        assert run_cli("stats") == 0
        assert "urls: 0" in capsys.readouterr().out

    def test_query_output_is_json_free_tab_separated(self, tmp_path, fixture_site, capsys):
        data_dir = tmp_path / "data"
        run_cli(
            "crawl", "--data-dir", str(data_dir),
            "--seed", f"{fixture_site}/index.html", "--politeness-ms", "0",
        )
        capsys.readouterr()
        run_cli("index", "--data-dir", str(data_dir))
        capsys.readouterr()
        run_cli("query", "--data-dir", str(data_dir), "--top-k", "2", "pizza topping")
        lines = capsys.readouterr().out.splitlines()
        assert 1 <= len(lines) <= 2
        for line in lines:
            rank, score, url, terms = line.split("\t")
            float(score)  # 4-decimal score parses
            assert url.startswith("http://")
