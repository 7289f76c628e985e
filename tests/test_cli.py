import hashlib
import http.client
import json
import os
import statistics
import subprocess
import sys
import time

import pytest

from owse import cli
from owse.indexer import INDEX_NAME, load_index
from owse.storage import OntologyRepository, UrlRecord, UrlRepository

from conftest import REPO_ROOT, WEBROOT


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

    def test_max_depth_below_zero_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(
                "crawl", "--data-dir", str(tmp_path),
                "--seed", "http://x/", "--max-depth", "-1",
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

    @pytest.mark.parametrize("port", ["0", "65536", "70000"])
    def test_fixture_port_outside_1_to_65535_exits_2(self, tmp_path, capsys, port):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("fixture", "--port", port, "--root", str(tmp_path))
        assert excinfo.value.code == 2
        assert "--port" in capsys.readouterr().err

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

    def test_journal_lines_that_are_not_records_are_skipped(self, tmp_path, capsys):
        url = "http://fixture.test/onts/library.rdf"
        OntologyRepository(tmp_path).put((WEBROOT / "onts" / "library.rdf").read_bytes(), source_url=url)
        UrlRepository(tmp_path).append(UrlRecord(url=url))
        lines = [
            "123",
            '["url"]',
            json.dumps({"url": url, "depth": None, "discovered_at": "t"}),
            json.dumps({"url": "urn:x:y", "depth": 0, "discovered_at": "t"}),
        ]
        with open(tmp_path / "urls.jsonl", "a", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
        assert run_cli("stats", "--data-dir", str(tmp_path)) == 0
        assert capsys.readouterr().out.splitlines()[0] == "urls: 1"
        assert run_cli("index", "--data-dir", str(tmp_path)) == 0
        assert capsys.readouterr().out.splitlines() == [
            "indexed: 1 skipped: 1",
            "  skipped urn:x:y: fetch failed: connection",
        ]

    def test_query_deeply_nested_index_exits_1(self, tmp_path, capsys):
        (tmp_path / INDEX_NAME).write_text("[" * 200_000 + "]" * 200_000)
        assert run_cli("query", "--data-dir", str(tmp_path), "book") == 1
        assert capsys.readouterr().err.startswith("unusable index: ")

    def test_deeply_nested_journal_line_is_skipped(self, tmp_path, capsys):
        url = "http://fixture.test/onts/library.rdf"
        OntologyRepository(tmp_path).put((WEBROOT / "onts" / "library.rdf").read_bytes(), source_url=url)
        UrlRepository(tmp_path).append(UrlRecord(url=url))
        with open(tmp_path / "urls.jsonl", "a", encoding="utf-8") as fh:
            fh.write("[" * 200_000 + "]" * 200_000 + "\n")
        assert run_cli("stats", "--data-dir", str(tmp_path)) == 0
        assert capsys.readouterr().out.splitlines()[0] == "urls: 1"
        assert run_cli("index", "--data-dir", str(tmp_path)) == 0
        assert capsys.readouterr().out.splitlines() == ["indexed: 1 skipped: 0"]

    @pytest.mark.parametrize("argv", [["query", "book"], ["stats"]])
    def test_read_only_commands_create_nothing(self, tmp_path, capsys, argv):
        missing, empty = tmp_path / "missing" / "a", tmp_path / "empty"
        empty.mkdir()
        outcomes = []
        for data_dir in (missing, empty):
            code = run_cli(argv[0], "--data-dir", str(data_dir), *argv[1:])
            outcomes.append((code, *capsys.readouterr()))
        assert not missing.parent.exists()
        assert list(empty.iterdir()) == []
        if argv[0] == "query":
            assert outcomes == [
                (1, "", f"index not found: {data_dir / INDEX_NAME}\n") for data_dir in (missing, empty)
            ]
        else:
            zeros = "urls: 0\nblobs: 0\ndocs: 0\nterms: 0\npostings: 0\n"
            assert outcomes == [(0, zeros, "")] * 2

    def test_query_index_with_a_list_url_exits_1(self, tmp_path, capsys):
        # Two tied hits are ordered by URL, which must be a string.
        row = {"id": "a" * 64, "size_bytes": 1, "classes": 1, "properties": 0, "relations": 0}
        payload = {
            "version": 1,
            "totals": {"docs": 2},
            "doc_table": [dict(row, url=["u"]), dict(row, url="http://b/")],
            "postings": {"pizza": [[0, "ClassName", 1], [1, "ClassName", 1]]},
        }
        (tmp_path / INDEX_NAME).write_text(json.dumps(payload))
        assert run_cli("query", "--data-dir", str(tmp_path), "pizza") == 1
        assert "unusable index" in capsys.readouterr().err

    def test_stats_corrupt_index_exits_1(self, tmp_path, capsys):
        (tmp_path / INDEX_NAME).write_text('{"version": 99}')
        assert run_cli("stats", "--data-dir", str(tmp_path)) == 1
        assert INDEX_NAME in capsys.readouterr().err


class TestFixtureServer:
    def test_content_types_and_404(self, fixture_site, http_transport):
        get = http_transport.get
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


class TestStaleTmpFiles:
    def test_torn_tmp_files_break_neither_index_nor_put(self, tmp_path, capsys):
        # What a crash between write and rename leaves behind.
        data = (WEBROOT / "onts" / "library.rdf").read_bytes()
        blob_id = hashlib.sha256(data).hexdigest()
        repo = OntologyRepository(tmp_path)
        repo.objects_dir.mkdir(parents=True)
        (repo.objects_dir / f"{blob_id}.tmp").write_bytes(data[:100])
        (tmp_path / "index.tmp").write_text('{"version": 1, "docs": [{"bl')

        url = "http://fixture.test/onts/library.rdf"
        UrlRepository(tmp_path).append(UrlRecord(url=url))
        assert repo.put(data, source_url=url) == blob_id
        assert repo.get(blob_id) == data
        assert repo.count() == 1

        assert run_cli("index", "--data-dir", str(tmp_path)) == 0
        assert capsys.readouterr().out == "indexed: 1 skipped: 0\n"
        assert [doc.url for doc in load_index(tmp_path / INDEX_NAME).doc_table] == [url]
        assert not (tmp_path / "index.tmp").exists()


def run_owse(*argv):
    """``owse argv`` in a fresh interpreter, so its logging setup is its own."""
    path = [str(REPO_ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run(
        [sys.executable, "-m", "owse.cli", *argv], env=env, capture_output=True, text=True, timeout=60
    )


class TestLogLevel:
    def test_info_shows_stored_ontologies_and_leaves_stdout_alone(self, tmp_path, fixture_site):
        def crawl(data_dir, *options):
            return run_owse(
                *options, "crawl", "--data-dir", str(data_dir),
                "--seed", f"{fixture_site}/index.html", "--politeness-ms", "0",
            )

        def report(out):
            return [line for line in out.splitlines() if not line.startswith("elapsed_ms:")]

        quiet = crawl(tmp_path / "quiet")
        logged = crawl(tmp_path / "logged", "--log-level", "info")
        assert quiet.returncode == logged.returncode == 0
        assert quiet.stderr == ""
        assert report(logged.stdout) == report(quiet.stdout)
        assert f"INFO owse.crawler: ontology {fixture_site}/onts/library.rdf stored as " in logged.stderr

    @pytest.mark.parametrize(
        "options, line",
        [
            ([], "skipped urn:x:y: fetch failed: connection"),  # logging's last-resort handler
            (["--log-level", "warning"], "WARNING owse.indexer: skipped urn:x:y: fetch failed: connection"),
        ],
    )
    def test_skipped_document_reaches_stderr(self, tmp_path, options, line):
        record = {"url": "urn:x:y", "depth": 0, "discovered_at": "t"}  # append refuses a urn
        (tmp_path / "urls.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
        result = run_owse(*options, "index", "--data-dir", str(tmp_path))
        assert result.returncode == 0
        assert result.stdout == "indexed: 0 skipped: 1\n  skipped urn:x:y: fetch failed: connection\n"
        assert result.stderr == line + "\n"

    def test_unknown_level_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("--log-level", "loud", "stats", "--data-dir", str(tmp_path))
        assert excinfo.value.code == 2
        assert "--log-level" in capsys.readouterr().err
