import json
from pathlib import Path

import pytest

from owse.fixture_server import FixtureServer
from owse.transport import HttpTransport

REPO_ROOT = Path(__file__).resolve().parents[1]
WEBROOT = REPO_ROOT / "fixtures" / "webroot"
EXPECTED_DIR = REPO_ROOT / "fixtures" / "expected"


@pytest.fixture(scope="session")
def webroot() -> Path:
    return WEBROOT


@pytest.fixture(scope="session")
def expected_crawl() -> dict:
    return json.loads((EXPECTED_DIR / "crawl.json").read_text())


@pytest.fixture(scope="session")
def expected_summaries() -> dict:
    return json.loads((EXPECTED_DIR / "summaries.json").read_text())


@pytest.fixture(scope="session")
def query_set() -> list[str]:
    return json.loads((EXPECTED_DIR / "queries.json").read_text())["queries"]


@pytest.fixture(scope="session")
def fixture_site():
    """Base URL of a live HTTP server over fixtures/webroot."""
    with FixtureServer(WEBROOT) as server:
        yield server.base_url


@pytest.fixture
def http_transport():
    """An HttpTransport whose idle connections are closed after the test."""
    with HttpTransport() as transport:
        yield transport
