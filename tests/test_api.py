import os
import re
import subprocess
import sys

import pytest

import owse

from conftest import REPO_ROOT

QUERY_PATH_NEVER_IMPORTS = (
    "owse.crawler",
    "owse.transport",
    "owse.fixture_server",
    "owse.storage",
    "http.client",
    "http.server",
)


def test_every_exported_name_resolves():
    for name in owse.__all__:
        assert hasattr(owse, name), name


def test_dir_lists_the_exports():
    assert set(owse.__all__) <= set(dir(owse))


def test_readme_snippet_imports_only_exported_names():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"from owse import \(([^)]*)\)", readme)
    assert match, "README has no `from owse import (...)` snippet"
    names = {name.strip() for name in match.group(1).split(",")}
    assert "search" in names
    assert names <= set(owse.__all__)


def _loaded_after(statement: str) -> set[str]:
    """Modules of QUERY_PATH_NEVER_IMPORTS loaded by a fresh interpreter
    after ``statement``, less those its start-up alone loads."""
    probe = f"import sys\n{statement}\nprint(' '.join(sorted(sys.modules)))"
    path = [str(REPO_ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}

    def modules(code: str) -> set[str]:
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return set(out.stdout.split())

    return (modules(probe) - modules(probe.replace(statement, "pass"))) & set(QUERY_PATH_NEVER_IMPORTS)


@pytest.mark.parametrize("statement", ["import owse.cli", "from owse import search, load_index"])
def test_query_path_imports_no_crawl_modules(statement):
    assert _loaded_after(statement) == set()
