import ast
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
    "owse.ontology",
    "xml.etree.ElementTree",
    "pyexpat",
    "dataclasses",
    "logging",
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


def _unused_imports(path) -> list[str]:
    """Names ``path`` imports but never reads: a name is read where it
    appears as an ``ast.Name``, which includes the root of an attribute
    chain such as ``os.path.join``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(REPO_ROOT)}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted((REPO_ROOT / "src" / "owse").glob("*.py")) + sorted((REPO_ROOT / "tests").glob("*.py"))
    assert [unused for path in paths for unused in _unused_imports(path)] == []


def _unreferenced_private_names(path) -> list[str]:
    """Private names that ``path`` binds at module level, by ``def``,
    ``class`` or assignment, and never reads anywhere in the module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    bound[target.id] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [
        f"{path.relative_to(REPO_ROOT)}:{line}: {name}"
        for name, line in bound.items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_no_module_binds_a_private_name_it_never_reads():
    paths = sorted((REPO_ROOT / "src" / "owse").glob("*.py"))
    assert [unread for path in paths for unread in _unreferenced_private_names(path)] == []


def _append_opens(path) -> list[str]:
    """``module.function`` of each call in ``path`` to ``open(file, mode)``
    or ``<path>.open(mode)`` whose mode is a string with an "a" in it."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and "open" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
            modes += node.args[1:2] if isinstance(node.func, ast.Name) else node.args[:1]
            if any(isinstance(mode, ast.Constant) and "a" in str(mode.value) for mode in modes):
                found.append(f"{path.stem}.{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_only_the_store_line_writer_appends_to_a_file():
    paths = sorted((REPO_ROOT / "src" / "owse").glob("*.py"))
    assert [where for path in paths for where in _append_opens(path)] == ["storage._append_line"]
