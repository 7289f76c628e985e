import re

import owse

from conftest import REPO_ROOT


def test_every_exported_name_resolves():
    for name in owse.__all__:
        assert hasattr(owse, name), name


def test_readme_snippet_imports_only_exported_names():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"from owse import \(([^)]*)\)", readme)
    assert match, "README has no `from owse import (...)` snippet"
    names = {name.strip() for name in match.group(1).split(",")}
    assert "search" in names
    assert names <= set(owse.__all__)
