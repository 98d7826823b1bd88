"""Every third-party module the package imports is a declared dependency.

CI installs the package with ``pip install .`` on clean runners, so an
import missing from ``[project].dependencies`` breaks ``import repro``
there even when the development environment happens to have it.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def _declared_dependencies() -> set[str]:
    """Distribution names in ``[project].dependencies`` (no tomllib:
    CI also runs Python 3.10)."""
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\s*$(.*?)(?=^\[|\Z)", text,
                        re.MULTILINE | re.DOTALL)
    assert project, "pyproject.toml has no [project] table"
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project.group(1),
                     re.MULTILINE | re.DOTALL)
    assert deps, "[project] declares no dependencies list"
    names = set()
    for requirement in re.findall(r"[\"']([^\"']+)[\"']", deps.group(1)):
        name = re.match(r"[A-Za-z0-9_.-]+", requirement.strip()).group(0)
        names.add(name.lower().replace("-", "_"))
    return names


def _imported_modules() -> dict[str, str]:
    """Top-level absolute imports in the package -> first importing file."""
    found: dict[str, str] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                found.setdefault(top, str(path.relative_to(ROOT)))
    return found


def test_dependencies_parsed():
    assert "numpy" in _declared_dependencies()


def test_every_third_party_import_is_declared():
    declared = _declared_dependencies()
    missing = {
        module: path
        for module, path in _imported_modules().items()
        if module not in sys.stdlib_module_names
        and module != "repro"
        and module.lower() not in declared
    }
    assert not missing, (
        f"imported but not in pyproject.toml [project].dependencies: "
        f"{missing}"
    )
