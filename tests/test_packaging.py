"""Every third-party module the package imports is a declared
dependency, and a cold import loads only the layers it needs.

CI installs the package with ``pip install .`` on clean runners, so an
import missing from ``[project].dependencies`` breaks ``import repro``
there even when the development environment happens to have it.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
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


#: ``repro`` layers a plain ``import repro.api`` must not load: the eval
#: artifacts and the traffic layer, the serve service and wire protocol
#: (asyncio, the worker pool), the obs metrics and trace exporters, and
#: COPIFT Steps 2-5.
DEFERRED = ("repro.eval", "repro.traffic", "repro.serve.service",
            "repro.serve.protocol", "asyncio", "concurrent.futures.process",
            "repro.obs.metrics", "repro.obs.trace", "repro.copift.partition",
            "repro.copift.tiling", "repro.copift.pipeline")


def _cold_modules(statement: str) -> set[str]:
    """``sys.modules`` after *statement* in a fresh interpreter that
    resolves ``repro`` exactly as this process does."""
    script = f"import sys\n{statement}\nprint('\\n'.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True, env=env).stdout
    return set(out.split())


def _loaded(modules: set[str], prefixes) -> set[str]:
    return {m for m in modules
            if any(m == p or m.startswith(p + ".") for p in prefixes)}


def _undeclared(modules: set[str]) -> set[str]:
    """Top-level third-party packages in *modules* that are not declared
    dependencies and that a bare interpreter does not load itself."""
    declared = _declared_dependencies()
    tops = {m.split(".")[0] for m in modules - _cold_modules("pass")}
    return {top for top in tops
            if top not in sys.stdlib_module_names and top != "repro"
            and top.lower() not in declared}


def test_api_import_loads_no_deferred_layer():
    loaded = _cold_modules("import repro.api")
    assert "repro.api.backend" in loaded
    assert not _loaded(loaded, DEFERRED)
    assert not _undeclared(loaded)


def test_pool_worker_module_does_not_load_eval():
    """A spawned serve worker unpickles the worker function by module
    name; that module must not pull in the eval artifacts."""
    from repro.serve.service import run_cell
    assert run_cell.__module__ == "repro.api.parallel"
    loaded = _cold_modules(f"import {run_cell.__module__}")
    assert not _loaded(loaded, ("repro.eval",))
    assert not _undeclared(loaded)
