"""The benchmark's trace hooks still resolve against ``src``.

``perfbench/spans.py`` wraps simulator entry points by module and
attribute name, and ``perfbench/layers.py`` reads the batch engine's
``instances`` and ``demoted`` after a run.  A rename inside ``src``
would break the benchmark's ``--trace 1`` mode without failing any
other test; these tests catch it.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.api import Workload
from repro.sim.batch import BatchEngine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("module_name, path, name", spans.ENTRY_POINTS,
                         ids=[path for _, path, _ in spans.ENTRY_POINTS])
def test_entry_point_resolves(module_name, path, name):
    owner, attr = spans._resolve(module_name, path)
    assert attr in owner.__dict__, (module_name, path)
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("module_name", spans.PRELOAD)
def test_preloaded_module_imports(module_name):
    importlib.import_module(module_name)


def test_repro_names_imported_by_perfbench_exist():
    """Every ``from repro... import name`` in ``perfbench/`` resolves
    (``layers.py`` counts cohorts with ``program_signature``)."""
    checked = 0
    for source in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.startswith("repro"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), \
                        (source.name, node.module, alias.name)
                    checked += 1
    assert checked


def test_batch_engine_exposes_traced_attributes():
    """``spans._batch_counts`` reads ``instances`` and ``demoted``."""
    instances = [Workload("pi_lcg", n=64, seed=s).build() for s in (1, 2)]
    engine = BatchEngine(instances).run()
    counts = spans._batch_counts(engine)
    assert counts["lanes"] == 2
    assert counts["demoted_lanes"] == 0
    assert engine.instances == instances
    assert engine.demoted == [False, False]


def test_preload_binds_every_entry_point():
    """``instrumented()`` patches an entry point in every ``repro``
    module already holding it by name; a module first imported while
    patched would keep the wrapper.  So no module outside what
    ``PRELOAD`` imports may bind a module-level entry point by name."""
    script = textwrap.dedent(f"""
        import importlib, pkgutil, sys
        sys.path.insert(0, {str(PERFBENCH)!r})
        import spans
        for name in spans.PRELOAD:
            importlib.import_module(name)
        preloaded = set(sys.modules)
        import repro
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        raw = {{}}
        for module_name, path, _ in spans.ENTRY_POINTS:
            owner, attr = spans._resolve(module_name, path)
            if not isinstance(owner, type):
                raw[attr] = owner.__dict__[attr]
        late = sorted(
            f"{{name}}.{{attr}}"
            for name, module in list(sys.modules.items())
            if name.startswith("repro") and name not in preloaded
            for attr, function in raw.items()
            if module.__dict__.get(attr) is function)
        print(" ".join(late))
    """)
    # The child resolves ``repro`` exactly as this process does.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True, env=env).stdout
    assert out.split() == []
