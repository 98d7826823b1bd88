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
