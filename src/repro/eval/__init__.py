"""Evaluation harness: the paper's Table I and Figures 2-3, plus the
scaling artifacts (``clusterscale``, ``socscale``).

Artifacts are built on the unified experiment API (:mod:`repro.api`):
each module registers itself with ``@artifact(...)`` and runs its
measurements through ``Workload``/``Backend``/``Sweep``;
:class:`KernelMeasurement` pairs a kernel's baseline and COPIFT
records for the figures.
"""

from ..api.parallel import default_jobs, run_sharded

# Importing the artifact modules populates the ``repro.api`` artifact
# registry, so library users see the same registry the CLI dispatches
# from (not just after a ``python -m repro.eval`` run).
from . import (  # noqa: F401
    clusterscale,
    composite,
    fig2,
    fig3,
    report,
    socscale,
    streamscale,
    table1,
)
from .runner import (
    KernelMeasurement,
    geomean,
)

__all__ = [
    "KernelMeasurement",
    "default_jobs",
    "geomean",
    "run_sharded",
]
