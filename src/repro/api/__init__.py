"""Unified experiment API: Workload x Backend -> RunRecord.

The single entry point for running kernels anywhere in the repo::

    from repro.api import Workload, parse_backend

    record = parse_backend("cluster:4").run(
        Workload("expf", "copift", n=4096))
    print(record.cycles, record.ipc, record.power_mw)

Layers:

* :class:`Workload` — frozen spec (kernel, variant, n, block, seed)
  that builds its ``KernelInstance`` lazily.
* :class:`Backend` — where it runs: :class:`CoreBackend` (bare core),
  :class:`ClusterBackend` (N cores) or :class:`SocBackend` (C clusters
  x M cores); named by spec strings (``"core"``, ``"cluster:4"``,
  ``"soc:2x4"``) via :func:`parse_backend`.
* :class:`RunRecord` — the unified result (cycles, counters, IPC,
  power/energy, cluster detail) with a versioned ``to_json`` schema.
* :class:`Sweep` — declarative workloads x backends cross-product;
  its executor owns determinism, ``jobs`` sharding and per-task cell
  batching for the whole eval layer.
* :func:`artifact` — registry decorator turning a function into a
  ``python -m repro.eval`` subcommand.
"""

from .artifacts import (
    REGISTRY,
    ArtifactRequest,
    ArtifactResult,
    ArtifactSpec,
    ExtraFlag,
    artifact,
    combine,
    write_output,
)
from .backend import (
    Backend,
    ClusterBackend,
    CoreBackend,
    SocBackend,
    backend_spec_forms,
    parse_backend,
    record_from_instance,
)
from .fingerprint import timing_fingerprint
from .record import (
    SCHEMA_VERSION,
    ClusterDetail,
    RunRecord,
    SocDetail,
    StreamClassStats,
    StreamDetail,
)
from .sweep import Sweep
from .workload import VARIANTS, CellError, Workload, pair

__all__ = [
    "ArtifactRequest",
    "ArtifactResult",
    "ArtifactSpec",
    "Backend",
    "CellError",
    "ClusterBackend",
    "ClusterDetail",
    "CoreBackend",
    "ExtraFlag",
    "REGISTRY",
    "RunRecord",
    "SCHEMA_VERSION",
    "SocBackend",
    "SocDetail",
    "StreamClassStats",
    "StreamDetail",
    "Sweep",
    "VARIANTS",
    "Workload",
    "artifact",
    "backend_spec_forms",
    "combine",
    "pair",
    "parse_backend",
    "record_from_instance",
    "timing_fingerprint",
    "write_output",
]
