"""COPIFT reproduction: dual-issue execution of mixed integer and
floating-point workloads on energy-efficient in-order RISC-V cores.

A full-system reproduction of Colagrande & Benini, DAC 2025
(arXiv:2503.20590), built on a cycle-level Python model of a Snitch-like
core with FREP pseudo dual-issue, SSR/ISSR stream semantic registers,
and the COPIFT custom-1 ISA extension.

Package map:

* :mod:`repro.isa`     -- registers, instruction set, assembler DSL.
* :mod:`repro.sim`     -- functional + cycle-level core model.
* :mod:`repro.mem`     -- unified memory-traffic engine shared by the
  cluster and SoC DMA layers (directions, beat model, stream stats).
* :mod:`repro.cluster` -- N-core cluster: banked TCDM, DMA, barriers.
* :mod:`repro.soc`     -- C-cluster SoC: shared L2, beat-arbitrated
  interconnect, SoC partitioning.
* :mod:`repro.energy`  -- activity-based power/energy model.
* :mod:`repro.copift`  -- the seven-step COPIFT methodology + Eqs. 1-3.
* :mod:`repro.kernels` -- the six evaluated kernels, baseline + COPIFT.
* :mod:`repro.api`     -- unified experiment API: Workload, backends,
  RunRecord, Sweep, the artifact registry.
* :mod:`repro.eval`    -- Table I, Figures 2-3, cluster scaling.

Quick start::

    from repro.api import Workload, parse_backend

    record = parse_backend("core").run(Workload("expf", "copift",
                                                n=4096))
    print(record.cycles, record.ipc, record.power_mw)
"""

from .api import (
    ClusterBackend,
    CoreBackend,
    RunRecord,
    SocBackend,
    Sweep,
    Workload,
    parse_backend,
)
from .kernels import KERNELS, kernel

__version__ = "1.3.0"

__all__ = ["KERNELS", "ClusterBackend", "CoreBackend", "RunRecord",
           "SocBackend", "Sweep", "Workload", "kernel", "parse_backend",
           "__version__"]
