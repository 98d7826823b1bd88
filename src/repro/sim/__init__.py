"""Simulator: Snitch-like core with FREP sequencer and SSR data movers.

Public surface:

* :class:`Machine` — functional + cycle-level execution of programs.
* :class:`CoreConfig` — microarchitecture parameters (ablation switches).
* :class:`Memory` / :class:`Allocator` — the TCDM scratchpad.
* :class:`RunResult` / :class:`RegionMeasurement` / :class:`Counters` —
  measurements.
* :mod:`repro.sim.ssr` — SSR configuration field codes and
  :func:`encode_cfg_imm` for building ``scfgwi`` immediates.
"""

from .config import CoreConfig, DEFAULT_LATENCIES
from .counters import Counters, RegionMeasurement, RunResult
from .decode import DecodedProgram, MicroOp
from .machine import Machine, SimulationError
from .memory import Allocator, Memory, MemoryError_
from .scheduler import Scheduler
from .ssr import SSR, SSRError, encode_cfg_imm, decode_cfg_imm

__all__ = [
    "Allocator",
    "CoreConfig",
    "Counters",
    "DEFAULT_LATENCIES",
    "DecodedProgram",
    "Machine",
    "Memory",
    "MemoryError_",
    "MicroOp",
    "RegionMeasurement",
    "RunResult",
    "SSR",
    "SSRError",
    "Scheduler",
    "SimulationError",
    "decode_cfg_imm",
    "encode_cfg_imm",
]
