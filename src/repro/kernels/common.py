"""Shared kernel infrastructure: instances, constants, helpers.

Every evaluated kernel comes in two variants (paper §III):

* **baseline** — Snitch-optimized RV32G code: a single software-pipelined
  loop mixing integer and FP instructions, scheduled to hide FP latency
  but structurally single-issue.
* **copift** — the COPIFT transformation: phases separated, loop tiled
  into blocks, software-pipelined across blocks, FP memory traffic on
  SSRs, FP phases under FREP, ISA-extension instructions for cross-RF
  operations.

A :class:`KernelInstance` bundles a built program with its pre-loaded
memory image and a verifier against a golden (NumPy/Python) model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..isa.program import Program, ProgramBuilder
from ..sim import Allocator, CoreConfig, Machine, Memory, RunResult

#: Region name that wraps the main computation (marked in every kernel).
MAIN_REGION = "main"


@dataclass
class KernelInstance:
    """One runnable kernel build.

    Attributes:
        name: Kernel name (``expf``, ``poly_lcg``, ...).
        variant: ``baseline`` or ``copift``.
        program: The built program.
        memory: Pre-loaded memory image (inputs, tables, buffers).
        n: Problem size in elements/samples.
        block: COPIFT block size (None for baselines).
        dma_active: Whether the DMA engine is powered for this kernel
            (vector kernels stage arrays; Monte Carlo kernels do not).
        dma_bytes: Total bytes conceptually moved by the DMA (input
            staging + output drain), for the energy model.
        verify: Callable raising AssertionError if the memory image
            does not hold the expected results after the run.
    """

    name: str
    variant: str
    program: Program
    memory: Memory
    n: int
    block: int | None
    dma_active: bool
    dma_bytes: int
    verify: Callable[[Memory, Machine], None]
    notes: dict = field(default_factory=dict)

    def run(self, config: CoreConfig | None = None,
            check: bool = True, obs=None) -> tuple[RunResult, Machine]:
        """Simulate this instance; optionally verify the results.

        *obs* is an optional :class:`repro.obs.ObsSink` receiving the
        run's structured events under the ``core`` scope.
        """
        machine = Machine(config=config, memory=self.memory)
        if obs is not None:
            machine.attach_obs(obs, "core")
        result = machine.run(self.program)
        if check:
            self.verify(self.memory, machine)
        return result, machine


def load_f64_constants(builder: ProgramBuilder, alloc: Allocator,
                       assignments: dict[str, float],
                       addr_reg: str = "t0") -> None:
    """Materialize double constants into FP registers at program start.

    Allocates a constant pool, stores the values at build time, and
    emits one ``li`` + ``fld`` pair per constant (setup-only cost).
    """
    import numpy as np

    values = list(assignments.items())
    pool = alloc.alloc(f"constpool_{id(assignments) & 0xFFFF}",
                       8 * len(values))
    array = np.array([v for _, v in values], dtype=np.float64)
    alloc.memory.write_array(pool, array)
    for i, (reg_name, _) in enumerate(values):
        builder.li(addr_reg, pool + 8 * i)
        builder.fld(reg_name, 0, addr_reg)


