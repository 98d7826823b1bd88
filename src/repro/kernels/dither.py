"""``dither``: a seventh kernel, built by the automated transformer.

Generates a vector of uniform dither noise — ``d[i] = (u_i * 2^-32 -
0.5) * amplitude`` with ``u_i`` drawn from xoshiro128+ — a standard
pre-quantization step in audio/DSP and neural-network quantization
pipelines.  It is exactly the mixed integer/FP pattern COPIFT targets
(integer PRNG feeding FP scaling), and it is produced *entirely* by
:func:`repro.copift.transform.generate_two_phase`: no hand-written
pipeline code.

This demonstrates that the methodology implementation generalizes past
the paper's evaluation set.
"""

from __future__ import annotations

import numpy as np

from ..copift.transform import TwoPhaseSpec, generate_two_phase
from ..isa.program import ProgramBuilder
from ..sim import Allocator, Memory
from . import xoshiro
from .common import KernelInstance, load_f64_constants

TWO_M32 = 2.0 ** -32


def reference_dither(n: int, seed: int,
                     amplitude: float) -> np.ndarray:
    """Exact mirror of the generated code's arithmetic."""
    outputs = xoshiro.reference_sequence(seed, n)
    scale = amplitude * TWO_M32
    offset = -amplitude * 0.5
    return np.array([float(u) * scale + offset for u in outputs])


def build_copift(n: int, block: int = 64, seed: int = 99,
                 amplitude: float = 0.125) -> KernelInstance:
    """COPIFT dither kernel via the automated two-phase transformer."""
    memory = Memory()
    alloc = Allocator(memory)

    consts = {"fs8": amplitude * TWO_M32, "fs9": -amplitude * 0.5}

    def emit_setup(b: ProgramBuilder) -> None:
        load_f64_constants(b, alloc, consts)
        xoshiro.emit_init(b, seed)

    def emit_int_element(b: ProgramBuilder, u: int) -> None:
        xoshiro.emit_step(b, "a2")
        b.sw("a2", 8 * u, "a7")

    def emit_fp_body(b: ProgramBuilder) -> None:
        b.cfcvt_d_wu("fa0", "ft0")
        b.fmadd_d("ft2", "fa0", "fs8", "fs9")

    spec = TwoPhaseSpec(
        name="dither",
        emit_setup=emit_setup,
        emit_int_element=emit_int_element,
        emit_fp_body=emit_fp_body,
        pops_per_element=1,
        pushes_per_element=1,
        unroll=4,
    )
    build = generate_two_phase(spec, n, block, alloc)
    out_addr = build.output_addr

    def verify(mem: Memory, machine) -> None:
        measured = mem.read_array(out_addr, np.float64, n)
        np.testing.assert_array_equal(
            measured, reference_dither(n, seed, amplitude))

    return KernelInstance(
        name="dither", variant="copift", program=build.program,
        memory=memory, n=n, block=block,
        dma_active=True, dma_bytes=8 * n,
        verify=verify,
        notes={"out_addr": out_addr,
               "out_region": (out_addr, 8 * n),
               "fp_body_length": build.fp_body_length},
    )


def build_baseline(n: int, seed: int = 99,
                   amplitude: float = 0.125) -> KernelInstance:
    """Single-loop RV32G baseline for the dither kernel."""
    if n % 4 != 0:
        raise ValueError("n must be a multiple of 4")
    memory = Memory()
    alloc = Allocator(memory)
    out_addr = alloc.alloc("out", 8 * n)
    consts = {"fs8": amplitude * TWO_M32, "fs9": -amplitude * 0.5}

    b = ProgramBuilder("dither_baseline")
    load_f64_constants(b, alloc, consts)
    xoshiro.emit_init(b, seed)
    b.li("a0", out_addr)
    b.li("a1", out_addr + 8 * n)
    b.mark("main_start")
    b.label("loop")
    for u in range(4):
        xoshiro.emit_step(b, "a2")
        b.fcvt_d_wu(f"fa{u}", "a2")
        b.fmadd_d(f"fa{u}", f"fa{u}", "fs8", "fs9")
        b.fsd(f"fa{u}", 8 * u, "a0")
    b.addi("a0", "a0", 32)
    b.bne("a0", "a1", "loop")
    b.mark("main_end")

    def verify(mem: Memory, machine) -> None:
        measured = mem.read_array(out_addr, np.float64, n)
        np.testing.assert_array_equal(
            measured, reference_dither(n, seed, amplitude))

    return KernelInstance(
        name="dither", variant="baseline", program=b.build(),
        memory=memory, n=n, block=None,
        dma_active=True, dma_bytes=8 * n,
        verify=verify,
        notes={"out_addr": out_addr,
               "out_region": (out_addr, 8 * n)},
    )
