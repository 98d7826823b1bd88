"""The ``expf`` kernel: vector exponential (paper Fig. 1, Table I row 1).

Implements the glibc-style table-driven exponential the paper extracts
its running example from: for each element,

1. ``z = x * 32/ln2``; ``kd = z + SHIFT`` rounds ``z`` to the integer
   ``k`` using the 1.5·2^52 shift trick (the add leaves ``k`` in the low
   mantissa bits of ``kd``);
2. the integer thread extracts ``k`` via an ``fsd``/``lw`` round trip,
   looks up ``T[k % 32]`` (bits of ``2^(j/32)``, pre-adjusted by
   ``-(j << 47)`` exactly as glibc's table is) and adds ``k << 15`` into
   the high word to build ``s = 2^(k/32)`` scaled by ``2^(k/32 >> 5)``;
3. the FP thread evaluates the cubic polynomial ``p ≈ 2^(r/32)`` for the
   rounding residual ``r = z - k`` and multiplies ``y = p * s``.

The *baseline* is the paper's 4-way-unrolled RV32G loop (43 integer + 52
FP instructions per iteration, matching Table I exactly); the *COPIFT*
variant applies all seven methodology steps: three phases, block tiling,
3-column rotated buffers, software pipelining, a 2-D fused read stream
(x, t), a 2-D fused write stream (ki, w, y), a w read stream, and a
single 10-instruction FREP body fusing FP phases 0 and 2.
"""

from __future__ import annotations

import math

import numpy as np

from ..copift.frep_mapping import emit_frep
from ..copift.ssr_mapping import (
    AffineStream, emit_stream_base, emit_stream_shape,
)
from ..isa.program import ProgramBuilder
from ..sim import Allocator, Memory
from ..sim.ssr import (
    F_BOUND0, F_BOUND1, F_STATUS, F_STRIDE0, F_STRIDE1, encode_cfg_imm,
)
from .common import KernelInstance, load_f64_constants

#: Table size: 2^5 entries, as in glibc's expf.
TABLE_BITS = 5
N_TABLE = 1 << TABLE_BITS

LN2 = math.log(2.0)
INV_LN2N = N_TABLE / LN2
SHIFT = 1.5 * 2.0 ** 52

#: Cubic polynomial for 2^(r/32), |r| <= 0.5 (Taylor in r*ln2/32).
C3 = 1.0
C2 = LN2 / N_TABLE
C1 = LN2 ** 2 / (2 * N_TABLE ** 2)
C0 = LN2 ** 3 / (6 * N_TABLE ** 3)


def exp_table() -> np.ndarray:
    """The 32-entry uint64 table, glibc-style ``-(j << 47)`` adjusted."""
    entries = []
    for j in range(N_TABLE):
        bits = np.float64(2.0 ** (j / N_TABLE)).view(np.uint64)
        entries.append((int(bits) - (j << 47)) & 0xFFFFFFFFFFFFFFFF)
    return np.array(entries, dtype=np.uint64)


def reference_exp(x: np.ndarray) -> np.ndarray:
    """Golden model (the kernel is accurate to ~1e-9 relative)."""
    return np.exp(x)


def default_inputs(n: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(-5.0, 5.0, size=n)


def _verify(memory: Memory, y_addr: int, x: np.ndarray) -> None:
    y = memory.read_array(y_addr, np.float64, len(x))
    expected = reference_exp(x)
    np.testing.assert_allclose(y, expected, rtol=1e-8)


_CONSTS = {
    "ft3": INV_LN2N,
    "ft4": SHIFT,
    "ft5": C0,
    "ft6": C1,
    "ft7": C2,
    "ft8": C3,
}


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------

def build_baseline(n: int, seed: int = 7) -> KernelInstance:
    """Snitch-optimized RV32G baseline: 4-way unrolled, list-scheduled."""
    if n % 4 != 0:
        raise ValueError("n must be a multiple of 4")
    memory = Memory()
    alloc = Allocator(memory)
    # Both arrays are reserved before any input is drawn, so an n the
    # memory cannot hold fails here, not after allocating the inputs.
    x_addr = alloc.alloc("x", 8 * n)
    y_addr = alloc.alloc("y", 8 * n)
    x = default_inputs(n, seed)
    memory.write_array(x_addr, x)
    t_addr = alloc.alloc_array("T", exp_table())
    ki_buf = alloc.alloc("ki", 8 * 4)
    t_buf = alloc.alloc("t", 8 * 4)

    b = ProgramBuilder("expf_baseline")
    load_f64_constants(b, alloc, _CONSTS)
    b.li("a0", x_addr)
    b.li("a1", y_addr)
    b.li("a2", x_addr + 8 * n)
    b.li("a5", t_addr)
    b.li("a6", ki_buf)
    b.li("a7", t_buf)

    b.mark("main_start")
    b.label("loop")
    # Stage A: z and kd for all four elements (FP).
    for u in range(4):
        z = f"fa{u}"
        kd = f"fs{u}"
        b.fld(z, 8 * u, "a0")
        b.fmul_d(z, "ft3", z)
        b.fadd_d(kd, z, "ft4")
        b.fsd(kd, 8 * u, "a6")
    # Stage B: integer extraction + table lookup (paper Fig. 1b, 5-14).
    for u in range(4):
        b.lw("t3", 8 * u, "a6")          # ki (low word of kd)
        b.andi("t4", "t3", N_TABLE - 1)
        b.slli("t4", "t4", 3)
        b.add("t4", "a5", "t4")
        b.lw("t5", 0, "t4")              # T_lo
        b.lw("t6", 4, "t4")              # T_hi
        b.slli("t3", "t3", 15)           # ki << 15
        b.add("t3", "t3", "t6")
        b.sw("t5", 8 * u, "a7")
        b.sw("t3", 8 * u + 4, "a7")
    # Stage C: residual, polynomial, scale (FP) — list-scheduled across
    # the four unroll units so dependent ops sit ≥ 4 issue slots apart
    # and the shallow FPU pipeline never stalls.
    def _regs(u: int) -> tuple[str, str, str, str, str]:
        return (f"fa{u}", f"fs{u}", f"fs{4 + u}", f"fa{4 + u}",
                f"fs{8 + u % 4}")

    for u in range(4):
        z, kd, p2, r2, s = _regs(u)
        b.fsub_d(kd, kd, "ft4")          # k
    for u in range(4):
        z, kd, p2, r2, s = _regs(u)
        b.fsub_d(z, z, kd)               # r = z - k
    for u in range(4):
        z, kd, p2, r2, s = _regs(u)
        b.fmadd_d(kd, "ft5", z, "ft6")   # p1 = C0 r + C1
    for u in range(4):
        z, kd, p2, r2, s = _regs(u)
        b.fmadd_d(p2, "ft7", z, "ft8")   # p2 = C2 r + C3
    for u in range(4):
        z, kd, p2, r2, s = _regs(u)
        b.fmul_d(r2, z, z)
    for u in range(4):
        z, kd, p2, r2, s = _regs(u)
        b.fld(s, 8 * u, "a7")            # s = 2^(k/32)
    for u in range(4):
        z, kd, p2, r2, s = _regs(u)
        b.fmadd_d(kd, kd, r2, p2)        # p = p1 r2 + p2
    for u in range(4):
        z, kd, p2, r2, s = _regs(u)
        b.fmul_d(kd, kd, s)              # y
    for u in range(4):
        z, kd, p2, r2, s = _regs(u)
        b.fsd(kd, 8 * u, "a1")
    b.addi("a0", "a0", 32)
    b.addi("a1", "a1", 32)
    b.bne("a0", "a2", "loop")
    b.mark("main_end")

    return KernelInstance(
        name="expf", variant="baseline", program=b.build(),
        memory=memory, n=n, block=None,
        dma_active=True, dma_bytes=16 * n,
        verify=lambda mem, machine: _verify(mem, y_addr, x),
        notes={"x_addr": x_addr, "y_addr": y_addr, "inputs": x,
               "out_region": (y_addr, 8 * n)},
    )


# ---------------------------------------------------------------------------
# COPIFT
# ---------------------------------------------------------------------------

def _emit_phase0(b: ProgramBuilder) -> None:
    """FP phase 0 for one element: z, kd (→ki stream), poly (→w stream).

    Instruction order minimizes the in-order issue critical path of the
    FREP body (the sequencer cannot interleave iterations, so the
    iteration's dependence chain bounds FP throughput): the ki push sits
    in the shadow of the k subtraction, and p1/p2/r² overlap.
    """
    b.fmul_d("fa3", "ft3", "ft0")        # z = InvLn2N * x     (pop x)
    b.fadd_d("fa1", "fa3", "ft4")        # kd (rounded)
    b.fsub_d("fa2", "fa1", "ft4")        # k
    b.fmv_d("ft1", "fa1")                # push kd -> ki
    b.fsub_d("fa3", "fa3", "fa2")        # r
    b.fmadd_d("fa2", "ft5", "fa3", "ft6")   # p1
    b.fmul_d("fa1", "fa3", "fa3")           # r2
    b.fmadd_d("fa4", "ft7", "fa3", "ft8")   # p2
    b.fmadd_d("ft1", "fa2", "fa1", "fa4")   # push w
    # 9 instructions


def _emit_phase2(b: ProgramBuilder) -> None:
    """FP phase 2 for one element: y = w * s (pops w, t; pushes y)."""
    b.fmul_d("ft1", "ft2", "ft0")
    # 1 instruction


def _emit_fused_phases(b: ProgramBuilder) -> None:
    """Steady-state FREP body: phase 0 of block j + phase 2 of j-2."""
    _emit_phase0(b)
    _emit_phase2(b)


def _emit_int_phase(b: ProgramBuilder) -> None:
    """Integer phase 1 over one block: extract k, build s into t slots.

    Expects a6 = ki read pointer, a7 = t write pointer, t2 = end bound.
    43 instructions per 4 elements — Table I's COPIFT #Int column.
    """
    loop = b.fresh_label("intphase")
    b.label(loop)
    for u in range(4):
        b.lw("t3", 8 * u, "a6")
        b.andi("t4", "t3", N_TABLE - 1)
        b.slli("t4", "t4", 3)
        b.add("t4", "a5", "t4")
        b.lw("t5", 0, "t4")
        b.lw("t6", 4, "t4")
        b.slli("t3", "t3", 15)
        b.add("t3", "t3", "t6")
        b.sw("t5", 8 * u, "a7")
        b.sw("t3", 8 * u + 4, "a7")
    b.addi("a6", "a6", 32)
    b.addi("a7", "a7", 32)
    b.bne("a6", "t2", loop)


def build_copift(n: int, block: int = 64, seed: int = 7) -> KernelInstance:
    """COPIFT-transformed expf (paper Fig. 1d-1j end state)."""
    if block % 4 != 0:
        raise ValueError("block must be a multiple of 4")
    if n % block != 0:
        raise ValueError("n must be a multiple of block")
    nb = n // block
    if nb < 3:
        raise ValueError("need at least 3 blocks for the 3-phase pipeline")

    memory = Memory()
    alloc = Allocator(memory)
    # Both arrays are reserved before any input is drawn, so an n the
    # memory cannot hold fails here, not after allocating the inputs.
    x_addr = alloc.alloc("x", 8 * n)
    y_addr = alloc.alloc("y", 8 * n)
    x = default_inputs(n, seed)
    memory.write_array(x_addr, x)
    t_addr = alloc.alloc_array("T", exp_table())
    # Rotated arena: 3 columns x [ki | w | y | t], each slot block*8 B.
    slot = 8 * block
    col_size = 4 * slot
    arena = alloc.alloc("arena", 3 * col_size)

    b = ProgramBuilder("expf_copift")
    load_f64_constants(b, alloc, _CONSTS)
    b.li("a0", x_addr)              # x read pointer (block granularity)
    b.li("a1", y_addr)              # y DMA-out pointer
    b.li("a5", t_addr)
    b.li("s2", arena)               # cw:  column of macro j
    b.li("s3", arena + 2 * col_size)  # cr1: column of macro j-1
    b.li("s4", arena + 1 * col_size)  # cr2: column of macro j-2
    b.li("s5", block - 1)           # FREP repetitions - 1
    b.li("s6", slot)                # DMA length / slot pitch

    def rotate_columns() -> None:
        b.mv("t1", "s2")
        b.mv("s2", "s4")
        b.mv("s4", "s3")
        b.mv("s3", "t1")

    # SSR0 reads x, t or the fused (x[i], t[i]) pairs; SSR1 writes the
    # fused (ki, w[, y]) slots, dims (n_streams, block); SSR2 reads w.
    x_read = AffineStream("x", "read", (block,), (8,))
    t_read = AffineStream("t", "read", (block,), (8,))
    xt_read = AffineStream("x+t", "read", (2, block), (0, 8))  # stride0 armed
    ki_w_write = AffineStream("ki+w", "write", (2, block), (slot, 8))
    ki_w_y_write = AffineStream("ki+w+y", "write", (3, block), (slot, 8))
    y_write = AffineStream("y", "write", (block,), (8,))
    w_read = AffineStream("w", "read", (block,), (8,))

    def arm_read_w() -> None:
        b.addi("t1", "s4", slot)
        emit_stream_base(b, 2, w_read, "t1")

    def arm_t_y() -> None:
        # Phase 2 alone: t of cr1 on SSR0, y slot of cw on SSR1.
        b.addi("t1", "s3", 3 * slot)
        emit_stream_base(b, 0, t_read, "t1")
        b.addi("t1", "s2", 2 * slot)
        emit_stream_base(b, 1, y_write, "t1")

    def int_phase() -> None:
        # ki read pointer = cr1, t write pointer = cw.t_slot.
        b.mv("a6", "s3")
        b.addi("a7", "s2", 3 * slot)
        b.addi("t2", "s3", slot)
        _emit_int_phase(b)

    def dma_out_y() -> None:
        # y of the oldest in-flight block sits in cw's y slot.
        b.addi("t1", "s2", 2 * slot)
        b.dma_copy("a1", "t1", "s6")
        b.addi("a1", "a1", slot)

    def advance_x() -> None:
        b.addi("a0", "a0", slot)

    b.ssr_enable()
    b.mark("main_start")

    # ---- Prologue macro 0: FP phase 0 on block 0 only. ----
    emit_stream_shape(b, 0, x_read)
    emit_stream_shape(b, 1, ki_w_write)
    emit_stream_base(b, 0, x_read, "a0")
    emit_stream_base(b, 1, ki_w_write, "s2")
    emit_frep(b, "s5", _emit_phase0)
    advance_x()
    rotate_columns()

    # ---- Prologue macro 1: FP phase 0 (block 1) + int phase (block 0).
    emit_stream_shape(b, 0, x_read)
    emit_stream_base(b, 0, x_read, "a0")
    emit_stream_base(b, 1, ki_w_write, "s2")
    emit_frep(b, "s5", _emit_phase0)
    int_phase()
    advance_x()
    rotate_columns()

    # ---- Steady state: macros 2 .. nb-1. ----
    # x+t shape without STRIDE0: that is the rotating t-x pitch below.
    for field, value in ((F_STATUS, 2), (F_BOUND0, 1),
                         (F_BOUND1, block - 1), (F_STRIDE1, 8)):
        b.li("t0", value)
        b.scfgwi("t0", encode_cfg_imm(field, 0))
    emit_stream_shape(b, 1, ki_w_y_write)
    emit_stream_shape(b, 2, w_read)
    b.li("s7", nb - 2)
    b.label("steady")
    b.addi("t1", "s3", 3 * slot)        # stride0 = cr1.t_slot - x block
    b.sub("t1", "t1", "a0")
    b.scfgwi("t1", encode_cfg_imm(F_STRIDE0, 0))
    emit_stream_base(b, 0, xt_read, "a0")
    emit_stream_base(b, 1, ki_w_y_write, "s2")
    arm_read_w()
    emit_frep(b, "s5", _emit_fused_phases)
    int_phase()
    dma_out_y()
    advance_x()
    rotate_columns()
    b.addi("s7", "s7", -1)
    b.bnez("s7", "steady")

    # ---- Epilogue macro nb: FP phase 2 (block nb-2) + int (block nb-1).
    emit_stream_shape(b, 0, t_read)
    # Only y is pushed now: the 1-wide y shape overrides the (ki, w)
    # shape at once; the dead writes stay so the cycle counts hold.
    emit_stream_shape(b, 1, ki_w_write)
    emit_stream_shape(b, 1, y_write)
    emit_stream_shape(b, 2, w_read)
    arm_t_y()
    arm_read_w()
    emit_frep(b, "s5", _emit_phase2)
    int_phase()
    dma_out_y()
    rotate_columns()

    # ---- Epilogue macro nb+1: FP phase 2 (block nb-1). ----
    arm_t_y()
    arm_read_w()
    emit_frep(b, "s5", _emit_phase2)
    dma_out_y()

    b.mark("main_end")
    b.ssr_disable()

    return KernelInstance(
        name="expf", variant="copift", program=b.build(),
        memory=memory, n=n, block=block,
        dma_active=True, dma_bytes=16 * n,
        verify=lambda mem, machine: _verify(mem, y_addr, x),
        notes={"x_addr": x_addr, "y_addr": y_addr, "inputs": x,
               "out_region": (y_addr, 8 * n)},
    )
