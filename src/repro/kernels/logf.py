"""The ``logf`` kernel: vector logarithm with an ISSR-mapped table.

glibc-style table-driven log.  For each element ``x``:

1. the **integer thread** dissects the IEEE-754 bits (high word only —
   f32-grade accuracy, like the glibc ``logf`` this reproduces):
   exponent ``k = (hi >> 20) - 1023``, table index ``i`` from the top
   four mantissa bits, and the normalized significand ``z ∈ [1, 2)``
   rebuilt by substituting the exponent field;
2. the **FP thread** looks up ``(invc, logc) = T[i]`` (``c`` anchors the
   middle of mantissa bucket ``i``), computes the residual
   ``r = z*invc - 1`` (|r| ≤ 1/32) and evaluates
   ``log(x) = k·ln2 + logc + r + r²·poly(r)``.

The table lookup address is data-dependent — a **Type 1** dynamic memory
dependency.  Per Table I footnote ‡, the COPIFT variant maps it onto an
**ISSR**: the integer thread emits a stream of table-entry indices
(``2i`` and ``2i+1`` for the invc/logc halves) and the ISSR gathers
``T[idx]`` in hardware into ``ft1``.  The exponent crosses into the FP
thread via the spilled ``k`` slot and the ``cfcvt.d.w`` COPIFT extension
(footnote *).  This kernel has only two phases (INT → FP), so the
software pipeline is a double-buffered two-column rotation.
"""

from __future__ import annotations

import math

import numpy as np

from ..copift.frep_mapping import emit_frep
from ..copift.ssr_mapping import (
    AffineStream, IndirectStream, emit_stream_base, emit_stream_shape,
)
from ..isa.program import ProgramBuilder
from ..sim import Allocator, Memory
from .common import KernelInstance, load_f64_constants

#: 16-entry table over the mantissa interval [1, 2).
TABLE_BITS = 4
N_TABLE = 1 << TABLE_BITS

LN2 = math.log(2.0)

#: log(1+r) = r + r^2 * (A0 + A1 r + A2 r + A3 r^3), |r| <= 1/32.
A = (-0.5, 1.0 / 3.0, -0.25, 0.2)

_ONE_HI = 0x3FF00000


def log_table() -> np.ndarray:
    """Interleaved (invc, logc) pairs, c = bucket midpoints."""
    rows = []
    for i in range(N_TABLE):
        c = 1.0 + (i + 0.5) / N_TABLE
        rows.extend((1.0 / c, math.log(c)))
    return np.array(rows, dtype=np.float64)


def reference_log(x: np.ndarray) -> np.ndarray:
    return np.log(x)


def default_inputs(n: int, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.01, 100.0, size=n)


def _verify(memory: Memory, y_addr: int, x: np.ndarray) -> None:
    y = memory.read_array(y_addr, np.float64, len(x))
    # f32-grade accuracy: the mantissa is truncated to the high word.
    np.testing.assert_allclose(y, reference_log(x), rtol=0, atol=1e-5)


_CONSTS = {
    "ft3": LN2,
    "ft4": 1.0,
    "ft5": A[0],
    "ft6": A[1],
    "ft7": A[2],
    "ft8": A[3],
}


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------

def build_baseline(n: int, seed: int = 11) -> KernelInstance:
    """RV32G baseline: dissection + direct fld lookups, 4-way unrolled."""
    if n % 4 != 0:
        raise ValueError("n must be a multiple of 4")
    memory = Memory()
    alloc = Allocator(memory)
    x = default_inputs(n, seed)
    x_addr = alloc.alloc_array("x", x)
    y_addr = alloc.alloc("y", 8 * n)
    t_addr = alloc.alloc_array("T", log_table())
    z_buf = alloc.alloc("z", 8 * 4)  # lo words stay zero

    b = ProgramBuilder("logf_baseline")
    load_f64_constants(b, alloc, _CONSTS)
    b.li("a0", x_addr)
    b.li("a1", y_addr)
    b.li("a2", x_addr + 8 * n)
    b.li("a5", t_addr)
    b.li("a7", z_buf)
    b.lui("s10", _ONE_HI >> 12)     # exponent-substitution constant

    b.mark("main_start")
    b.label("loop")
    # Integer stage: dissect four elements; k in s4..s7, &T[i] in s0..s3.
    for u in range(4):
        b.lw("t3", 8 * u + 4, "a0")           # hi word of x
        b.srli("t4", "t3", 20)
        b.addi(f"s{4 + u}", "t4", -1023)      # k
        b.srli("t5", "t3", 16)
        b.andi("t5", "t5", N_TABLE - 1)
        b.slli("t5", "t5", 4)                 # 16-byte entries
        b.add(f"s{u}", "a5", "t5")            # &T[i]
        b.slli("t3", "t3", 12)
        b.srli("t3", "t3", 12)                # mantissa bits
        b.emit("or", "t3", "t3", "s10")       # exponent := 1023
        b.sw("t3", 8 * u + 4, "a7")           # z hi word
    # FP stage, list-scheduled across the four elements.
    for u in range(4):
        b.fld(f"fa{u}", 8 * u, "a7")          # z
    for u in range(4):
        b.fld(f"fs{u}", 0, f"s{u}")           # invc  (Type 1 address)
    for u in range(4):
        b.fld(f"fs{4 + u}", 8, f"s{u}")       # logc
    for u in range(4):
        b.fmsub_d(f"fa{u}", f"fa{u}", f"fs{u}", "ft4")     # r
    for u in range(4):
        b.fcvt_d_w(f"fs{u}", f"s{4 + u}")     # k as double (Type 3)
    for u in range(4):
        b.fmadd_d(f"fs{u}", f"fs{u}", "ft3", f"fs{4 + u}")  # y0
    for u in range(4):
        b.fmadd_d(f"fs{4 + u}", "ft8", f"fa{u}", "ft7")    # q = A3 r+A2
    for u in range(4):
        b.fmadd_d(f"fs{4 + u}", f"fs{4 + u}", f"fa{u}", "ft6")
    for u in range(4):
        b.fmadd_d(f"fs{4 + u}", f"fs{4 + u}", f"fa{u}", "ft5")
    for u in range(4):
        b.fmul_d(f"fs{8 + u % 4}", f"fa{u}", f"fa{u}")     # r^2
    for u in range(4):
        b.fadd_d(f"fs{u}", f"fs{u}", f"fa{u}")             # y0 + r
    for u in range(4):
        b.fmadd_d(f"fa{u}", f"fs{4 + u}", f"fs{8 + u % 4}",
                  f"fs{u}")                                # y
    for u in range(4):
        b.fsd(f"fa{u}", 8 * u, "a1")
    b.addi("a0", "a0", 32)
    b.addi("a1", "a1", 32)
    b.bne("a0", "a2", "loop")
    b.mark("main_end")

    return KernelInstance(
        name="logf", variant="baseline", program=b.build(),
        memory=memory, n=n, block=None,
        dma_active=True, dma_bytes=16 * n,
        verify=lambda mem, machine: _verify(mem, y_addr, x),
        notes={"x_addr": x_addr, "y_addr": y_addr, "inputs": x,
               "out_region": (y_addr, 8 * n)},
    )


# ---------------------------------------------------------------------------
# COPIFT
# ---------------------------------------------------------------------------

def _emit_fp_phase(b: ProgramBuilder) -> None:
    """FP phase for one element (9 instructions, Table I #FP = 36).

    Pops: z (ft0), invc (ft1/ISSR), k (ft0), logc (ft1/ISSR);
    pushes y (ft2).
    """
    b.fmsub_d("fa2", "ft0", "ft1", "ft4")        # r = z*invc - 1
    b.cfcvt_d_w("fa0", "ft0")                    # k (COPIFT custom-1)
    b.fmadd_d("fa1", "fa0", "ft3", "ft1")        # y0 = k ln2 + logc
    b.fmadd_d("fa3", "ft8", "fa2", "ft7")        # q = A3 r + A2
    b.fmadd_d("fa3", "fa3", "fa2", "ft6")
    b.fmul_d("fa4", "fa2", "fa2")                # r^2
    b.fmadd_d("fa3", "fa3", "fa2", "ft5")
    b.fadd_d("fa1", "fa1", "fa2")                # y0 + r
    b.fmadd_d("ft2", "fa3", "fa4", "fa1")        # y (push)


def build_copift(n: int, block: int = 64, seed: int = 11) -> KernelInstance:
    """COPIFT logf: 2 phases, double buffering, ISSR table gather."""
    if block % 4 != 0:
        raise ValueError("block must be a multiple of 4")
    if n % block != 0:
        raise ValueError("n must be a multiple of block")
    nb = n // block
    if nb < 2:
        raise ValueError("need at least 2 blocks")

    memory = Memory()
    alloc = Allocator(memory)
    x = default_inputs(n, seed)
    x_addr = alloc.alloc_array("x", x)
    y_addr = alloc.alloc("y", 8 * n)
    t_addr = alloc.alloc_array("T", log_table())
    # Two rotated columns x [z | ki | idx], each slot block*8 bytes
    # (the idx slot holds 2*block uint32 indices = block*8 bytes too).
    slot = 8 * block
    col_size = 3 * slot
    arena = alloc.alloc("arena", 2 * col_size)

    b = ProgramBuilder("logf_copift")
    load_f64_constants(b, alloc, _CONSTS)
    b.li("a0", x_addr)              # x block cursor
    b.li("a1", y_addr)              # y block cursor
    b.li("s2", arena)               # cw: column written this macro
    b.li("s3", arena + col_size)    # cr: column written last macro
    b.li("s5", block - 1)           # FREP reps - 1
    b.li("s6", t_addr)              # table base for the ISSR
    b.lui("s10", _ONE_HI >> 12)

    # Stream shapes are loop-invariant; only bases are re-armed per macro.
    # SSR0: fused (z, k) read - dims (2, block), strides (slot, 8).
    z_k = AffineStream("z+k", "read", (2, block), (slot, 8))
    # SSR1: ISSR gather of (invc, logc): 2*block u32 indices, T + idx*8.
    table = IndirectStream("invc+logc", (2 * block,), (4,),
                           index_symbol="idx", base_symbol="T")
    # SSR2: y write stream, 1-D contiguous.
    y_out = AffineStream("y", "write", (block,), (8,))
    for ssr, stream in enumerate((z_k, table, y_out)):
        emit_stream_shape(b, ssr, stream)

    def int_phase() -> None:
        """Dissect one block (59 instructions per 4 elements)."""
        b.mv("a6", "a0")                     # x cursor
        b.mv("a7", "s2")                     # column cursor
        b.addi("t2", "a0", slot)             # x bound
        loop = b.fresh_label("dissect")
        b.label(loop)
        for u in range(4):
            b.lw("t3", 8 * u + 4, "a6")
            b.srli("t4", "t3", 20)
            b.addi("t4", "t4", -1023)
            b.sw("t4", slot + 8 * u, "a7")   # k -> ki slot low word
            b.srli("t5", "t3", 16)
            b.andi("t5", "t5", N_TABLE - 1)
            b.slli("t5", "t5", 1)            # 2i
            b.sw("t5", 2 * slot + 8 * u, "a7")
            b.addi("t5", "t5", 1)
            b.sw("t5", 2 * slot + 8 * u + 4, "a7")
            b.slli("t3", "t3", 12)
            b.srli("t3", "t3", 12)
            b.emit("or", "t3", "t3", "s10")
            b.sw("t3", 8 * u + 4, "a7")      # z hi word (lo stays 0)
        b.addi("a6", "a6", 32)
        b.addi("a7", "a7", 32)
        b.bne("a6", "t2", loop)

    def arm_streams() -> None:
        """Point the streams at cr (producer column) and the y cursor."""
        emit_stream_base(b, 0, z_k, "s3")
        b.addi("t1", "s3", 2 * slot)
        emit_stream_base(b, 1, table, "s6", index_reg="t1")
        emit_stream_base(b, 2, y_out, "a1")

    def swap_columns() -> None:
        b.mv("t1", "s2")
        b.mv("s2", "s3")
        b.mv("s3", "t1")

    b.ssr_enable()
    b.mark("main_start")

    # Prologue: integer phase fills block 0; no FP work yet.
    int_phase()
    b.addi("a0", "a0", slot)
    swap_columns()

    # Steady macros 1 .. nb-1: FP phase (block j-1) + int phase (block j).
    b.li("s7", nb - 1)
    b.label("steady")
    arm_streams()
    emit_frep(b, "s5", _emit_fp_phase)
    int_phase()
    b.addi("a0", "a0", slot)
    b.addi("a1", "a1", slot)
    swap_columns()
    b.addi("s7", "s7", -1)
    b.bnez("s7", "steady")

    # Epilogue: FP phase on the final block.
    arm_streams()
    emit_frep(b, "s5", _emit_fp_phase)

    b.mark("main_end")
    b.ssr_disable()

    return KernelInstance(
        name="logf", variant="copift", program=b.build(),
        memory=memory, n=n, block=block,
        dma_active=True, dma_bytes=16 * n,
        verify=lambda mem, machine: _verify(mem, y_addr, x),
        notes={"x_addr": x_addr, "y_addr": y_addr, "inputs": x,
               "out_region": (y_addr, 8 * n)},
    )
