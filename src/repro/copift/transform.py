"""Automated COPIFT code generation for two-phase (INT→FP) kernels.

The paper presents COPIFT as a methodology "followed by developers";
this module automates the common case end to end.  A kernel described
by a :class:`TwoPhaseSpec` — an integer phase producing values and an
FP phase consuming them — is compiled into the full COPIFT program:

* Step 4: the element loop is tiled into blocks; the integer phase
  writes its per-element values into 8-byte stream slots of a column;
* Step 5: two columns rotate (producer/consumer distance 1 → double
  buffering, per the replication rule);
* Step 6: the FP phase's reads are a single 1-D SSR stream over the
  consumer column; an optional output stream writes results straight
  to the destination array;
* Step 7: the FP body runs under one ``frep`` spanning the block,
  emitted *before* the integer phase of each macro-iteration.

It builds the four Monte Carlo paper kernels ({pi, poly} × {LCG,
xoshiro128+}) and the ``dither`` demo kernel; ``expf`` and ``logf``
need three-phase or gather pipelines and are scheduled by hand on the
same Step-6/7 emitters (:mod:`.ssr_mapping`, :mod:`.frep_mapping`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..isa.instructions import Thread
from ..isa.program import Program, ProgramBuilder
from ..sim import Allocator, CoreConfig
from .frep_mapping import FrepBodyError, emit_frep
from .ssr_mapping import AffineStream, emit_stream_base, emit_stream_shape


@dataclass(frozen=True)
class TwoPhaseSpec:
    """A kernel with one integer phase feeding one FP phase.

    Attributes:
        name: Kernel name (for the program and reports).
        emit_setup: Emits one-time setup (constants, PRNG state...).
        emit_int_element: Emits the integer phase for unroll-element
            *u* of one loop iteration.  Contract: values for element
            ``u`` are stored through register ``a7`` at byte offsets
            ``(u * pops_per_element + k) * 8`` for slot ``k``; the
            generator owns ``a7``, ``t2`` and the loop control.
        emit_fp_body: Emits the FP phase for ONE element: it must pop
            ``ft0`` exactly ``pops_per_element`` times and push ``ft2``
            exactly ``pushes_per_element`` times, touch no integer
            registers, and fit the FREP buffer.
        pops_per_element: 8-byte stream slots consumed per element.
        pushes_per_element: 8-byte results produced per element.
        unroll: Integer-phase unroll factor.
        emit_finalize: Optional epilogue (e.g. spilling an FP
            accumulator) emitted after the pipeline drains, with SSRs
            disabled.
    """

    name: str
    emit_setup: Callable[[ProgramBuilder], None]
    emit_int_element: Callable[[ProgramBuilder, int], None]
    emit_fp_body: Callable[[ProgramBuilder], None]
    pops_per_element: int = 1
    pushes_per_element: int = 1
    unroll: int = 4
    emit_finalize: Callable[[ProgramBuilder], None] | None = None


@dataclass
class TwoPhaseBuild:
    """Result of :func:`generate_two_phase`: program + layout facts."""

    program: Program
    arena_addr: int
    output_addr: int | None
    column_bytes: int
    fp_body_length: int


def _validate_body(spec: TwoPhaseSpec,
                   frep_buffer_size: int = CoreConfig.frep_buffer_size
                   ) -> int:
    scratch = ProgramBuilder()
    spec.emit_fp_body(scratch)
    body = scratch._instructions
    if not body:
        raise FrepBodyError(f"{spec.name}: FP body is empty")
    if len(body) > frep_buffer_size:
        raise FrepBodyError(
            f"{spec.name}: FP body of {len(body)} instructions "
            f"exceeds the {frep_buffer_size}-entry FREP buffer"
        )
    pops = sum(
        1 for instr in body for reg in instr.fp_reads
        if reg.index == 0
    )
    pushes = sum(
        1 for instr in body for reg in instr.fp_writes
        if reg.index == 2
    )
    if pops != spec.pops_per_element:
        raise FrepBodyError(
            f"{spec.name}: FP body pops ft0 {pops} times, spec "
            f"declares {spec.pops_per_element}"
        )
    if pushes != spec.pushes_per_element:
        raise FrepBodyError(
            f"{spec.name}: FP body pushes ft2 {pushes} times, spec "
            f"declares {spec.pushes_per_element}"
        )
    for instr in body:
        if instr.thread is not Thread.FP or instr.int_reads \
                or instr.int_writes:
            raise FrepBodyError(
                f"{spec.name}: illegal FREP body instruction "
                f"{instr.render()!r}"
            )
    return len(body)


def generate_two_phase(spec: TwoPhaseSpec, n: int, block: int,
                       alloc: Allocator) -> TwoPhaseBuild:
    """Compile *spec* into a complete COPIFT program for *n* elements.

    The ``main`` region wraps the software-pipelined computation, as in
    the hand-written kernels.

    Raises:
        ValueError: for inconsistent n/block/unroll.
        FrepBodyError: if the FP body violates its contract.
    """
    if block % spec.unroll != 0:
        raise ValueError(
            f"block must be a multiple of {spec.unroll} (the unroll factor)")
    if n % block != 0:
        raise ValueError("n must be a multiple of block")
    nb = n // block
    if nb < 2:
        raise ValueError("need at least 2 blocks for double buffering")
    body_len = _validate_body(spec)

    slot = 8 * spec.pops_per_element
    column_bytes = slot * block
    arena = alloc.alloc(f"{spec.name}_arena", 2 * column_bytes)
    output_addr = None
    if spec.pushes_per_element:
        output_addr = alloc.alloc(
            f"{spec.name}_out", 8 * spec.pushes_per_element * n)

    b = ProgramBuilder(f"{spec.name}_copift")
    spec.emit_setup(b)
    b.li("s2", arena)                       # cw
    b.li("s3", arena + column_bytes)        # cr
    b.li("s5", block - 1)                   # FREP reps - 1

    # SSR0: the value stream; SSR2: the optional output stream.
    values = AffineStream("values", "read",
                          (spec.pops_per_element * block,), (8,))
    emit_stream_shape(b, 0, values)
    if spec.pushes_per_element:
        results = AffineStream("results", "write",
                               (spec.pushes_per_element * block,), (8,))
        emit_stream_shape(b, 2, results)
        b.li("a1", output_addr)             # output cursor

    def int_phase() -> None:
        b.mv("a7", "s2")
        b.addi("t2", "s2", column_bytes)
        loop = b.fresh_label(f"{spec.name}_int")
        b.label(loop)
        for u in range(spec.unroll):
            spec.emit_int_element(b, u)
        b.addi("a7", "a7", slot * spec.unroll)
        b.bne("a7", "t2", loop)

    def fp_phase() -> None:
        emit_stream_base(b, 0, values, "s3")
        if spec.pushes_per_element:
            emit_stream_base(b, 2, results, "a1")
        emit_frep(b, "s5", spec.emit_fp_body)
        if spec.pushes_per_element:
            b.addi("a1", "a1", 8 * spec.pushes_per_element * block)

    def swap_columns() -> None:
        b.mv("t6", "s2")
        b.mv("s2", "s3")
        b.mv("s3", "t6")

    b.ssr_enable()
    b.mark("main_start")
    int_phase()                             # prologue: block 0
    swap_columns()
    b.li("s7", nb - 1)
    steady = b.fresh_label(f"{spec.name}_steady")
    b.label(steady)
    fp_phase()
    int_phase()
    swap_columns()
    b.addi("s7", "s7", -1)
    b.bnez("s7", steady)
    fp_phase()                              # epilogue: final block
    b.mark("main_end")
    b.ssr_disable()
    if spec.emit_finalize is not None:
        spec.emit_finalize(b)

    return TwoPhaseBuild(
        program=b.build(),
        arena_addr=arena,
        output_addr=output_addr,
        column_bytes=column_bytes,
        fp_body_length=body_len,
    )
