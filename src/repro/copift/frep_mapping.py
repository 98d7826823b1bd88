"""COPIFT Step 7: wrapping FP phase bodies in FREP loops.

FP block computations become hardware loops issued by the FPSS
sequencer.  Because the first iteration is dispatched by the integer
core, the FREP loop must *precede* the integer loop in program order so
the remaining iterations overlap with the integer thread; when a block
iteration runs two FP phases (e.g. phase 0 of block j and phase 2 of
block j-2), they are fused into a single FREP body so both overlap with
the integer phase (paper Fig. 1j).

:func:`emit_frep` validates the paper's hardware constraints at build
time: the body must fit the sequencer buffer and must not touch the
integer register file (that is exactly what SSRs and the COPIFT custom
ISA extension are for).  Every FREP loop of the paper kernels is
emitted through it: ``expf`` and ``logf`` call it directly, and the
four Monte Carlo kernels and ``dither`` through
:func:`repro.copift.transform.generate_two_phase`.
"""

from __future__ import annotations

from typing import Callable

from ..isa.instructions import Thread
from ..isa.program import ProgramBuilder
from ..sim import CoreConfig


class FrepBodyError(ValueError):
    """The emitted body violates FREP hardware constraints."""


def emit_frep(builder: ProgramBuilder, reps_reg: str,
              body: Callable[[ProgramBuilder], None],
              buffer_size: int = CoreConfig.frep_buffer_size) -> int:
    """Emit ``frep.o reps_reg, n`` followed by the *body* instructions.

    *reps_reg* must hold (iterations - 1) at runtime.  Returns the body
    length n.

    Raises:
        FrepBodyError: empty body, body too large for the sequencer
            buffer, or body instructions that are not pure-FP.
    """
    # Emit the body first into a scratch builder to learn its length,
    # then splice: frep.o needs the instruction count immediate.
    scratch = ProgramBuilder()
    body(scratch)
    instructions = scratch._instructions
    n = len(instructions)
    if n == 0:
        raise FrepBodyError("FREP body is empty")
    if n > buffer_size:
        raise FrepBodyError(
            f"FREP body of {n} instructions exceeds the "
            f"{buffer_size}-entry sequencer buffer; split the phase or "
            f"reduce unrolling"
        )
    for instr in instructions:
        if instr.thread is not Thread.FP:
            raise FrepBodyError(
                f"non-FP instruction in FREP body: {instr.render()!r}"
            )
        if instr.int_reads or instr.int_writes:
            raise FrepBodyError(
                f"FREP body instruction touches the integer RF: "
                f"{instr.render()!r} — map the access to an SSR or use "
                f"the COPIFT custom-1 re-encoding"
            )
    builder.frep_o(reps_reg, n)
    builder.extend(instructions)
    return n
