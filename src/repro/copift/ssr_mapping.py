"""COPIFT Step 6: mapping FP load/stores to SSR streams, with fusion.

After tiling, every FP memory access reads or writes a contiguous
block-sized buffer — a one-dimensional affine stream.  Snitch has three
SSRs, so when a kernel needs more streams than that, *stream fusion*
merges several lower-dimensional affine streams into one
higher-dimensional stream (paper Fig. 1i): consecutive buffers laid out
at a constant pitch become an extra dimension whose stride is the pitch.

This module provides the stream descriptors, the fusion algorithm, the
assignment onto the three architectural SSRs, and the ``scfgwi``
configuration-code emission.  The paper kernels configure their SSRs
through the emitters: ``expf`` and ``logf`` call them directly, and the
four Monte Carlo kernels and ``dither`` through
:func:`repro.copift.transform.generate_two_phase`.  The one shape
written by hand is ``expf``'s fused (x, t) read, whose STRIDE0 is a
runtime pitch set when the stream is armed.

Type 1 (dynamically addressed) streams either get converted to Type 2 by
integer-side prefetching (paper Fig. 1h) or are mapped onto an ISSR with
an index buffer (:class:`IndirectStream`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.program import ProgramBuilder
from ..sim import ssr as ssrdef


@dataclass(frozen=True)
class AffineStream:
    """An n-dimensional affine stream (bounds are iteration *counts*).

    ``bounds[0]``/``strides[0]`` is the innermost dimension.  The
    element sequence visits
    ``base + sum_d i_d * strides[d]`` for ``i_d in range(bounds[d])``,
    innermost first.
    """

    name: str
    direction: str                      # "read" | "write"
    bounds: tuple[int, ...]
    strides: tuple[int, ...]
    #: Symbolic base: resolved to an address by the kernel at runtime.
    base_symbol: str = ""

    def __post_init__(self) -> None:
        if self.direction not in ("read", "write"):
            raise ValueError(f"bad direction {self.direction!r}")
        if len(self.bounds) != len(self.strides):
            raise ValueError("bounds/strides rank mismatch")
        if not 1 <= len(self.bounds) <= 4:
            raise ValueError("streams must have 1-4 dimensions")
        if any(b < 1 for b in self.bounds):
            raise ValueError("all bounds must be ≥ 1")

    @property
    def rank(self) -> int:
        return len(self.bounds)

    @property
    def elements(self) -> int:
        n = 1
        for b in self.bounds:
            n *= b
        return n


@dataclass(frozen=True)
class IndirectStream:
    """An ISSR stream: gathers ``base[index[i] << shift]``.

    The index pattern itself is affine (usually a contiguous index
    buffer filled by the integer thread or prepared ahead of time).
    """

    name: str
    bounds: tuple[int, ...]
    strides: tuple[int, ...]
    index_symbol: str
    base_symbol: str
    index_bytes: int = 4
    shift: int = 3                     # << 3: 8-byte elements

    @property
    def elements(self) -> int:
        n = 1
        for b in self.bounds:
            n *= b
        return n


def fuse_streams(streams: list[AffineStream], pitch: int,
                 name: str = "") -> AffineStream:
    """Fuse same-shaped streams laid out *pitch* bytes apart (Fig. 1i).

    The fused stream iterates the original pattern, then hops ``pitch``
    bytes to the next buffer: one extra outer dimension of bound
    ``len(streams)``.

    Raises:
        ValueError: if shapes or directions differ, or the fused stream
            would exceed 4 dimensions.
    """
    if len(streams) < 2:
        raise ValueError("fusion needs at least two streams")
    first = streams[0]
    for other in streams[1:]:
        if other.bounds != first.bounds or other.strides != first.strides:
            raise ValueError(
                f"cannot fuse {other.name}: shape differs from "
                f"{first.name}"
            )
        if other.direction != first.direction:
            raise ValueError("cannot fuse streams of mixed direction")
    if first.rank + 1 > 4:
        raise ValueError("fused stream would exceed 4 dimensions")
    return AffineStream(
        name=name or "+".join(s.name for s in streams),
        direction=first.direction,
        bounds=first.bounds + (len(streams),),
        strides=first.strides + (pitch,),
        base_symbol=first.base_symbol,
    )


@dataclass
class SSRAssignment:
    """Streams assigned to architectural SSR indices."""

    slots: dict[int, AffineStream | IndirectStream] = field(
        default_factory=dict
    )

    def slot_of(self, stream_name: str) -> int:
        for index, stream in self.slots.items():
            if stream.name == stream_name:
                return index
        raise KeyError(f"stream {stream_name!r} not assigned")


def assign_ssrs(
    streams: list[AffineStream | IndirectStream],
    n_ssrs: int = 3,
) -> SSRAssignment:
    """Assign *streams* to SSR slots, reads first (ft0 is conventionally
    the primary read stream).

    Raises:
        ValueError: if there are more streams than SSRs — the caller
            should fuse further or fall back to explicit load/stores.
    """
    if len(streams) > n_ssrs:
        raise ValueError(
            f"{len(streams)} streams exceed the {n_ssrs} available "
            f"SSRs; apply stream fusion first"
        )
    reads = [s for s in streams
             if isinstance(s, IndirectStream) or s.direction == "read"]
    writes = [s for s in streams if s not in reads]
    assignment = SSRAssignment()
    for index, stream in enumerate(reads + writes):
        assignment.slots[index] = stream
    return assignment


# ---------------------------------------------------------------------------
# Configuration code emission
# ---------------------------------------------------------------------------

def emit_stream_shape(builder: ProgramBuilder, ssr_index: int,
                      stream: AffineStream | IndirectStream,
                      scratch: str = "t0") -> None:
    """Emit the loop-invariant ``scfgwi`` writes for *stream*'s shape.

    Shape configuration (dims, bounds, strides, index setup) is hoisted
    out of the block loop; only the base pointer write (see
    :func:`emit_stream_base`) recurs per block.
    """
    def write(field_code: int, value: int) -> None:
        builder.li(scratch, value)
        builder.scfgwi(scratch, ssrdef.encode_cfg_imm(field_code,
                                                      ssr_index))

    bounds = stream.bounds
    strides = stream.strides
    write(ssrdef.F_STATUS, len(bounds))
    for dim, (bound, stride) in enumerate(zip(bounds, strides)):
        write(ssrdef.F_BOUND0 + dim, bound - 1)
        write(ssrdef.F_STRIDE0 + dim, stride & 0xFFFFFFFF)
    if isinstance(stream, IndirectStream):
        write(ssrdef.F_IDX_CFG, stream.index_bytes | (stream.shift << 3))


def emit_stream_base(builder: ProgramBuilder, ssr_index: int,
                     stream: AffineStream | IndirectStream,
                     base_reg: str,
                     index_reg: str | None = None) -> None:
    """Arm *stream* with the base address held in *base_reg*.

    For indirect streams, *index_reg* holds the index-buffer address and
    must be written first (arming happens on the RPTR/WPTR write).
    """
    if isinstance(stream, IndirectStream):
        if index_reg is None:
            raise ValueError("indirect streams need index_reg")
        emit_indirect_base(builder, ssr_index, index_reg, base_reg)
        return
    field_code = (ssrdef.F_RPTR if stream.direction == "read"
                  else ssrdef.F_WPTR)
    builder.scfgwi(base_reg, ssrdef.encode_cfg_imm(field_code, ssr_index))


def emit_indirect_base(builder: ProgramBuilder, ssr_index: int,
                       index_reg: str, base_reg: str) -> None:
    """Arm an ISSR: index-buffer pointer first, then the data base."""
    builder.scfgwi(index_reg, ssrdef.encode_cfg_imm(
        ssrdef.F_IDX_BASE, ssr_index))
    builder.scfgwi(base_reg, ssrdef.encode_cfg_imm(
        ssrdef.F_RPTR, ssr_index))
