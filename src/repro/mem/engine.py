"""Unified memory-traffic engine: one transfer model for the hierarchy.

Every DMA-style transfer in the repo — cluster-level input staging,
SoC-level link traffic, output write-back — runs through one
:class:`TransferEngine`: a bandwidth/latency/beat model with program-
order service (single physical engine, one outstanding burst at a time;
queueing a transfer while another is in flight is precisely what
double-buffering exploits).  The cluster's ``ClusterDma`` and the SoC's
``SocDmaChannel`` are thin *configurations* of this engine — they add
defaults and wiring, never timing logic.

The engine is parameterized by three hooks:

* ``arbiter`` — grants the transfer's data beats against a shared
  resource (the SoC interconnect's claim table); ``None`` means the
  uncontended schedule of one beat per cycle after the setup latency.
* ``on_complete`` — observes every queued :class:`Transfer` (the SoC
  channel tallies L2-side endpoints against the shared ``L2Memory``).
* an attached TCDM bank arbiter (:meth:`attach_tcdm`) — in write-back
  simulation mode every beat additionally claims its TCDM bank-cycles,
  so DMA traffic and core accesses contend for the same banks.

Transfers carry a per-stream :class:`Direction`: ``READ`` moves data
from the backing store into the TCDM (input staging), ``WRITE`` drains
TCDM data out (output write-back).  The direction is classified by the
transfer's endpoints against ``window_base`` — the start of the
simulated L2 window inside each core's flat memory image.

Completion times feed the cores' memory-RAW publication machinery, so
compute naturally overlaps in-flight transfers and stalls only when it
outruns them.  The engine also enforces the architectural TCDM
capacity: a transfer whose scratchpad-side footprint crosses
``tcdm_size`` raises :class:`~repro.sim.memory.MemoryError_` (the
model's equivalent of the interconnect's error response).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable

from ..sim.memory import MemoryError_
from .stats import StreamStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.tcdm import BankedTcdm

#: Simulated L2 window inside each core's memory image (the flat image
#: doubles as the global address space: TCDM low, L2 high).
L2_WINDOW_BASE = 1 << 19

#: Bank-arbiter requestor id for DMA beats.  Distinct from every core
#: id (cores are >= 0), so a DMA beat conflicts with *any* core's
#: access to the same bank-cycle — including the transfer's own issuing
#: core, whose LSU port is a separate requestor from the DMA port.
DMA_REQUESTOR = -1

#: Word size the TCDM banks serve; transfers move whole words.
_WORD = 4


class Direction(Enum):
    """Which way a transfer moves data across the TCDM boundary."""

    #: Backing store (L2 window) -> TCDM: input staging.
    READ = "read"
    #: TCDM -> backing store: output write-back (drain).
    WRITE = "write"


@dataclass(frozen=True)
class Transfer:
    """Record of one queued transfer (for reports and tests)."""

    core_id: int
    dst: int
    src: int
    nbytes: int
    issue: int
    begin: int
    done: int
    direction: Direction = Direction.READ


class TransferEngine:
    """Bandwidth/latency/beat model of one shared transfer engine.

    Args:
        bandwidth: Sustained bytes per beat (one beat per cycle when
            uncontended).
        setup_latency: Fixed cycles per transfer before the first beat
            (descriptor fetch + interconnect traversal).
        tcdm_size: Architectural scratchpad capacity; transfer
            footprints below ``window_base`` must fit under it.
        window_base: Start of the simulated backing-store (L2) window;
            classifies each transfer's :class:`Direction` and its
            TCDM-side endpoint.
        stream_id: Identity handed to the beat ``arbiter`` (the SoC
            passes the owning cluster's id).
        arbiter: ``(stream_id, nbeats, start) -> done`` granting the
            data beats against a shared resource; ``None`` grants one
            beat per cycle unconditionally.
        extra_latency: Additional fixed cycles before the first beat
            (the SoC's L2 access latency).
        on_complete: Observer invoked with every queued
            :class:`Transfer` (endpoint accounting hooks).
    """

    def __init__(self, bandwidth: int = 8, setup_latency: int = 16,
                 tcdm_size: int | None = None,
                 window_base: int = L2_WINDOW_BASE,
                 stream_id: int = 0,
                 arbiter: Callable[[int, int, int], int] | None = None,
                 extra_latency: int = 0,
                 on_complete: Callable[[Transfer], None] | None = None
                 ) -> None:
        if bandwidth < 1:
            raise ValueError(f"bandwidth must be >= 1, got {bandwidth}")
        self.bandwidth = bandwidth
        self.setup_latency = setup_latency
        self.tcdm_size = tcdm_size
        self.window_base = window_base
        self.stream_id = stream_id
        self.arbiter = arbiter
        self.extra_latency = extra_latency
        self.on_complete = on_complete
        self.transfers: list[Transfer] = []
        self._free_at = 0
        self._core_done: dict[int, int] = {}
        self.bytes_moved = 0
        self.busy_cycles = 0
        #: Per-direction beat/transfer/stall tallies.
        self.stream_stats: dict[Direction, StreamStats] = {
            Direction.READ: StreamStats(),
            Direction.WRITE: StreamStats(),
        }
        self._direction_bytes: dict[Direction, int] = {
            Direction.READ: 0, Direction.WRITE: 0,
        }
        self._tcdm: "BankedTcdm | None" = None
        #: Structured-event sink (repro.obs.ObsSink); None when off.
        self.obs = None
        #: Scope transfer events are emitted under (the owning
        #: cluster), or None until attach_obs wires it.
        self.obs_scope = None

    def attach_obs(self, sink, scope: str) -> None:
        """Emit a slice per transfer into *sink* under *scope*."""
        self.obs = sink
        self.obs_scope = scope if sink is not None else None

    # ------------------------------------------------------------------
    # write-back simulation mode: beat-level TCDM bank claims
    # ------------------------------------------------------------------
    def attach_tcdm(self, tcdm: "BankedTcdm") -> None:
        """Route every beat's TCDM-side endpoint through *tcdm*.

        Once attached, each data beat claims the bank-cycles its
        scratchpad footprint touches (as requestor
        :data:`DMA_REQUESTOR`), so DMA traffic — staging reads and
        write-back drains alike — contends with core accesses in the
        same arbiter that already models core-vs-core conflicts.
        """
        self._tcdm = tcdm

    @property
    def tcdm_attached(self) -> bool:
        return self._tcdm is not None

    # ------------------------------------------------------------------
    def direction_of(self, dst: int, src: int) -> Direction:
        """Classify a transfer by its destination endpoint."""
        del src  # the destination alone decides: drains target the L2
        return Direction.WRITE if dst >= self.window_base \
            else Direction.READ

    def _check_tcdm_bounds(self, addr: int, nbytes: int) -> None:
        """Reject scratchpad-side footprints overrunning the TCDM."""
        if self.tcdm_size is None:
            return
        if addr < self.tcdm_size and addr + nbytes > self.tcdm_size:
            raise MemoryError_(
                f"DMA transfer of {nbytes} bytes at 0x{addr:x} overruns "
                f"the TCDM capacity of 0x{self.tcdm_size:x} bytes"
            )

    def _validate(self, dst: int, src: int, nbytes: int) -> None:
        if nbytes < 0:
            raise MemoryError_(f"negative DMA length {nbytes}")
        if nbytes == 0:
            raise MemoryError_(
                f"zero-length DMA transfer (dst=0x{dst:x}, "
                f"src=0x{src:x}): drop the dma.start instead of "
                f"queueing an empty descriptor"
            )
        if dst % _WORD or src % _WORD or nbytes % _WORD:
            raise MemoryError_(
                f"misaligned DMA transfer (dst=0x{dst:x}, "
                f"src=0x{src:x}, len={nbytes}): endpoints and length "
                f"must be multiples of the {_WORD}-byte TCDM word"
            )
        self._check_tcdm_bounds(dst, nbytes)
        self._check_tcdm_bounds(src, nbytes)

    def _claim_banks(self, core_id: int, addr: int, nbytes: int,
                     start: int) -> int:
        """Claim TCDM bank-cycles for every beat; returns the cycle the
        last beat's banks were granted."""
        claim = self._tcdm.port(core_id, DMA_REQUESTOR)
        bandwidth = self.bandwidth
        t = start
        offset = 0
        while offset < nbytes:
            beat = min(bandwidth, nbytes - offset)
            t = claim(addr + offset, beat, t + 1)
            offset += beat
        return t

    # ------------------------------------------------------------------
    def start(self, core_id: int, dst: int, src: int, nbytes: int,
              now: int) -> int:
        """Queue a transfer issued at *now*; returns its completion cycle."""
        self._validate(dst, src, nbytes)
        direction = self.direction_of(dst, src)
        begin = max(now, self._free_at)
        nbeats = -(-nbytes // self.bandwidth)
        first = begin + self.setup_latency + self.extra_latency
        if self.arbiter is not None:
            done = self.arbiter(self.stream_id, nbeats, first)
            # A transfer with beats cannot finish before its first
            # beat could land; a grant at or before the request cycle
            # means the arbiter is broken (e.g. returned its zero-beat
            # fast path for a real transfer).
            if done <= first:
                raise MemoryError_(
                    f"arbiter granted stream {self.stream_id} "
                    f"completion at cycle {done} for {nbeats} beats "
                    f"requested at cycle {first}: the first beat lands "
                    f"after the request, so done must be > {first}"
                )
        else:
            done = first + nbeats
        if self._tcdm is not None:
            tcdm_addr = src if direction is Direction.WRITE else dst
            if tcdm_addr < self.window_base:
                done = max(done, self._claim_banks(core_id, tcdm_addr,
                                                   nbytes, first))
        duration = done - begin
        self._free_at = done
        self.busy_cycles += duration
        self.bytes_moved += nbytes
        self._direction_bytes[direction] += nbytes
        stats = self.stream_stats[direction]
        stats.grants += nbeats
        stats.transfers += 1
        stats.stall_cycles += max(0, done - (first + nbeats))
        prev = self._core_done.get(core_id, 0)
        self._core_done[core_id] = max(prev, done)
        transfer = Transfer(
            core_id=core_id, dst=dst, src=src, nbytes=nbytes,
            issue=now, begin=begin, done=done, direction=direction,
        )
        self.transfers.append(transfer)
        obs = self.obs
        if obs is not None:
            obs.emit(self.obs_scope, "dma", "dma." + direction.value,
                     begin, duration, "dma",
                     {"core": core_id, "bytes": nbytes,
                      "beats": nbeats,
                      "stall": max(0, done - (first + nbeats))})
        if self.on_complete is not None:
            self.on_complete(transfer)
        return done

    # ------------------------------------------------------------------
    def core_drain_time(self, core_id: int) -> int:
        """Cycle when every transfer started by *core_id* has completed
        (the ``dma.wait`` fence)."""
        return self._core_done.get(core_id, 0)

    @property
    def drain_time(self) -> int:
        """Cycle when the whole engine goes idle."""
        return self._free_at

    @property
    def bytes_read(self) -> int:
        """Bytes staged into the TCDM (backing-store reads)."""
        return self._direction_bytes[Direction.READ]

    @property
    def bytes_written(self) -> int:
        """Bytes drained out of the TCDM (backing-store writes)."""
        return self._direction_bytes[Direction.WRITE]
