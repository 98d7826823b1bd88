"""Performance and activity counters.

The timing model increments these as it processes dynamic instructions;
the energy model consumes the activity counts, and the evaluation harness
reads cycles/instruction counts for IPC, speedup and region measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Counters:
    """Aggregate activity of one simulation (or one region snapshot)."""

    #: Integer-thread instructions issued by the integer core.
    int_issued: int = 0
    #: FP instructions dispatched through the core (each occupies one
    #: integer issue slot, but is counted as an instruction only once,
    #: in fp_issued).
    fp_dispatched: int = 0
    #: Dynamic instructions issued by the FPSS (first iterations come
    #: through the dispatch queue; FREP replays from the sequencer).
    fp_issued: int = 0
    #: FP instructions replayed by the FREP sequencer (subset of
    #: fp_issued that never consumed a fetch or an integer issue slot).
    sequencer_issued: int = 0

    # -- stall accounting (integer core) ------------------------------------
    stall_raw_int: int = 0        # waiting on integer operands
    stall_wb_port: int = 0        # integer RF writeback-port conflicts
    stall_queue_full: int = 0     # FPSS dispatch queue backpressure
    stall_branch: int = 0         # taken-branch bubbles
    stall_fp_response: int = 0    # waiting on an FPSS→int result (Type 3)
    stall_mem_raw: int = 0        # load waiting on an in-flight store
    stall_ssr_sync: int = 0       # re-arming an SSR before it drained
    stall_tcdm: int = 0           # TCDM bank-conflict stalls (int LSU)
    stall_barrier: int = 0        # waiting at a cluster hardware barrier
    stall_dma: int = 0            # dma.wait fence stalls

    # -- stall accounting (FPSS) --------------------------------------------
    fp_stall_raw: int = 0         # waiting on FP operands
    fp_stall_ssr: int = 0         # waiting on SSR stream data
    fp_stall_wb_port: int = 0     # FP RF writeback-port conflicts
    fp_stall_tcdm: int = 0        # TCDM bank-conflict stalls (FP/SSR side)

    # -- activity (for the energy model) ------------------------------------
    int_alu_ops: int = 0
    int_mul_ops: int = 0
    int_loads: int = 0
    int_stores: int = 0
    branches: int = 0
    csr_ops: int = 0
    fp_adds: int = 0
    fp_muls: int = 0
    fp_fmas: int = 0
    fp_divs: int = 0
    fp_cmps: int = 0
    fp_cvts: int = 0
    fp_mvs: int = 0
    fp_loads: int = 0
    fp_stores: int = 0
    ssr_reads: int = 0
    ssr_writes: int = 0
    ssr_index_fetches: int = 0
    icache_l0_hits: int = 0
    icache_l0_misses: int = 0
    dma_bytes_moved: int = 0
    dma_transfers: int = 0
    barriers: int = 0
    amo_ops: int = 0

    #: Integer-core stall classes, in declaration order.  The profile
    #: layer (``repro.obs.profile``) attributes cycles bucket-by-bucket
    #: from these tuples, and ``tests/test_obs.py`` cross-checks them
    #: against dataclass-field introspection — a new ``stall_*`` /
    #: ``fp_stall_*`` field that is not added here fails that test
    #: instead of silently missing the profile.
    INT_STALL_FIELDS = (
        "stall_raw_int", "stall_wb_port", "stall_queue_full",
        "stall_branch", "stall_fp_response", "stall_mem_raw",
        "stall_ssr_sync", "stall_tcdm", "stall_barrier", "stall_dma",
    )
    #: FPSS stall classes, in declaration order.
    FP_STALL_FIELDS = (
        "fp_stall_raw", "fp_stall_ssr", "fp_stall_wb_port",
        "fp_stall_tcdm",
    )

    @classmethod
    def int_stall_fields(cls) -> tuple[str, ...]:
        """Integer-core stall counter names (profile sum buckets)."""
        return cls.INT_STALL_FIELDS

    @classmethod
    def fp_stall_fields(cls) -> tuple[str, ...]:
        """FPSS stall counter names (overlapped, not summed)."""
        return cls.FP_STALL_FIELDS

    @classmethod
    def stall_fields(cls) -> tuple[str, ...]:
        """All stall counter names, integer core first."""
        return cls.INT_STALL_FIELDS + cls.FP_STALL_FIELDS

    def total_stalls(self) -> int:
        """Sum of every stall counter on both issue engines."""
        return sum(getattr(self, name) for name in self.stall_fields())

    def copy(self) -> "Counters":
        return Counters(**vars(self))

    def delta(self, earlier: "Counters") -> "Counters":
        """Counters accumulated since *earlier* (field-wise difference)."""
        return Counters(**{
            name: value - getattr(earlier, name)
            for name, value in vars(self).items()
        })

    @property
    def total_issued(self) -> int:
        return self.int_issued + self.fp_issued

    @property
    def tcdm_accesses(self) -> int:
        """All L1 data accesses: explicit loads/stores plus SSR traffic."""
        return (self.int_loads + self.int_stores + self.fp_loads
                + self.fp_stores + self.ssr_reads + self.ssr_writes
                + self.ssr_index_fetches)


@dataclass
class RegionMeasurement:
    """Measurement of a marked program region.

    Attributes:
        name: Region name (from ``mark <name>_start`` / ``_end``).
        cycles: Elapsed cycles, accounting for integer/FP overlap.
        counters: Activity accumulated inside the region.
    """

    name: str
    cycles: int
    counters: Counters

    @property
    def ipc(self) -> float:
        """Instructions per cycle over both issue engines."""
        if self.cycles == 0:
            return 0.0
        return self.counters.total_issued / self.cycles


def sum_counters(parts) -> Counters:
    """Field-wise sum of several :class:`Counters`."""
    total = Counters()
    for part in parts:
        for name, value in vars(part).items():
            setattr(total, name, getattr(total, name) + value)
    return total


def makespan_region(name: str, results, where: str) -> RegionMeasurement:
    """Hierarchy-level view of region *name* over several results.

    Cycles are the *makespan* (max over the parts that ran the region —
    parts enter a region together modulo skew); counters are summed.
    *where* completes the error raised when no part ran the region.
    """
    parts = []
    for result in results:
        try:
            parts.append(result.region(name))
        except KeyError:
            continue
    if not parts:
        raise KeyError(f"no region {name!r} {where}")
    return RegionMeasurement(
        name,
        max(p.cycles for p in parts),
        sum_counters(p.counters for p in parts),
    )


@dataclass
class RunResult:
    """Result of one complete program simulation."""

    cycles: int
    counters: Counters
    regions: dict[str, RegionMeasurement] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.counters.total_issued / self.cycles

    def region(self, name: str) -> RegionMeasurement:
        try:
            return self.regions[name]
        except KeyError:
            raise KeyError(
                f"no region {name!r}; available: {sorted(self.regions)}"
            ) from None
