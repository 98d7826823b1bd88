"""Multi-core cluster simulation: N Machines over shared resources.

A :class:`ClusterMachine` composes N :class:`~repro.sim.machine.Machine`
cores with the shared-resource timing models of this package:

* every core's loads/stores/SSR streams arbitrate through one
  :class:`~repro.cluster.tcdm.BankedTcdm` (bank-conflict stalls),
* ``dma.start``/``dma.wait`` program one shared
  :class:`~repro.cluster.dma.ClusterDma` engine,
* ``cluster.barrier`` parks a core until every active core arrives.

The reference order is the per-op one of :meth:`ClusterMachine.step`:
step the core whose integer issue timeline is furthest behind, so
shared-resource claims line up with the cycles they model.  Runnable
cores sit in a heap keyed ``(int_time, core_id)``; a core parked at a
barrier leaves it but holds the cluster's clock
(:attr:`~ClusterMachine.laggard_time`), and once every unfinished core
is parked the next step releases the barrier.

:meth:`~ClusterMachine.run` keeps that order for every *shared* step
(one that touches the TCDM, the DMA engine, a barrier, memory or an
armed SSR stream) and lets the picked core run its *private* steps
ahead, compiled (:meth:`Scheduler.drain
<repro.sim.scheduler.Scheduler.drain>`).  Before a shared step the
core yields unless the per-op driver would pick it now: its key is the
least in the heap and, inside a SoC, its cluster's key the least too,
one *horizon* its ``int_time`` must stay below.  This is exact: a
private step touches only its own core, so it commutes with every step
of another core, and as keys only grow, the core with the least key
has every earlier step of the others behind it.  A fault in a step
begun at or past the horizon is held until that core's turn.  Cores
take micro-ops and compiled runs from process-wide stores, not from
the cluster (:mod:`repro.sim.decode`, :mod:`repro.sim.blocks`).
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass, field

from ..isa.program import Program
from ..sim.config import CoreConfig
from ..sim.counters import (
    Counters,
    RegionMeasurement,
    RunResult,
    makespan_region,
    sum_counters,
)
from ..sim.machine import Machine, SimulationError
from ..sim.memory import Memory
from ..sim.scheduler import NO_HORIZON
from .config import ClusterConfig
from .dma import ClusterDma
from .tcdm import BankedTcdm


@dataclass
class ClusterRunResult:
    """Aggregate measurements of one cluster simulation.

    Attributes:
        cycles: Cluster makespan — the slowest core's elapsed cycles.
        core_results: Per-core :class:`RunResult`, in core order.
        counters: Field-wise sum of the per-core counters.
        tcdm_accesses: Banked-TCDM grants over the whole run.
        tcdm_conflict_cycles: Total bank-conflict stall cycles.
        tcdm_bank_conflicts: Per-bank conflict cycles.
        dma_bytes: Bytes moved by the shared DMA engine.
        dma_bytes_read: Bytes staged into the TCDM (READ direction).
        dma_bytes_written: Bytes drained out of the TCDM (WRITE
            direction; non-zero only in write-back simulation mode).
        dma_busy_cycles: Cycles the DMA engine was occupied.
        barrier_count: Barrier episodes completed by the cluster.
    """

    cycles: int
    core_results: list[RunResult]
    counters: Counters
    tcdm_accesses: int = 0
    tcdm_conflict_cycles: int = 0
    tcdm_bank_conflicts: list[int] = field(default_factory=list)
    dma_bytes: int = 0
    dma_bytes_read: int = 0
    dma_bytes_written: int = 0
    dma_busy_cycles: int = 0
    barrier_count: int = 0

    @property
    def n_cores(self) -> int:
        return len(self.core_results)

    def region(self, name: str) -> RegionMeasurement:
        """Cluster-level view of a marked region.

        Cycles are the makespan over cores; counters are summed.
        """
        return makespan_region(name, self.core_results, "on any core")


class ClusterMachine:
    """N cores, one banked TCDM, one DMA engine, one barrier tree."""

    def __init__(self, config: ClusterConfig | None = None,
                 core_config: CoreConfig | None = None,
                 dma: ClusterDma | None = None) -> None:
        self.config = config or ClusterConfig()
        self.core_config = core_config or CoreConfig()
        self.tcdm = BankedTcdm(
            n_banks=self.config.tcdm_banks,
            bank_stagger_words=self.config.bank_stagger_words,
            enabled=self.config.model_bank_conflicts,
        )
        # An enclosing SoC passes its own per-cluster DMA channel (same
        # engine model, beats arbitrated by the shared interconnect).
        self.dma = dma if dma is not None else ClusterDma(
            bandwidth=self.config.dma_bandwidth,
            setup_latency=self.config.dma_setup_latency,
            tcdm_size=self.config.tcdm_size,
        )
        if self.config.writeback:
            # Write-back simulation: every DMA beat claims its TCDM
            # bank-cycles, so transfer traffic (staging reads and
            # output drains) contends with core accesses.
            self.dma.attach_tcdm(self.tcdm)
        self.cores: list[Machine] = []
        self._programs: list[Program] = []
        self.barrier_count = 0
        #: Index within an enclosing SocMachine (0 standalone).
        self.cluster_id = 0
        #: Runnable cores as ``(int_time, core_id)``, the next on top.
        self._heap: list[tuple[int, int]] = []
        #: Cores parked at the pending barrier, and their minimum
        #: ``int_time`` (None while none is parked).
        self._parked: list[Machine] = []
        self._parked_time: int | None = None
        self._finished: list[Machine] = []
        self._scheds: list = []
        self._bound = False
        #: Structured-event sink (repro.obs.ObsSink); None when off.
        self.obs = None
        #: Scope this cluster emits under (``soc/cluster{c}`` inside a
        #: SoC, ``cluster0`` standalone).
        self.obs_scope = "cluster0"
        self._tracing = False

    # ------------------------------------------------------------------
    def add_core(self, program: Program, memory: Memory) -> Machine:
        """Register one core running *program* over *memory*.

        Cores may share a ``Memory`` instance (cluster-shared data,
        atomics) or carry private images (partitioned chunks); the
        cluster does not care.  When sharing, set
        ``bank_stagger_words=0`` in the :class:`ClusterConfig` — the
        stagger models private-chunk placement and would otherwise map
        one shared word to different banks per core (see
        :meth:`BankedTcdm.bank_of`).
        """
        if len(self.cores) >= self.config.n_cores:
            raise ValueError(
                f"cluster is configured for {self.config.n_cores} cores"
            )
        machine = Machine(config=self.core_config, memory=memory)
        machine.core_id = len(self.cores)
        machine.tcdm = self.tcdm
        machine.dma = self.dma
        machine.cluster = weakref.proxy(self)
        if self.obs is not None:
            machine.attach_obs(
                self.obs, f"{self.obs_scope}/core{machine.core_id}")
        if self._tracing:
            machine.enable_trace()
        self.cores.append(machine)
        self._programs.append(program)
        return machine

    # ------------------------------------------------------------------
    def attach_obs(self, sink, scope: str = "cluster0") -> None:
        """Observe the whole cluster: cores, TCDM banks, DMA, barriers.

        Cores added later inherit the sink.  Pass ``None`` to detach.
        """
        self.obs = sink
        self.obs_scope = scope
        self.tcdm.obs = sink
        self.tcdm.obs_scope = scope
        self.dma.attach_obs(sink, scope)
        for machine in self.cores:
            machine.attach_obs(sink, f"{scope}/core{machine.core_id}")

    def enable_trace(self) -> list[list]:
        """Record issue events on every core (present and future);
        returns the present cores' event lists (``cores[k].trace`` is
        the live view)."""
        self._tracing = True
        return [machine.enable_trace() for machine in self.cores]

    # ------------------------------------------------------------------
    def _release_barrier(self, waiting: list[Machine],
                         finished: list[Machine]) -> None:
        if finished:
            raise SimulationError(
                f"barrier mismatch: cores "
                f"{sorted(m.core_id for m in waiting)} wait at a barrier "
                f"that cores {sorted(m.core_id for m in finished)} "
                f"exited the program without reaching"
            )
        release = max(m.barrier_arrival for m in waiting) \
            + self.config.barrier_latency
        obs = self.obs
        if obs is not None:
            first = min(m.barrier_arrival for m in waiting)
            obs.emit(self.obs_scope, "barrier", "barrier", first,
                     release - first, "barrier",
                     {"cores": len(waiting),
                      "episode": self.barrier_count})
        for m in waiting:
            m.counters.stall_barrier += release - m.barrier_arrival
            m.int_time = release
            m.fp_time = max(m.fp_time, release)
            m.barrier_wait = False
        self.barrier_count += 1

    def bind(self, max_steps: int = 200_000_000) -> None:
        """Prepare every core for stepwise execution (see :meth:`step`)."""
        if not self.cores:
            raise ValueError("cluster has no cores; call add_core first")
        for machine, program in zip(self.cores, self._programs):
            # Cores share the micro-ops and compiled runs of equal
            # code process-wide (repro.sim.decode, repro.sim.blocks).
            machine.bind(program, max_steps)
        self._scheds = [m.sched for m in self.cores]
        self._heap = [(sched.int_time, k)
                      for k, sched in enumerate(self._scheds)]
        heapq.heapify(self._heap)
        self._parked, self._parked_time, self._finished = [], None, []
        self._bound = True

    @property
    def finished(self) -> bool:
        return self._bound and not self._heap and not self._parked

    @property
    def laggard_time(self) -> int:
        """Issue time of the core furthest behind (the cluster's clock).

        Barrier-parked cores keep their arrival-time clock, which an
        enclosing SoC driver orders on.  A finished cluster reports its
        latest core's issue time.
        """
        parked = self._parked_time
        if self._heap:
            top = self._heap[0][0]
            return top if parked is None or top <= parked else parked
        if parked is not None:
            return parked
        return max((m.sched.int_time for m in self.cores), default=0)

    def step(self, bound: int | None = None) -> bool:
        """Release the pending barrier, or advance the laggard core.

        With no *bound* by one dynamic instruction: the per-op
        reference.  Else the core runs ahead to its horizon (see the
        module docstring); *bound* is the laggard time from which an
        enclosing SoC would step another cluster.  Returns False once
        every core has finished.
        """
        heap = self._heap
        if not heap:
            parked = self._parked
            if not parked:
                return False
            self._release_barrier(parked, self._finished)
            heap[:] = sorted((m.sched.int_time, m.core_id) for m in parked)
            self._parked, self._parked_time = [], None
            return True
        # A step moves only the stepped core's int_time (a release only
        # the parked cores'), so every other key in the heap stays exact.
        k = heap[0][1]
        sched = self._scheds[k]
        if bound is None:
            alive = sched.step()
        else:
            if sched.held is not None:
                raise sched.held[1]
            horizon = runner_up(heap)
            parked = self._parked_time
            if bound < horizon and (parked is None or parked >= bound):
                horizon = bound
            sched.drain(horizon)
            alive = sched.barrier_wait or not sched.finished
        if not alive:
            heapq.heappop(heap)
            self._finished.append(self.cores[k])
        elif sched.barrier_wait:
            heapq.heappop(heap)
            self._parked.append(self.cores[k])
            parked = self._parked_time
            if parked is None or sched.int_time < parked:
                self._parked_time = sched.int_time
        else:
            held = sched.held
            heapq.heapreplace(heap, (held[0] if held else sched.int_time, k))
        return bool(heap or self._parked)

    def result(self) -> ClusterRunResult:
        """Aggregate measurements of everything executed so far."""
        results = [m.result() for m in self.cores]
        return ClusterRunResult(
            cycles=max(r.cycles for r in results),
            core_results=results,
            counters=sum_counters(r.counters for r in results),
            tcdm_accesses=self.tcdm.total_accesses,
            tcdm_conflict_cycles=self.tcdm.total_conflict_cycles,
            tcdm_bank_conflicts=[s.stall_cycles
                                 for s in self.tcdm.stats],
            dma_bytes=self.dma.bytes_moved,
            dma_bytes_read=self.dma.bytes_read,
            dma_bytes_written=self.dma.bytes_written,
            dma_busy_cycles=self.dma.busy_cycles,
            barrier_count=self.barrier_count,
        )

    def run(self, max_steps: int = 200_000_000) -> ClusterRunResult:
        """Run every core to completion and aggregate measurements."""
        self.bind(max_steps)
        while self.step(NO_HORIZON):
            pass
        return self.result()


def runner_up(heap: list) -> int:
    """The least time at which the top ``(time, id)`` entry of *heap*
    no longer orders first (:data:`NO_HORIZON` if nothing follows)."""
    if len(heap) < 2:
        return NO_HORIZON
    time, ident = heap[1] if len(heap) == 2 or heap[1] < heap[2] \
        else heap[2]
    return time + (heap[0][1] < ident)
