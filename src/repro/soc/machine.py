"""Multi-cluster SoC simulation: C ClusterMachines over a shared L2.

A :class:`SocMachine` composes C :class:`~repro.cluster.machine.
ClusterMachine` clusters with the SoC-level shared resources of this
package:

* every cluster's DMA transfers move their beats through one
  :class:`~repro.soc.interconnect.SocInterconnect` (bandwidth-limited
  link to the L2, round-robin beat arbitration, per-link stats),
* staged data lives in one shared :class:`~repro.soc.l2.L2Memory`
  (capacity enforcement, read/write traffic accounting).

Execution follows the cluster layer one level up: the per-op order
steps the *cluster* whose laggard core is furthest behind, keyed
``(laggard_time, cluster_id)`` in a heap, and that cluster steps its
laggard core; barrier-parked cores hold their cluster's clock.
:meth:`SocMachine.run` keeps that order for every shared step, which is
all the interconnect and the L2 see, while the picked core runs its
private steps ahead (see :mod:`repro.cluster.machine` for why that is
exact).  With a single cluster and the default (uncontended)
interconnect the composition is cycle-identical to a bare
``ClusterMachine``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from ..cluster.machine import ClusterMachine, ClusterRunResult, runner_up
from ..mem import L2_WINDOW_BASE, Transfer, TransferEngine
from ..sim.config import CoreConfig
from ..sim.counters import (
    Counters,
    RegionMeasurement,
    makespan_region,
    sum_counters,
)
from .config import SocConfig
from .interconnect import SocInterconnect
from .l2 import L2Memory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.config import ClusterConfig


class SocDmaChannel(TransferEngine):
    """One cluster's DMA engine with its beats arbitrated SoC-wide.

    The SoC *configuration* of the unified
    :class:`~repro.mem.TransferEngine` — the same engine model as
    :class:`~repro.cluster.dma.ClusterDma` (program-order transfers,
    per-transfer setup latency, ``bandwidth`` bytes per beat), wired
    to the SoC's shared resources through the engine's hooks instead
    of overriding any timing logic:

    * the beat ``arbiter`` is :meth:`SocInterconnect.transfer`, so
      data beats are granted by the shared link instead of landing
      unconditionally one per cycle — contention from other clusters
      stretches the transfer, and ``dma.wait`` fences charge the
      stretch to the waiting core's ``stall_dma``;
    * the ``on_complete`` hook tallies L2-window endpoints against the
      shared :class:`L2Memory`;
    * ``extra_latency`` carries the configured L2 access latency.
    """

    def __init__(self, cluster_id: int, interconnect: SocInterconnect,
                 l2: L2Memory | None = None,
                 l2_latency: int = 0,
                 l2_window_base: int = L2_WINDOW_BASE,
                 **kwargs) -> None:
        # l2_latency / l2_window_base live on as the engine's
        # extra_latency / window_base — single storage, so endpoint
        # classification and direction accounting can never diverge.
        super().__init__(stream_id=cluster_id,
                         arbiter=interconnect.transfer,
                         extra_latency=l2_latency,
                         window_base=l2_window_base,
                         on_complete=None if l2 is None else partial(
                             _note_l2, l2, interconnect, l2_window_base,
                             cluster_id),
                         **kwargs)
        self.cluster_id = cluster_id
        self.interconnect = interconnect
        self.l2 = l2


def _note_l2(l2: L2Memory, interconnect: SocInterconnect, window_base: int,
             cluster_id: int, transfer: Transfer) -> None:
    """Tally a transfer's L2-window endpoints on the shared *l2* (bound
    by value, so a channel holds no reference cycle through its hook)."""
    obs = interconnect.obs
    for addr, note, name in ((transfer.src, l2.note_read, "read"),
                             (transfer.dst, l2.note_write, "write")):
        if addr >= window_base:
            note(transfer.nbytes)
            if obs is not None:
                obs.emit(interconnect.obs_scope, "l2", "l2." + name,
                         transfer.done, 0, "l2",
                         {"bytes": transfer.nbytes, "cluster": cluster_id})


@dataclass
class SocRunResult:
    """Aggregate measurements of one SoC simulation.

    Attributes:
        cycles: SoC makespan — the slowest cluster's elapsed cycles.
        cluster_results: Per-cluster :class:`ClusterRunResult`, in
            cluster order.
        counters: Field-wise sum of the per-cluster counters.
        link_beats: Per-cluster beats granted over the L2 link.
        link_stall_cycles: Per-cluster beat-arbitration stall cycles.
        l2_bytes_read: Bytes the DMA channels read from the L2 window.
        l2_bytes_written: Bytes written to the L2 window.
        dma_bytes: Bytes moved by all cluster DMA channels.
        dma_bytes_read: Bytes staged into the TCDMs (READ direction).
        dma_bytes_written: Bytes drained out of the TCDMs (WRITE
            direction; non-zero only in write-back simulation mode).
        dma_busy_cycles: Summed busy cycles of all DMA channels.
        barrier_count: Barrier episodes across every cluster.
    """

    cycles: int
    cluster_results: list[ClusterRunResult]
    counters: Counters
    link_beats: list[int] = field(default_factory=list)
    link_stall_cycles: list[int] = field(default_factory=list)
    l2_bytes_read: int = 0
    l2_bytes_written: int = 0
    dma_bytes: int = 0
    dma_bytes_read: int = 0
    dma_bytes_written: int = 0
    dma_busy_cycles: int = 0
    barrier_count: int = 0

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_results)

    @property
    def cluster_cycles(self) -> list[int]:
        return [r.cycles for r in self.cluster_results]

    @property
    def cluster_dma_stall_cycles(self) -> list[int]:
        """Per-cluster ``dma.wait`` fence stalls (link contention shows
        up here: stretched transfers push the fences out)."""
        return [r.counters.stall_dma for r in self.cluster_results]

    def region(self, name: str) -> RegionMeasurement:
        """SoC-level view of a marked region (makespan + summed
        counters), mirroring :meth:`ClusterRunResult.region`."""
        return makespan_region(name, self.cluster_results,
                               "in any cluster")


class SocMachine:
    """C clusters, one shared L2, one beat-arbitrated interconnect."""

    def __init__(self, config: SocConfig | None = None,
                 core_config: CoreConfig | None = None) -> None:
        self.config = config or SocConfig()
        self.core_config = core_config
        self.interconnect = SocInterconnect(
            n_clusters=self.config.n_clusters,
            link_beats_per_cycle=self.config.link_beats_per_cycle,
            max_beats_per_cluster=self.config.max_beats_per_cluster,
            enabled=self.config.model_contention,
        )
        self.l2 = L2Memory(self.config.l2_size)
        self.clusters: list[ClusterMachine] = []
        #: Structured-event sink (repro.obs.ObsSink); None when off.
        self.obs = None
        #: Scope this SoC emits under (root of the hierarchy).
        self.obs_scope = "soc"
        self._tracing = False

    # ------------------------------------------------------------------
    def attach_obs(self, sink, scope: str = "soc") -> None:
        """Observe the whole SoC: interconnect links, L2 traffic and
        every cluster (present and future) with its cores, banks and
        DMA channel.  Pass ``None`` to detach."""
        self.obs = self.interconnect.obs = sink
        self.obs_scope = self.interconnect.obs_scope = scope
        for cluster in self.clusters:
            cluster.attach_obs(sink, f"{scope}/cluster{cluster.cluster_id}")

    def enable_trace(self) -> list[list[list]]:
        """Record issue events on every core of every cluster (present
        and future); returns the per-cluster, per-core event lists."""
        self._tracing = True
        return [cluster.enable_trace() for cluster in self.clusters]

    # ------------------------------------------------------------------
    def add_cluster(self, cluster_config: "ClusterConfig | None" = None
                    ) -> ClusterMachine:
        """Create and register the next cluster.

        Cores are added to the returned :class:`ClusterMachine` exactly
        as in a standalone cluster; its DMA engine is already a
        :class:`SocDmaChannel` wired to this SoC's interconnect/L2.
        """
        if len(self.clusters) >= self.config.n_clusters:
            raise ValueError(f"SoC is configured for "
                             f"{self.config.n_clusters} clusters")
        cc = cluster_config or self.config.cluster
        cluster_id = len(self.clusters)
        channel = SocDmaChannel(
            cluster_id=cluster_id,
            interconnect=self.interconnect,
            l2=self.l2,
            l2_latency=self.config.l2_latency,
            bandwidth=cc.dma_bandwidth,
            setup_latency=cc.dma_setup_latency,
            tcdm_size=cc.tcdm_size,
        )
        cluster = ClusterMachine(config=cc,
                                 core_config=self.core_config,
                                 dma=channel)
        cluster.cluster_id = cluster_id
        if self.obs is not None:
            cluster.attach_obs(self.obs,
                               f"{self.obs_scope}/cluster{cluster_id}")
        if self._tracing:
            cluster.enable_trace()
        self.clusters.append(cluster)
        return cluster

    # ------------------------------------------------------------------
    def run(self, max_steps: int = 200_000_000) -> SocRunResult:
        """Run every cluster to completion and aggregate measurements."""
        if not self.clusters:
            raise ValueError("SoC has no clusters; call add_cluster first")
        clusters = self.clusters
        for cluster in clusters:
            cluster.bind(max_steps)
        heap = [(c.laggard_time, c.cluster_id) for c in clusters]
        heapq.heapify(heap)
        while heap:
            c = heap[0][1]
            cluster = clusters[c]
            if cluster.step(runner_up(heap)):
                heapq.heapreplace(heap, (cluster.laggard_time, c))
            else:
                heapq.heappop(heap)
        return self.result()

    def result(self) -> SocRunResult:
        """Aggregate measurements of everything executed so far."""
        results = [c.result() for c in self.clusters]
        stats = self.interconnect.stats
        return SocRunResult(
            cycles=max(r.cycles for r in results),
            cluster_results=results,
            counters=sum_counters(r.counters for r in results),
            link_beats=[s.grants for s in stats],
            link_stall_cycles=[s.stall_cycles for s in stats],
            l2_bytes_read=self.l2.bytes_read,
            l2_bytes_written=self.l2.bytes_written,
            dma_bytes=sum(r.dma_bytes for r in results),
            dma_bytes_read=sum(r.dma_bytes_read for r in results),
            dma_bytes_written=sum(r.dma_bytes_written
                                  for r in results),
            dma_busy_cycles=sum(r.dma_busy_cycles for r in results),
            barrier_count=sum(r.barrier_count for r in results),
        )
