"""Cluster DMA engine: L2 <-> TCDM tile transfers with real timing.

One engine per cluster, shared by all cores.  A transfer programmed with
``dma.start dst, src, len`` occupies the engine for ``setup_latency +
ceil(len / bandwidth)`` cycles; transfers are serviced in program order
(single physical engine, one outstanding burst at a time — queueing a
transfer while another is in flight is precisely what double-buffering
exploits).  Completion times feed the cores' memory-RAW publication
machinery, so compute naturally overlaps in-flight transfers and stalls
only when it outruns them.

All of that behaviour lives in the unified
:class:`~repro.mem.TransferEngine`; :class:`ClusterDma` is the
cluster-level *configuration* of it — standalone-cluster defaults, no
beat arbiter (the cluster's link to its L2 window is uncontended), no
endpoint hooks.  An enclosing SoC swaps in
:class:`~repro.soc.machine.SocDmaChannel`, the same engine wired to
the shared interconnect and L2.
"""

from __future__ import annotations

from ..mem import TransferEngine


class ClusterDma(TransferEngine):
    """The shared cluster DMA engine: a bare, uncontended
    :class:`~repro.mem.TransferEngine`."""

    def __init__(self, bandwidth: int = 8, setup_latency: int = 16,
                 tcdm_size: int | None = None) -> None:
        super().__init__(bandwidth=bandwidth,
                         setup_latency=setup_latency,
                         tcdm_size=tcdm_size)
