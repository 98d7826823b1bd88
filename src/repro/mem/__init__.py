"""Unified memory-traffic subsystem.

One transfer model for every level of the hierarchy:

* :class:`TransferEngine` — the bandwidth/latency/beat engine both
  :class:`~repro.cluster.dma.ClusterDma` and
  :class:`~repro.soc.machine.SocDmaChannel` are thin configurations
  of (beat arbitration and endpoint accounting are pluggable hooks).
* :class:`Direction` / :class:`Transfer` — per-stream READ (input
  staging) vs WRITE (output write-back) classification and the queued
  transfer record.
* :class:`StreamStats` — the shared
  grants/transfers/stalls shape behind the cluster's ``BankStats``
  and the SoC's ``LinkStats``.
"""

from .engine import (
    DMA_REQUESTOR,
    L2_WINDOW_BASE,
    Direction,
    Transfer,
    TransferEngine,
)
from .stats import StreamStats

__all__ = [
    "DMA_REQUESTOR",
    "Direction",
    "L2_WINDOW_BASE",
    "StreamStats",
    "Transfer",
    "TransferEngine",
]
