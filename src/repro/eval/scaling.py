"""Sweep-and-merge plumbing shared by the two scaling artifacts.

``clusterscale`` and ``socscale`` run the same experiment over
different machines: every kernel x variant on a list of backends,
speedup and parallel efficiency against the first backend, and the
per-direction DMA fields added to the payload only in write-back mode
(so default payloads stay byte-identical to pre-write-back goldens).
This module owns that shape; each artifact supplies its point and row
types.
"""

from __future__ import annotations

import argparse
from dataclasses import fields
from typing import Callable, Sequence

from ..api import VARIANTS, Backend, ExtraFlag, RunRecord, Sweep, Workload
from ..kernels.registry import KERNELS

#: Point fields that ride in the payload only in write-back mode.
WRITEBACK_FIELDS = ("dma_bytes_read", "dma_bytes_written")


def parse_onoff(text: str) -> bool:
    """Parse an ``on``/``off`` flag value."""
    value = text.strip().lower()
    if value in ("on", "1", "true", "yes"):
        return True
    if value in ("off", "0", "false", "no"):
        return False
    raise argparse.ArgumentTypeError(
        f"expected on|off, got {text!r}"
    )


#: Shared by ``clusterscale`` and ``socscale`` (one definition, two
#: owners — the registry accepts identical flags on several artifacts).
WRITEBACK_FLAG = ExtraFlag(
    "--writeback",
    help="simulate output write-back: drain kernel outputs to L2 "
         "through the DMA, contending in the TCDM bank arbiter "
         "(and SoC interconnect) like staging reads (default off)",
    parse=parse_onoff, default=False, metavar="on|off",
)


def sweep_rows(n: int, backends: Sequence[Backend],
               sizes: Sequence[int],
               point: Callable[[RunRecord, float, float], object],
               row: Callable[[str, str, tuple], object],
               jobs: int = 1, check: bool = False) -> tuple:
    """Run every kernel x variant over *backends*, one row per cell.

    *sizes* holds each backend's total core count.  ``point(record,
    speedup, efficiency)`` builds one point, where speedup is against
    the first backend's run of the same variant and efficiency is that
    speedup normalized by the core-count ratio; ``row(kernel, variant,
    points)`` builds one row.  Rows come in registry order, baseline
    before copift, so the result is the same for every *jobs*.
    """
    workloads = [Workload(kernel_def.name, variant, n=n)
                 for kernel_def in KERNELS.values()
                 for variant in VARIANTS]
    sweep = Sweep(workloads, backends=backends)
    measured = iter(sweep.run(jobs=jobs, check=check))
    rows = []
    for workload in workloads:
        points = []
        for size in sizes:
            record = next(measured)
            if not points:
                base_cycles = record.cycles
            speedup = base_cycles / record.cycles
            points.append(point(record, speedup,
                                speedup * sizes[0] / size))
        rows.append(row(workload.kernel, workload.variant,
                        tuple(points)))
    return tuple(rows)


def scale_payload(data, axis: str, axis_value) -> dict:
    """The JSON payload of a scaling sweep's *data*.

    *data* has ``n``, ``rows`` (each with ``name``, ``variant`` and
    dataclass ``points``) and ``writeback``; *axis* names the swept
    machine list (``cores``/``shapes``) and *axis_value* is its JSON.
    """
    def point_json(p) -> dict:
        return {f.name: getattr(p, f.name) for f in fields(p)
                if data.writeback or f.name not in WRITEBACK_FIELDS}

    payload = {
        "n": data.n,
        axis: axis_value,
        "rows": [
            {
                "kernel": row.name,
                "variant": row.variant,
                "points": [point_json(p) for p in row.points],
            }
            for row in data.rows
        ],
    }
    if data.writeback:
        payload["writeback"] = True
    return payload
