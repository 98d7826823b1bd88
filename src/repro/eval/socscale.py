"""SoC-scaling artifact: multi-cluster sweep of every kernel.

For each registered kernel and both variants the sweep chunks a fixed
total problem over several C-cluster x M-core SoC shapes (default
1x4 / 2x4 / 4x4 / 2x8), runs the SoC simulation (shared-L2 interconnect
with beat arbitration, per-cluster DMA channels, globally unique seeds)
and reports the ``main``-region makespan, speedup and parallel
efficiency versus the first swept shape, link contention (beat-stall
cycles), per-cluster DMA fence stalls and SoC power from the layered
energy model.  The 1x4 column reproduces the standalone 4-core cluster
measurement exactly (one cluster, uncontended link).

The sweep is one :class:`~repro.api.Sweep` of every (kernel, variant)
workload over one :class:`~repro.api.SocBackend` per shape, run and
merged by :func:`repro.eval.scaling.sweep_rows`.  The shape list is
overridable per invocation with the artifact-specific ``--clusters``
flag (e.g. ``--clusters 1x4,2x8``).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from ..api import (
    ArtifactRequest,
    ArtifactResult,
    ExtraFlag,
    RunRecord,
    SocBackend,
    Workload,
    artifact,
)
from ..sim import CoreConfig
from ..soc import SocConfig
from .scaling import WRITEBACK_FLAG, scale_payload, sweep_rows

#: Swept (clusters, cores-per-cluster) shapes.
DEFAULT_SHAPES = ((1, 4), (2, 4), (4, 4), (2, 8))


def parse_shapes(text: str) -> tuple[tuple[int, int], ...]:
    """Parse a ``--clusters`` value like ``1x4,2x4,4x4``."""
    shapes = []
    for part in text.split(","):
        pieces = part.strip().split("x")
        try:
            clusters, cores = (int(p) for p in pieces)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"--clusters expects comma-separated CxM shapes "
                f"(e.g. 1x4,2x4), got {part.strip()!r}"
            ) from None
        if clusters < 1 or cores < 1:
            raise argparse.ArgumentTypeError(
                f"--clusters shapes must be >= 1x1, got "
                f"{part.strip()!r}"
            )
        shapes.append((clusters, cores))
    if not shapes:
        raise argparse.ArgumentTypeError("--clusters needs a shape")
    return tuple(shapes)


@dataclass(frozen=True)
class SocScalePoint:
    """One (kernel, variant, SoC-shape) measurement."""

    clusters: int
    cores: int
    cycles: int
    speedup: float        # vs the first swept shape, same variant
    efficiency: float     # speedup normalized by the total-core ratio
    link_stall_cycles: int
    dma_stall_cycles: int
    l2_bytes: int
    power_mw: float
    #: Per-direction engine traffic (populated in write-back mode;
    #: kept out of the default payload so pre-write-back goldens stay
    #: byte-identical).
    dma_bytes_read: int = 0
    dma_bytes_written: int = 0


@dataclass(frozen=True)
class SocScaleRow:
    """One kernel x variant across every swept SoC shape."""

    name: str
    variant: str
    points: tuple[SocScalePoint, ...]

    def point(self, clusters: int, cores: int) -> SocScalePoint:
        for p in self.points:
            if p.clusters == clusters and p.cores == cores:
                return p
        raise KeyError(
            f"no {clusters}x{cores} point for {self.name}")


@dataclass(frozen=True)
class SocScaleData:
    rows: tuple[SocScaleRow, ...]
    n: int
    shapes: tuple[tuple[int, int], ...]
    writeback: bool = False

    def row(self, name: str, variant: str) -> SocScaleRow:
        for r in self.rows:
            if r.name == name and r.variant == variant:
                return r
        raise KeyError(f"no row {name}/{variant}")


def generate(n: int = 4096,
             shapes: tuple[tuple[int, int], ...] = DEFAULT_SHAPES,
             config: SocConfig | None = None,
             core_config: CoreConfig | None = None,
             check: bool = False, jobs: int = 1,
             writeback: bool = False) -> SocScaleData:
    """Run the full SoC scaling sweep.

    Speedups are relative to the first swept shape.  With ``jobs > 1``
    the (kernel x variant x shape) cells are sharded over host
    processes; results are merged in sweep order, so the output is
    identical to a sequential run.  With ``writeback`` the vector
    kernels drain their outputs to the shared L2, the drain beats
    contending on the interconnect and in the TCDM bank arbiters.
    """
    shapes = tuple(shapes)
    backends = [
        SocBackend(clusters=clusters, cores=cores, config=config,
                   core_config=core_config, writeback=writeback)
        for clusters, cores in shapes
    ]

    def point(record: RunRecord, speedup: float,
              efficiency: float) -> SocScalePoint:
        detail = record.soc
        return SocScalePoint(
            clusters=detail.clusters,
            cores=detail.cores_per_cluster,
            cycles=record.cycles,
            speedup=speedup,
            efficiency=efficiency,
            link_stall_cycles=sum(detail.link_stall_cycles),
            dma_stall_cycles=sum(detail.cluster_dma_stall_cycles),
            l2_bytes=detail.l2_bytes_read + detail.l2_bytes_written,
            power_mw=record.power_mw,
            dma_bytes_read=detail.dma_bytes_read,
            dma_bytes_written=detail.dma_bytes_written,
        )

    rows = sweep_rows(n, backends, [c * m for c, m in shapes], point,
                      SocScaleRow, jobs=jobs, check=check)
    return SocScaleData(rows, n=n, shapes=shapes,
                        writeback=writeback)


def render(data: SocScaleData) -> str:
    """Text table: cycles, speedup and link stalls per SoC shape."""
    base = data.shapes[0]
    mode = " with simulated output write-back" if data.writeback else ""
    lines = [
        f"SoC scaling: {data.n} elements/samples over "
        f"{'/'.join(f'{c}x{m}' for c, m in data.shapes)} "
        f"(clusters x cores){mode}",
        f"(speedup vs the {base[0]}x{base[1]} run of the same "
        "variant; S = speedup, E = efficiency)",
    ]
    shape_cols = "".join(
        f" {'S@' + f'{c}x{m}':>8} {'E@' + f'{c}x{m}':>6}"
        for c, m in data.shapes[1:]
    )
    base_label = f"{base[0]}x{base[1]} cyc"
    header = (f"{'Kernel':<18} {'variant':<9} {base_label:>11}"
              f"{shape_cols} {'lnkstl@max':>11} {'mW@max':>7}")
    lines += [header, "-" * len(header)]
    for row in data.rows:
        first = row.points[0]
        cells = "".join(
            f" {p.speedup:>7.2f}x {p.efficiency:>6.2f}"
            for p in row.points[1:]
        )
        last = row.points[-1]
        lines.append(
            f"{row.name:<18} {row.variant:<9} {first.cycles:>11}"
            f"{cells} {last.link_stall_cycles:>11} "
            f"{last.power_mw:>7.1f}"
        )
    max_shape = data.shapes[-1]
    speedups = [r.points[-1].speedup for r in data.rows]
    ideal = max_shape[0] * max_shape[1] / (base[0] * base[1])
    lines.append(
        f"speedup at {max_shape[0]}x{max_shape[1]}: "
        f"min {min(speedups):.2f}x, max {max(speedups):.2f}x "
        f"(ideal {ideal:.2f}x)"
    )
    return "\n".join(lines)


def socscale_payload(data: SocScaleData) -> dict:
    return scale_payload(data, "shapes", [list(s) for s in data.shapes])


def observe_socscale(request: ArtifactRequest) -> tuple:
    """Representative cell for ``--trace``/``--profile``: expf/copift
    on the last swept shape (interconnect, L2 and every cluster)."""
    clusters, cores = request.extra("clusters", DEFAULT_SHAPES)[-1]
    return (Workload("expf", "copift", n=request.effective_n(4096)),
            SocBackend(clusters=clusters, cores=cores,
                       writeback=request.extra("writeback", False)))


@artifact("socscale", sharded=True, order=45, reads=("n",),
          help="multi-cluster SoC scaling of every kernel",
          flags=(ExtraFlag(
              "--clusters",
              help="SoC shapes to sweep, comma-separated CxM "
                   "(clusters x cores; default 1x4,2x4,4x4,2x8)",
              parse=parse_shapes, metavar="C1xM1,C2xM2,..."),
              WRITEBACK_FLAG), observe=observe_socscale)
def socscale_artifact(request: ArtifactRequest) -> ArtifactResult:
    data = generate(n=request.effective_n(4096),
                    shapes=request.extra("clusters", DEFAULT_SHAPES),
                    jobs=request.jobs,
                    writeback=request.extra("writeback", False))
    return ArtifactResult("socscale", render(data),
                          socscale_payload(data))
