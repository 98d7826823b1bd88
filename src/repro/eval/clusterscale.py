"""Cluster-scaling artifact: 1/2/4/8-core sweep of every kernel.

For each registered kernel and both variants the sweep statically chunks
a fixed total problem over 1, 2, 4 and 8 cores (`repro.cluster`), runs
the cluster simulation (banked-TCDM arbitration, DMA-staged inputs for
the vector kernels, trailing barrier) and reports the makespan of the
``main`` region, the speedup and parallel efficiency versus the 1-core
run, bank-conflict stalls, and cluster power from the extended energy
model.  The 1-core column reproduces the single-``Machine`` measurement
exactly (same program, same memory image).

The sweep is one :class:`~repro.api.Sweep` of every (kernel, variant)
workload over one :class:`~repro.api.ClusterBackend` per core count,
run and merged by :func:`repro.eval.scaling.sweep_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..api import (
    ArtifactRequest,
    ArtifactResult,
    ClusterBackend,
    ExtraFlag,
    RunRecord,
    Sweep,
    Workload,
    artifact,
)
from ..cluster import ClusterConfig
from ..kernels.registry import KERNELS
from ..sim import CoreConfig
from .scaling import WRITEBACK_FLAG, parse_onoff, scale_payload, sweep_rows

DEFAULT_CORES = (1, 2, 4, 8)

#: Per-core TCDM placement offsets swept by ``--layout-search``.
#: 0 is the pathological all-cores-on-one-bank layout; the default
#: :class:`~repro.cluster.ClusterConfig` ships 2.
LAYOUT_STAGGERS = (0, 1, 2, 4, 8)


@dataclass(frozen=True)
class ScalePoint:
    """One (kernel, variant, core-count) measurement."""

    cores: int
    cycles: int
    speedup: float        # vs the smallest swept count, same variant
    efficiency: float     # speedup normalized by the core-count ratio
    tcdm_conflict_cycles: int
    dma_bytes: int
    barrier_count: int
    power_mw: float
    #: Per-direction engine traffic (populated in write-back mode;
    #: kept out of the default payload so pre-write-back goldens stay
    #: byte-identical).
    dma_bytes_read: int = 0
    dma_bytes_written: int = 0


@dataclass(frozen=True)
class ScaleRow:
    """One kernel x variant across every swept core count."""

    name: str
    variant: str
    points: tuple[ScalePoint, ...]

    def point(self, cores: int) -> ScalePoint:
        for p in self.points:
            if p.cores == cores:
                return p
        raise KeyError(f"no {cores}-core point for {self.name}")


@dataclass(frozen=True)
class LayoutPoint:
    """One bank-stagger setting of a kernel's layout search."""

    stagger: int
    cycles: int
    tcdm_conflict_cycles: int


@dataclass(frozen=True)
class LayoutRow:
    """One kernel's ``bank_stagger_words`` sweep (copift, max cores).

    ``best`` is the lowest-cycle setting; ties break toward the
    smaller stagger (denser physical placement for equal makespan).
    """

    name: str
    points: tuple[LayoutPoint, ...]

    @property
    def best(self) -> LayoutPoint:
        return min(self.points, key=lambda p: (p.cycles, p.stagger))


@dataclass(frozen=True)
class ClusterScaleData:
    rows: tuple[ScaleRow, ...]
    n: int
    cores: tuple[int, ...]
    writeback: bool = False
    #: Populated by ``--layout-search`` only, so default payloads stay
    #: byte-identical to pre-search goldens.
    layout: tuple[LayoutRow, ...] | None = None

    def row(self, name: str, variant: str) -> ScaleRow:
        for r in self.rows:
            if r.name == name and r.variant == variant:
                return r
        raise KeyError(f"no row {name}/{variant}")


def layout_search(n: int, cores: int, base_config: ClusterConfig,
                  core_config: CoreConfig | None = None,
                  jobs: int = 1,
                  staggers: tuple[int, ...] = LAYOUT_STAGGERS
                  ) -> tuple[LayoutRow, ...]:
    """Sweep ``bank_stagger_words`` per kernel at a fixed core count.

    One :class:`Sweep` of every kernel's copift variant (the layout-
    sensitive one: vector loads hit the banks hardest) over one
    :class:`ClusterBackend` per stagger setting; the merger picks each
    kernel's best setting.  Cells are independent simulations, so the
    search shards under ``jobs`` like the main sweep.
    """
    staggers = tuple(dict.fromkeys(staggers))
    workloads = [Workload(kernel_def.name, "copift", n=n)
                 for kernel_def in KERNELS.values()]
    backends = [
        ClusterBackend(cores=cores,
                       config=replace(base_config,
                                      bank_stagger_words=stagger),
                       core_config=core_config)
        for stagger in staggers
    ]
    sweep = Sweep(workloads, backends=backends)
    measured = iter(sweep.run(jobs=jobs))
    rows = []
    for kernel_def in KERNELS.values():
        points = []
        for stagger in staggers:
            record: RunRecord = next(measured)
            points.append(LayoutPoint(
                stagger=stagger,
                cycles=record.cycles,
                tcdm_conflict_cycles=(
                    record.cluster.tcdm_conflict_cycles),
            ))
        rows.append(LayoutRow(kernel_def.name, tuple(points)))
    return tuple(rows)


def generate(n: int = 4096, cores: tuple[int, ...] = DEFAULT_CORES,
             config: ClusterConfig | None = None,
             core_config: CoreConfig | None = None,
             check: bool = False, jobs: int = 1,
             writeback: bool = False,
             layout: bool = False) -> ClusterScaleData:
    """Run the full scaling sweep.

    *cores* is normalized to ascending unique counts; speedups are
    relative to the smallest swept count (1 in the default sweep).
    With ``jobs > 1`` the (kernel x variant x core-count) cells are
    sharded over host processes; results are merged in sweep order, so
    the output is identical to a sequential run.  With ``writeback``
    the vector kernels drain their outputs back to L2 through the DMA
    engine and every transfer beat contends in the TCDM bank arbiter.
    ``layout`` appends a :func:`layout_search` over
    ``bank_stagger_words`` at the widest swept core count.
    """
    cores = tuple(sorted(set(cores)))
    base_config = config or ClusterConfig()
    backends = [
        ClusterBackend(cores=n_cores, config=base_config,
                       core_config=core_config, writeback=writeback)
        for n_cores in cores
    ]

    def point(record: RunRecord, speedup: float,
              efficiency: float) -> ScalePoint:
        detail = record.cluster
        return ScalePoint(
            cores=detail.cores,
            cycles=record.cycles,
            speedup=speedup,
            efficiency=efficiency,
            tcdm_conflict_cycles=detail.tcdm_conflict_cycles,
            dma_bytes=detail.dma_bytes,
            barrier_count=detail.barrier_count,
            power_mw=record.power_mw,
            dma_bytes_read=detail.dma_bytes_read,
            dma_bytes_written=detail.dma_bytes_written,
        )

    rows = sweep_rows(n, backends, cores, point, ScaleRow, jobs=jobs,
                      check=check)
    layout_rows = None
    if layout:
        layout_rows = layout_search(n, cores[-1], base_config,
                                    core_config=core_config, jobs=jobs)
    return ClusterScaleData(rows, n=n, cores=cores,
                            writeback=writeback, layout=layout_rows)


def render(data: ClusterScaleData) -> str:
    """Text table: cycles and speedup per core count."""
    base_cores = data.cores[0]
    mode = " with simulated output write-back" if data.writeback else ""
    lines = [
        f"Cluster scaling: {data.n} elements/samples over "
        f"{'/'.join(str(c) for c in data.cores)} cores{mode}",
        f"(speedup vs the {base_cores}-core run of the same variant; "
        "S = speedup, E = efficiency)",
    ]
    cores_cols = "".join(
        f" {'S@' + str(c):>7} {'E@' + str(c):>6}"
        for c in data.cores[1:]
    )
    base_label = f"{base_cores}-core cyc"
    header = (f"{'Kernel':<18} {'variant':<9} {base_label:>11}"
              f"{cores_cols} {'cflt@max':>9} {'mW@max':>7}")
    lines += [header, "-" * len(header)]
    for row in data.rows:
        base = row.points[0]
        cells = "".join(
            f" {p.speedup:>6.2f}x {p.efficiency:>6.2f}"
            for p in row.points[1:]
        )
        last = row.points[-1]
        lines.append(
            f"{row.name:<18} {row.variant:<9} {base.cycles:>11}"
            f"{cells} {last.tcdm_conflict_cycles:>9} "
            f"{last.power_mw:>6.1f}"
        )
    max_cores = data.cores[-1]
    speedups = [r.points[-1].speedup for r in data.rows]
    lines.append(
        f"speedup at {max_cores} cores: min {min(speedups):.2f}x, "
        f"max {max(speedups):.2f}x "
        f"(ideal {max_cores / base_cores:.2f}x)"
    )
    if data.layout is not None:
        staggers = [p.stagger for p in data.layout[0].points]
        lines += [
            "",
            f"TCDM layout search (copift at {max_cores} cores, "
            f"bank_stagger_words in "
            f"{'/'.join(str(s) for s in staggers)}):",
        ]
        header = (f"{'Kernel':<18} {'best':>5} "
                  + "".join(f" {'cyc@' + str(s):>9}" for s in staggers))
        lines += [header, "-" * len(header)]
        for lrow in data.layout:
            cells = "".join(f" {p.cycles:>9}" for p in lrow.points)
            lines.append(
                f"{lrow.name:<18} {lrow.best.stagger:>5} {cells}")
    return "\n".join(lines)


def clusterscale_payload(data: ClusterScaleData) -> dict:
    payload = scale_payload(data, "cores", list(data.cores))
    if data.layout is not None:
        # Rides along only when the search ran, mirroring the
        # write-back fields: default payloads stay golden-stable.
        payload["layout_search"] = {
            "cores": data.cores[-1],
            "staggers": [p.stagger for p in data.layout[0].points],
            "rows": [
                {
                    "kernel": lrow.name,
                    "best_stagger": lrow.best.stagger,
                    "points": [
                        {
                            "stagger": p.stagger,
                            "cycles": p.cycles,
                            "tcdm_conflict_cycles":
                                p.tcdm_conflict_cycles,
                        }
                        for p in lrow.points
                    ],
                }
                for lrow in data.layout
            ],
        }
    return payload


def observe_clusterscale(request: ArtifactRequest) -> tuple:
    """Representative cell for ``--trace``/``--profile``: expf/copift
    on the widest swept cluster (banked TCDM, DMA, barrier)."""
    cores = max(request.effective_cores(DEFAULT_CORES))
    return (Workload("expf", "copift", n=request.effective_n(4096)),
            ClusterBackend(cores=cores,
                           writeback=request.extra("writeback", False)))


LAYOUT_FLAG = ExtraFlag(
    "--layout-search",
    help="sweep the TCDM bank_stagger_words placement per kernel "
         "(copift at the widest swept core count) and report the "
         "best setting alongside the scaling table (default off)",
    parse=parse_onoff, default=False, metavar="on|off",
)


@artifact("clusterscale", sharded=True, order=40,
          help="1/2/4/8-core cluster scaling of every kernel",
          flags=(WRITEBACK_FLAG, LAYOUT_FLAG),
          observe=observe_clusterscale)
def clusterscale_artifact(request: ArtifactRequest) -> ArtifactResult:
    data = generate(n=request.effective_n(4096),
                    cores=request.effective_cores(DEFAULT_CORES),
                    jobs=request.jobs,
                    writeback=request.extra("writeback", False),
                    layout=request.extra("layout_search", False))
    return ArtifactResult("clusterscale", render(data),
                          clusterscale_payload(data))
