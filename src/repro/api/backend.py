"""Execution backends: where a workload runs.

A backend turns a :class:`~repro.api.workload.Workload` into a
:class:`~repro.api.record.RunRecord`.  Three implementations exist:

* :class:`CoreBackend` — one bare Snitch-like ``Machine`` (the paper's
  single-core measurements, Figures 2-3).
* :class:`ClusterBackend` — an N-core cluster via
  :func:`repro.cluster.partition_kernel` (banked TCDM, DMA staging,
  trailing barrier; the ``clusterscale`` artifact).
* :class:`SocBackend` — a C-cluster x M-core SoC via
  :func:`repro.soc.partition_soc_kernel` (shared L2 behind a
  beat-arbitrated interconnect; the ``socscale`` artifact).

Backends are named by **spec strings** — ``"core"``, ``"cluster:4"``,
``"soc:2x4"``, with a ``+wb`` suffix selecting output write-back
simulation (``"cluster:4+wb"``) — so CLIs, configs and sweep
definitions can all select
them uniformly through :func:`parse_backend`; the accepted spec forms
are enumerated by :func:`backend_spec_forms`, which is derived from
the same parser table :func:`parse_backend` dispatches on (so error
messages can never fall out of sync with what actually parses).  All
implementations are frozen, picklable dataclasses, so sweep cells can
carry them into worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

from ..cluster import ClusterConfig, partition_kernel
from ..energy import (
    ClusterEnergyModel,
    EnergyModel,
    PowerReport,
    SocEnergyModel,
)
from ..kernels.common import MAIN_REGION, KernelInstance
from ..obs import ObsSink, aggregate_profile, core_profile
from ..sim import CoreConfig
from ..soc import SocConfig, partition_soc_kernel, soc_config_for
from .record import ClusterDetail, RunRecord, SocDetail
from .workload import Workload


@runtime_checkable
class Backend(Protocol):
    """Anything that can run a workload and produce a RunRecord."""

    @property
    def spec(self) -> str:
        """The canonical spec string naming this backend."""
        ...

    def run(self, workload: Workload, check: bool = False,
            obs=None) -> RunRecord:
        """Simulate *workload*; optionally verify kernel results.

        *obs* is the observability knob: ``None`` (default) runs
        without instrumentation, any truthy value embeds the
        cycle-attribution profile in the record, and an
        :class:`repro.obs.ObsSink` additionally collects the run's
        structured events into that sink.
        """
        ...

    def validate(self, workload: Workload) -> None:
        """Raise ``ValueError`` if *workload* cannot run here, or
        :class:`~repro.sim.memory.MemoryError_` if its data does not
        fit a core's memory.

        Builds (or partitions) the workload without simulating it, so
        a sweep can reject bad cells before any cell runs.  Kernel
        builders reserve their arrays before drawing inputs, so an
        oversized *n* fails without allocating them.
        """
        ...


def _obs_sink(obs) -> ObsSink | None:
    """The event sink behind the ``obs`` knob (None for bare truthy)."""
    return obs if isinstance(obs, ObsSink) else None


def _region_record(kernel: str, variant: str, n: int, block: int | None,
                   backend: str, region, total_cycles: int,
                   power: PowerReport, **extra) -> RunRecord:
    """A RunRecord of *region*: its cycles, issue counts and counters.

    *extra* fills the optional fields (seed, profile, layer detail).
    """
    counters = region.counters
    return RunRecord(
        kernel=kernel, variant=variant, n=n, block=block,
        backend=backend, cycles=region.cycles,
        total_cycles=total_cycles,
        int_instructions=counters.int_issued,
        fp_instructions=counters.fp_issued,
        ipc=region.ipc, counters=dict(vars(counters)), power=power,
        **extra,
    )


def record_from_result(instance: KernelInstance, result,
                       energy_model: EnergyModel | None = None,
                       seed: int | None = None,
                       profile=None) -> RunRecord:
    """Price and package an already-computed bare-core RunResult.

    The measurement tail shared by the scalar path
    (:func:`record_from_instance`) and the batch engine
    (:func:`repro.api.batchrun.run_batch_cells`): main-region
    cycles/counters, IPC, and the energy model priced on the kernel's
    conceptual DMA traffic.  Because the record is a pure function of
    *result* and the instance's static metadata, scalar and batch
    records are byte-identical whenever their RunResults are.
    """
    model = energy_model or EnergyModel()
    region = result.region(MAIN_REGION)
    power = model.report(
        region.counters, region.cycles,
        dma_active=instance.dma_active,
        dma_bytes=instance.dma_bytes,
    )
    return _region_record(instance.name, instance.variant, instance.n,
                          instance.block, "core", region, result.cycles,
                          power, seed=seed, profile=profile)


def record_from_instance(instance: KernelInstance,
                         config: CoreConfig | None = None,
                         energy_model: EnergyModel | None = None,
                         check: bool = True,
                         seed: int | None = None,
                         obs=None) -> RunRecord:
    """Run an already-built instance on a bare core, as a RunRecord.

    The bare-core measurement path behind :class:`CoreBackend`.  See
    :meth:`Backend.run` for the ``obs`` knob.
    """
    result, _ = instance.run(config=config, check=check,
                             obs=_obs_sink(obs))
    profile = core_profile(
        "core", result.region(MAIN_REGION)).to_json() if obs else None
    return record_from_result(instance, result,
                              energy_model=energy_model, seed=seed,
                              profile=profile)


@dataclass(frozen=True)
class CoreBackend:
    """A single bare core (no cluster interconnect)."""

    config: CoreConfig | None = None
    energy_model: EnergyModel | None = field(default=None, compare=False)

    @property
    def spec(self) -> str:
        return "core"

    def validate(self, workload: Workload) -> None:
        workload.build()

    def run(self, workload: Workload, check: bool = False,
            obs=None) -> RunRecord:
        return record_from_instance(
            workload.build(), config=self.config,
            energy_model=self.energy_model, check=check,
            seed=workload.seed, obs=obs,
        )


def price_cluster(result, workload, cycles: int, dma_active: bool,
                  descriptors: str | None = None) -> PowerReport:
    """Price one cluster's main-region activity over *cycles*.

    *result* is the :class:`~repro.cluster.ClusterRunResult` of
    *workload* (a :class:`~repro.cluster.ClusterWorkload`).  With
    write-back off, DMA energy is priced on the kernels' *conceptual*
    traffic (input staging + output drain), exactly as the single-core
    energy model prices the same instances — the engine's measured
    bytes cover only the staged inputs, which would make the 1-core
    power column disagree with Fig. 2.  With write-back on, the drain
    *is* simulated, so the engine's beat-accurate byte count is the
    authoritative activity.  DMA descriptors are counted over region
    *descriptors*, or over the whole run when it is None.  The bank
    count is the cluster's own (one conflict tally per bank).
    """
    if workload.writeback:
        dma_bytes = result.dma_bytes
    else:
        dma_bytes = sum(i.dma_bytes for i in workload.instances)
    transfers = result.counters if descriptors is None \
        else result.region(descriptors).counters
    return ClusterEnergyModel().report(
        result.region(MAIN_REGION).counters, cycles, workload.n_cores,
        n_banks=len(result.tcdm_bank_conflicts),
        tcdm_accesses=result.tcdm_accesses,
        tcdm_conflict_cycles=result.tcdm_conflict_cycles,
        dma_bytes=dma_bytes,
        dma_transfers=transfers.dma_transfers,
        barriers=result.barrier_count,
        dma_active=dma_active,
    )


def _cluster_profile(scope: str, cluster_result):
    """Profile a ClusterRunResult: per-core leaves under one node."""
    children = [
        core_profile(f"{scope}/core{k}", r.region(MAIN_REGION))
        for k, r in enumerate(cluster_result.core_results)
    ]
    return aggregate_profile(scope, children)


class _PartitionedBackend:
    """The run, price and record tail shared by cluster and SoC backends.

    A subclass states how its layer differs as data — :attr:`layer`
    names it in errors and :attr:`descriptor_region` is the region its
    DMA descriptors are priced over (``None``: the whole run) — and
    through five small hooks: ``_partition`` (the partitioned workload
    and the machine config it runs on), ``_clusters`` (each cluster's
    result beside its workload), ``_power`` (the per-cluster reports
    combined), ``_detail`` (the record's layer detail) and ``_profile``.
    """

    layer = ""
    descriptor_region: str | None = None

    def validate(self, workload: Workload) -> None:
        self._prepare(workload)

    def _prepare(self, workload: Workload) -> tuple:
        if workload.seed is not None:
            raise ValueError(
                f"{self.layer} backends derive per-core seeds from the "
                f"partitioner; build the workload with seed=None"
            )
        return self._partition(workload)

    def run(self, workload: Workload, check: bool = False,
            obs=None) -> RunRecord:
        parted, config = self._prepare(workload)
        result = parted.run(config=config,
                            core_config=self.core_config, check=check,
                            obs=_obs_sink(obs))
        region = result.region(MAIN_REGION)
        # Every cluster is priced over the whole makespan: it is
        # powered for the whole region.
        dma_active = any(i.dma_active for i in parted.instances)
        reports = [price_cluster(cluster_result, cluster_workload,
                                 region.cycles, dma_active,
                                 descriptors=self.descriptor_region)
                   for cluster_result, cluster_workload
                   in self._clusters(parted, result)]
        return _region_record(
            workload.kernel, workload.variant, workload.n, parted.block,
            self.spec, region, result.cycles,
            self._power(reports, region.cycles, result),
            profile=self._profile(result).to_json() if obs else None,
            **self._detail(result),
        )


@dataclass(frozen=True)
class ClusterBackend(_PartitionedBackend):
    """An N-core cluster; the workload is statically chunked over it."""

    cores: int = 8
    config: ClusterConfig | None = None
    core_config: CoreConfig | None = None
    #: Simulate output write-back (spec suffix ``+wb``): outputs drain
    #: to L2 through the DMA after the main region, DMA beats contend
    #: in the TCDM bank arbiter, and the energy model prices the
    #: engine's *measured* bytes instead of the kernels' conceptual
    #: traffic.
    writeback: bool = False

    layer = "cluster"

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")

    @property
    def spec(self) -> str:
        suffix = "+wb" if self.writeback else ""
        return f"cluster:{self.cores}{suffix}"

    def _partition(self, workload: Workload) -> tuple:
        # ClusterWorkload.run resizes config.n_cores to the partition.
        parted = partition_kernel(
            workload.kernel_def, workload.n, self.cores,
            variant=workload.variant, block=workload.block,
            writeback=self.writeback,
        )
        return parted, self.config or ClusterConfig()

    def _clusters(self, parted, result) -> list[tuple]:
        return [(result, parted)]

    def _power(self, reports: list[PowerReport], cycles: int,
               result) -> PowerReport:
        return reports[0]

    def _detail(self, result) -> dict:
        return {"cluster": ClusterDetail(
            cores=self.cores,
            tcdm_accesses=result.tcdm_accesses,
            tcdm_conflict_cycles=result.tcdm_conflict_cycles,
            tcdm_bank_conflicts=tuple(result.tcdm_bank_conflicts),
            dma_bytes=result.dma_bytes,
            dma_bytes_read=result.dma_bytes_read,
            dma_bytes_written=result.dma_bytes_written,
            dma_busy_cycles=result.dma_busy_cycles,
            barrier_count=result.barrier_count,
            core_cycles=tuple(r.cycles for r in result.core_results),
            writeback=self.writeback,
        )}

    def _profile(self, result):
        return _cluster_profile("cluster0", result)


@dataclass(frozen=True)
class SocBackend(_PartitionedBackend):
    """A C-cluster x M-core SoC sharing one L2 over the interconnect."""

    # Defaults mirror SocConfig/ClusterConfig (2 clusters of 8 cores),
    # so SocBackend() and parse_backend("soc") build the same machine.
    clusters: int = 2
    cores: int = 8
    config: SocConfig | None = None
    core_config: CoreConfig | None = None
    #: Simulate output write-back (spec suffix ``+wb``): outputs drain
    #: to the shared L2, drain beats contend on the interconnect and
    #: in the TCDM bank arbiters, and DMA energy prices the channels'
    #: measured bytes.
    writeback: bool = False

    layer = "SoC"
    #: DMA descriptors are priced over the main region only; the
    #: cluster backend prices the whole run's, staging prologue
    #: included.
    descriptor_region = MAIN_REGION

    def __post_init__(self) -> None:
        if self.clusters < 1:
            raise ValueError(
                f"clusters must be >= 1, got {self.clusters}")
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")

    @property
    def spec(self) -> str:
        suffix = "+wb" if self.writeback else ""
        return f"soc:{self.clusters}x{self.cores}{suffix}"

    def _partition(self, workload: Workload) -> tuple:
        parted = partition_soc_kernel(
            workload.kernel_def, workload.n, self.clusters, self.cores,
            variant=workload.variant, block=workload.block,
            writeback=self.writeback,
        )
        return parted, soc_config_for(parted, base=self.config)

    def _clusters(self, parted, result) -> list[tuple]:
        return list(zip(result.cluster_results,
                        parted.cluster_workloads))

    def _power(self, reports: list[PowerReport], cycles: int,
               result) -> PowerReport:
        return SocEnergyModel().report(
            reports, cycles,
            link_beats=sum(result.link_beats),
            link_stall_cycles=sum(result.link_stall_cycles),
            l2_bytes=result.l2_bytes_read + result.l2_bytes_written,
        )

    def _detail(self, result) -> dict:
        return {"soc": SocDetail(
            clusters=self.clusters,
            cores_per_cluster=self.cores,
            link_beats=tuple(result.link_beats),
            link_stall_cycles=tuple(result.link_stall_cycles),
            l2_bytes_read=result.l2_bytes_read,
            l2_bytes_written=result.l2_bytes_written,
            dma_bytes_read=result.dma_bytes_read,
            dma_bytes_written=result.dma_bytes_written,
            cluster_cycles=tuple(result.cluster_cycles),
            cluster_dma_stall_cycles=tuple(
                result.cluster_dma_stall_cycles),
            barrier_count=result.barrier_count,
            writeback=self.writeback,
        )}

    def _profile(self, result):
        return aggregate_profile("soc", [
            _cluster_profile(f"soc/cluster{c}", cluster_result)
            for c, cluster_result in enumerate(result.cluster_results)
        ])


# ----------------------------------------------------------------------
# spec-string parsing
# ----------------------------------------------------------------------
#: Write-back spec suffix: ``cluster:4+wb`` / ``soc:2x4+wb`` simulate
#: output write-back on the named backend.
_WB_SUFFIX = "+wb"


def _split_writeback(text: str) -> tuple[str, bool]:
    if text.endswith(_WB_SUFFIX):
        return text[:-len(_WB_SUFFIX)], True
    return text, False


def _parse_core(text: str, spec: str, core_config, cluster_config
                ) -> Backend | None:
    if text != "core":
        return None
    return CoreBackend(config=core_config)


def _parse_cluster(text: str, spec: str, core_config, cluster_config
                   ) -> Backend | None:
    text, writeback = _split_writeback(text)
    if text == "cluster":
        cores = (cluster_config or ClusterConfig()).n_cores
    elif text.startswith("cluster:"):
        count = text.split(":", 1)[1]
        try:
            cores = int(count)
        except ValueError:
            raise ValueError(
                f"bad core count {count!r} in backend spec "
                f"{spec!r}; expected 'cluster:N' with integer N"
            ) from None
        if cores < 1:
            raise ValueError(
                f"core count must be >= 1 in backend spec {spec!r}"
            )
    else:
        return None
    return ClusterBackend(cores=cores, config=cluster_config,
                          core_config=core_config,
                          writeback=writeback)


def _parse_soc(text: str, spec: str, core_config, cluster_config
               ) -> Backend | None:
    # A caller-supplied cluster config rides inside the SoC config, so
    # every backend form honours the same optional-config contract.
    base = SocConfig(cluster=cluster_config) \
        if cluster_config is not None else None
    text, writeback = _split_writeback(text)
    if text == "soc":
        config = base or SocConfig()
        return SocBackend(clusters=config.n_clusters,
                          cores=config.cluster.n_cores,
                          config=base, core_config=core_config,
                          writeback=writeback)
    if not text.startswith("soc:"):
        return None
    shape = text.split(":", 1)[1]
    parts = shape.split("x")
    if len(parts) != 2:
        raise ValueError(
            f"bad SoC shape {shape!r} in backend spec {spec!r}; "
            f"expected 'soc:CxM' (clusters x cores, e.g. 'soc:2x4')"
        )
    try:
        clusters, cores = (int(p) for p in parts)
    except ValueError:
        raise ValueError(
            f"bad SoC shape {shape!r} in backend spec {spec!r}; "
            f"expected 'soc:CxM' with integer C and M"
        ) from None
    if clusters < 1 or cores < 1:
        raise ValueError(
            f"SoC shape must be >= 1x1 in backend spec {spec!r}"
        )
    return SocBackend(clusters=clusters, cores=cores, config=base,
                      core_config=core_config, writeback=writeback)


#: Spec-form parser table: display form -> parser.  parse_backend tries
#: each parser in order; backend_spec_forms() lists the keys, so the
#: unknown-spec error enumerates exactly the forms this table accepts.
_SPEC_PARSERS: dict[str, Callable] = {
    "core": _parse_core,
    "cluster[:N][+wb]": _parse_cluster,
    "soc:CxM[+wb]": _parse_soc,
}


def backend_spec_forms() -> tuple[str, ...]:
    """Every accepted backend spec form, as shown in error messages."""
    return tuple(_SPEC_PARSERS)


def parse_backend(spec: str, core_config: CoreConfig | None = None,
                  cluster_config: ClusterConfig | None = None) -> Backend:
    """Resolve a backend spec string to a backend instance.

    Accepted forms (see :func:`backend_spec_forms`): ``"core"`` (bare
    core), ``"cluster"`` / ``"cluster:N"`` (N-core cluster) and
    ``"soc"`` / ``"soc:CxM"`` (C clusters of M cores); cluster and SoC
    forms take an optional ``+wb`` suffix enabling output write-back
    simulation.  Optional configs are attached to whichever backend is
    built.
    """
    if not isinstance(spec, str):
        raise ValueError(
            f"backend spec must be a string, got {type(spec).__name__}"
        )
    text = spec.strip()
    for parser in _SPEC_PARSERS.values():
        backend = parser(text, spec, core_config, cluster_config)
        if backend is not None:
            return backend
    raise ValueError(
        f"unknown backend spec {spec!r}; expected one of: "
        + ", ".join(repr(form) for form in backend_spec_forms())
    )
