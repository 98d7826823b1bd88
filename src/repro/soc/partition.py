"""Static work partitioning across clusters, then cores.

The SoC splits a problem of *n* elements/samples over C clusters of M
cores each: cluster *c* takes an ``n / C`` slice, and the cluster
partitioner (:func:`repro.cluster.partition.partition_kernel`) chunks
that slice over its M cores exactly as a standalone cluster would.
Per-core PRNG/input seeds are derived from the *global* core index
(``c * M + m``), so no two cores anywhere in the SoC share a stream —
and a 1-cluster SoC builds byte-identical instances to the equivalent
standalone cluster workload.

DMA staging is sourced from the shared L2: every staged input chunk is
written into the :class:`~repro.soc.l2.L2Memory` image (capacity
enforced by its allocator) as the authoritative copy, with the per-core
L2 *window* acting as the mirror the core model's functional data path
reads (see :mod:`repro.soc.l2`).  The transfers' beats then contend on
the SoC interconnect, which is where multi-cluster bandwidth limits
show up.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..cluster.config import ClusterConfig
from ..cluster.partition import ClusterWorkload, partition_kernel
from ..kernels.common import KernelInstance
from ..kernels.registry import KernelDef
from ..sim.config import CoreConfig
from .config import SocConfig
from .machine import SocMachine, SocRunResult


@dataclass
class SocWorkload:
    """One kernel, one variant, chunked over C clusters x M cores."""

    name: str
    variant: str
    n: int
    n_clusters: int
    n_cores: int
    block: int | None
    cluster_workloads: list[ClusterWorkload]
    #: Whether the per-core instances carry write-back drain epilogues
    #: (see :func:`repro.cluster.partition.partition_kernel`).
    writeback: bool = False

    @property
    def instances(self) -> list[KernelInstance]:
        """Every core's instance, cluster-major, in core order."""
        return [instance
                for workload in self.cluster_workloads
                for instance in workload.instances]

    def run(self, config: SocConfig | None = None,
            core_config: CoreConfig | None = None,
            check: bool = True,
            max_steps: int = 200_000_000,
            obs=None) -> SocRunResult:
        """Simulate the workload on an SoC sized to fit it.

        *obs* is an optional :class:`repro.obs.ObsSink` observing the
        whole hierarchy (interconnect links, L2, every cluster's
        cores/banks/DMA) under the ``soc`` scope.
        """
        config = config or SocConfig()
        if config.n_clusters != self.n_clusters:
            config = replace(config, n_clusters=self.n_clusters)
        if config.cluster.n_cores != self.n_cores \
                or config.cluster.writeback != self.writeback:
            config = replace(
                config,
                cluster=replace(config.cluster, n_cores=self.n_cores,
                                writeback=self.writeback),
            )
        soc = SocMachine(config=config, core_config=core_config)
        if obs is not None:
            soc.attach_obs(obs, "soc")
        for c, workload in enumerate(self.cluster_workloads):
            cluster = soc.add_cluster()
            for m, instance in enumerate(workload.instances):
                cluster.add_core(instance.program, instance.memory)
                self._stage_into_l2(soc, c, m, instance)
        result = soc.run(max_steps=max_steps)
        self._writeback_into_l2(soc)
        if check:
            self.verify(soc)
        return result

    # ------------------------------------------------------------------
    @staticmethod
    def _stage_into_l2(soc: SocMachine, cluster: int, core: int,
                       instance: KernelInstance) -> None:
        """Reserve a core's shared-L2 regions before the run.

        Staged input chunks are written up front (the L2 is the
        authoritative source the DMA reads from); drain regions are
        allocated empty — capacity enforced now, bytes landing at
        :meth:`_writeback_into_l2` time.
        """
        if instance.notes.get("dma_staged"):
            soc.l2.stage(f"c{cluster}/m{core}/{instance.name}",
                         instance.notes["inputs"])
        if instance.notes.get("dma_drained"):
            _, nbytes = instance.notes["drain_region"]
            soc.l2.alloc(f"c{cluster}/m{core}/{instance.name}/out",
                         nbytes)

    def _writeback_into_l2(self, soc: SocMachine) -> None:
        """Land every core's drained bytes in the shared L2 image.

        The drain window inside each core's memory image is the data
        path (mirroring how staging reads work in the other
        direction); the shared L2 region is the authoritative copy
        consumers of the SoC would read.
        """
        iterator = iter(self.instances)
        for c in range(self.n_clusters):
            for m in range(self.n_cores):
                instance = next(iterator)
                if not instance.notes.get("dma_drained"):
                    continue
                drain_base, nbytes = instance.notes["drain_region"]
                addr, _ = soc.l2.regions[
                    f"c{c}/m{m}/{instance.name}/out"]
                soc.l2.memory.data[addr:addr + nbytes] = \
                    instance.memory.data[drain_base:drain_base + nbytes]

    def verify(self, soc: SocMachine) -> None:
        """Check every core's results and the L2/TCDM data agreement."""
        iterator = iter(self.instances)
        for c, cluster in enumerate(soc.clusters):
            for m, machine in enumerate(cluster.cores):
                instance = next(iterator)
                instance.verify(instance.memory, machine)
                if instance.notes.get("dma_staged"):
                    # The chunk that arrived in the TCDM must be the
                    # bytes the shared L2 holds (the mirror window is
                    # the data path; the L2 is the authority).
                    x_addr = instance.notes["x_addr"]
                    staged = soc.l2.region_bytes(
                        f"c{c}/m{m}/{instance.name}")
                    got = bytes(instance.memory.data[
                        x_addr:x_addr + len(staged)])
                    if got != staged:
                        raise AssertionError(
                            f"cluster {c} core {m}: TCDM data diverged "
                            f"from the shared L2 copy"
                        )
                if instance.notes.get("dma_drained"):
                    # The drained L2 copy must be the outputs the core
                    # computed (write-back made the L2 authoritative
                    # for results too).
                    _, nbytes = instance.notes["drain_region"]
                    src = instance.notes["drain_src"]
                    drained = soc.l2.region_bytes(
                        f"c{c}/m{m}/{instance.name}/out")
                    expect = bytes(instance.memory.data[
                        src:src + nbytes])
                    if drained != expect:
                        raise AssertionError(
                            f"cluster {c} core {m}: shared-L2 drain "
                            f"region diverged from the computed "
                            f"outputs"
                        )


def partition_soc_kernel(kernel_def: KernelDef, n: int,
                         n_clusters: int, n_cores: int,
                         variant: str = "baseline",
                         block: int | None = None,
                         writeback: bool = False) -> SocWorkload:
    """Chunk one registered kernel over *n_clusters* x *n_cores*.

    Args:
        kernel_def: Registry entry to partition.
        n: Total problem size (must divide evenly over all cores).
        n_clusters: SoC width in clusters.
        n_cores: Cores per cluster.
        variant: ``baseline`` or ``copift``.
        block: Requested COPIFT block size (auto-shrunk per chunk).
        writeback: Simulate output write-back: cores drain their
            output regions to the shared L2 through their cluster's
            DMA channel, the drain beats contending on the SoC
            interconnect and in the TCDM bank arbiters exactly like
            staging reads (forwarded to the cluster partitioner).
    """
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    if n_cores < 1:
        raise ValueError(f"n_cores must be >= 1, got {n_cores}")
    if n % (n_clusters * n_cores):
        raise ValueError(
            f"problem size {n} does not chunk evenly over "
            f"{n_clusters} clusters x {n_cores} cores"
        )
    slice_n = n // n_clusters
    cluster_workloads = [
        partition_kernel(kernel_def, slice_n, n_cores,
                         variant=variant, block=block,
                         first_core=cluster * n_cores,
                         writeback=writeback)
        for cluster in range(n_clusters)
    ]
    return SocWorkload(
        name=kernel_def.name, variant=variant, n=n,
        n_clusters=n_clusters, n_cores=n_cores,
        block=cluster_workloads[0].block,
        cluster_workloads=cluster_workloads,
        writeback=writeback,
    )


def soc_config_for(workload: SocWorkload,
                   base: SocConfig | None = None,
                   cluster: ClusterConfig | None = None) -> SocConfig:
    """A :class:`SocConfig` resized to fit *workload* exactly."""
    config = base or SocConfig()
    cc = cluster or config.cluster
    return replace(
        config,
        n_clusters=workload.n_clusters,
        cluster=replace(cc, n_cores=workload.n_cores),
    )
