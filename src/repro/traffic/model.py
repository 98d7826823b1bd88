"""Per-class request profiles: simulate once, replay many times.

An open-loop scenario completes thousands of requests; simulating a
full cluster per request would make the sweep intractable and — more
importantly — non-compositional.  Instead each :class:`PriorityClass`
is simulated **once**, uncontended, on a cluster of the scenario's
shape (:func:`build_profile`), capturing

* the request's uncontended **service time** (the cluster makespan,
  including the write-back drain fence — streaming requests must pay
  for getting their results out, which is exactly the traffic QoS
  arbitrates), and
* the request's **DMA transfer schedule**: every descriptor the
  cluster engine served, with issue/completion cycles relative to
  request start.

The queueing simulation then *replays* that schedule through a real
:class:`~repro.mem.TransferEngine` per cluster whose ``arbiter`` hook
is the shared :class:`~repro.traffic.qos.QosArbiter` — so contention
between concurrent requests is computed by the same beat-claim
machinery the SoC interconnect uses, not by an analytic approximation.
Any completion slip the arbiter adds over the profiled schedule
extends the request's service time one-for-one (the profiled program
ends in a ``dma.wait`` fence, so compute cannot finish before its
drain does).

Profiles also carry the energy decomposition of one request (dynamic
pJ per request, constant pJ/cycle of a powered cluster), so a stream
record can price a whole scenario without re-running the energy model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..api.backend import price_cluster
from ..cluster import ClusterConfig, partition_kernel
from ..cluster.machine import ClusterMachine
from ..kernels.common import MAIN_REGION
from ..kernels.registry import kernel
from ..mem import TransferEngine
from .arrival import PriorityClass

__all__ = ["RequestProfile", "build_profile", "replay_engine"]


@dataclass(frozen=True)
class RequestProfile:
    """Everything the queueing simulation needs about one class.

    Attributes:
        name: The priority class this profiles.
        kernel / variant / n / cores: Workload shape, echoed for
            payloads.
        cycles: Uncontended service time in cycles (cluster makespan,
            drain fence included).
        dma_bytes: Bytes one request moves through the cluster DMA.
        transfers: The profiled DMA schedule, one
            ``(core, issue, dst, src, nbytes, done)`` tuple per
            descriptor in engine-service order; cycles are relative to
            request start.
        bandwidth / setup_latency: Engine parameters the replay
            engines must share with the profiling run.
        dynamic_energy_pj: Activity energy of one request.
        constant_pj_per_cycle: Background power of one powered
            cluster, per cycle (prices idle/queueing time too).
    """

    name: str
    kernel: str
    variant: str
    n: int
    cores: int
    cycles: int
    dma_bytes: int
    transfers: tuple[tuple[int, int, int, int, int, int], ...]
    bandwidth: int
    setup_latency: int
    dynamic_energy_pj: float
    constant_pj_per_cycle: float
    int_instructions: int = 0
    fp_instructions: int = 0


def build_profile(cls: PriorityClass, cores: int,
                  cluster_config: ClusterConfig | None = None,
                  check: bool = False) -> RequestProfile:
    """Simulate one uncontended request of *cls* and profile it.

    Runs the class's kernel on a *cores*-core cluster in write-back
    mode (outputs drain to L2 — the traffic a streaming server
    actually ships), keeping the machine so the DMA engine's served
    descriptor list can be captured alongside the makespan.
    """
    kernel_def = kernel(cls.kernel)
    parted = partition_kernel(kernel_def, cls.n, cores,
                              variant=cls.variant, writeback=True)
    config = cluster_config or ClusterConfig()
    if config.n_cores != cores:
        config = replace(config, n_cores=cores)
    if not config.writeback:
        config = replace(config, writeback=True)
    # ClusterWorkload.run would hide the machine; build it by hand so
    # cluster.dma.transfers stays readable after the run.
    cluster = ClusterMachine(config=config)
    for instance in parted.instances:
        cluster.add_core(instance.program, instance.memory)
    result = cluster.run()
    if check:
        for instance, machine in zip(parted.instances, cluster.cores):
            instance.verify(instance.memory, machine)
    region = result.region(MAIN_REGION)
    # Priced over the whole run: a request holds its cluster from
    # start to drain fence.
    power = price_cluster(
        result, parted, result.cycles,
        dma_active=any(i.dma_active for i in parted.instances))
    return RequestProfile(
        name=cls.name,
        kernel=cls.kernel,
        variant=cls.variant,
        n=cls.n,
        cores=cores,
        cycles=result.cycles,
        dma_bytes=result.dma_bytes,
        transfers=tuple(
            (t.core_id, t.issue, t.dst, t.src, t.nbytes, t.done)
            for t in cluster.dma.transfers
        ),
        bandwidth=cluster.dma.bandwidth,
        setup_latency=cluster.dma.setup_latency,
        dynamic_energy_pj=power.dynamic_energy_pj,
        constant_pj_per_cycle=power.constant_energy_pj / result.cycles
        if result.cycles else 0.0,
        int_instructions=region.counters.int_issued,
        fp_instructions=region.counters.fp_issued,
    )


def replay_engine(profile: RequestProfile, stream_id: int,
                  arbiter) -> TransferEngine:
    """A transfer engine matching the profiling run's parameters.

    One per cluster; *arbiter* is the shared beat arbiter (the
    ``QosArbiter.transfer`` bound method, or ``None`` for uncontended
    replay).  Capacity checks are off — the profiled addresses were
    validated when the schedule was recorded.
    """
    return TransferEngine(
        bandwidth=profile.bandwidth,
        setup_latency=profile.setup_latency,
        tcdm_size=None,
        stream_id=stream_id,
        arbiter=arbiter,
    )
