"""Traffic scenarios: classes + policy -> latency/throughput results.

A :class:`TrafficScenario` names everything an open-loop run needs —
the priority classes, the SoC shape the dispatcher places onto, the
policy string — and :func:`simulate` turns it plus an offered load
into a :class:`TrafficResult`: per-class latency histograms (exact
p50/p95/p99), sustained throughput, QoS arbitration tallies and
dispatcher occupancy.

Policy strings compose the two orthogonal knobs:

``fifo`` / ``priority``
    the dispatcher's queueing discipline (which waiting request gets
    the next free cluster);
``+qos`` suffix
    weight the interconnect's *beat* arbitration by class (the
    :class:`~repro.traffic.qos.QosArbiter` behind every cluster DMA
    engine's ``arbiter`` hook) instead of serving beats FCFS.

Results merge (:meth:`TrafficResult.merge`): the ``streamscale``
artifact pools replications over seeds in fixed seed order, so pooled
percentiles are one deterministic function of the seed set — sharding
the replications over processes cannot change them.

:func:`stream_record` reduces a result to the repo's universal
:class:`~repro.api.RunRecord` (schema v5's ``stream_detail`` block),
pricing energy from the per-class profiles; :func:`traffic_registry`
publishes the same numbers through the observability layer's
:class:`~repro.obs.MetricsRegistry`, latencies as ``histogram``-kind
metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..api.record import RunRecord, StreamClassStats, StreamDetail
from ..energy import PowerReport
from ..obs.metrics import Histogram, Metric, MetricsRegistry
from .arrival import PriorityClass, Request, TrafficError, poisson_arrivals
from .dispatch import Dispatcher
from .model import RequestProfile, build_profile, replay_engine
from .qos import QosArbiter

__all__ = [
    "POLICY_CHOICES",
    "ClassResult",
    "TrafficResult",
    "TrafficScenario",
    "build_profiles",
    "default_scenario",
    "parse_policy",
    "simulate",
    "stream_record",
    "traffic_registry",
]

#: Accepted scenario policy strings.
POLICY_CHOICES = ("fifo", "priority", "fifo+qos", "priority+qos")


def parse_policy(text: str) -> tuple[str, bool]:
    """Split a policy string into (dispatch policy, qos enabled)."""
    if text not in POLICY_CHOICES:
        raise TrafficError(
            f"unknown policy {text!r}; expected one of "
            + ", ".join(POLICY_CHOICES))
    if text.endswith("+qos"):
        return text[:-len("+qos")], True
    return text, False


@dataclass(frozen=True)
class TrafficScenario:
    """An open-loop streaming scenario over a multi-cluster SoC.

    Attributes:
        classes: The priority classes; arrival shares must sum to 1.
        clusters: Clusters the dispatcher places requests onto.
        cores: Cores per cluster (the shape requests are profiled
            on).
        policy: One of :data:`POLICY_CHOICES`.
        link_cap: Interconnect beats granted per cycle across all
            clusters' DMA streams.
    """

    classes: tuple[PriorityClass, ...]
    clusters: int = 2
    cores: int = 4
    policy: str = "priority+qos"
    link_cap: int = 1

    def __post_init__(self) -> None:
        if not self.classes:
            raise TrafficError("scenario needs at least one class")
        names = [cls.name for cls in self.classes]
        if len(set(names)) != len(names):
            raise TrafficError(f"duplicate class names in {names}")
        total_share = sum(cls.share for cls in self.classes)
        if abs(total_share - 1.0) > 1e-9:
            raise TrafficError(
                f"class shares must sum to 1, got {total_share:g}")
        if self.clusters < 1:
            raise TrafficError(
                f"clusters must be >= 1, got {self.clusters}")
        if self.cores < 1:
            raise TrafficError(f"cores must be >= 1, got {self.cores}")
        parse_policy(self.policy)  # validates

    @property
    def backend_spec(self) -> str:
        """Spec-style name for records: ``traffic:CxM``."""
        return f"traffic:{self.clusters}x{self.cores}"


def default_scenario(policy: str = "priority+qos",
                     clusters: int = 2,
                     cores: int = 4) -> TrafficScenario:
    """The shipped two-class scenario: latency-critical vs bulk.

    ``hi`` is a small COPIFT ``expf`` (latency-critical inference-like
    requests, QoS weight 3); ``lo`` is a larger baseline ``logf``
    (bulk batch work, weight 1).  Both drain outputs, so their DMA
    beats genuinely contend on the interconnect.
    """
    return TrafficScenario(
        classes=(
            PriorityClass(name="hi", weight=3, priority=1,
                          kernel="expf", variant="copift", n=256,
                          share=0.3),
            PriorityClass(name="lo", weight=1, priority=0,
                          kernel="logf", variant="baseline", n=512,
                          share=0.7),
        ),
        clusters=clusters,
        cores=cores,
        policy=policy,
    )


def build_profiles(scenario: TrafficScenario,
                   cluster_config=None
                   ) -> tuple[RequestProfile, ...]:
    """Profile every class once on the scenario's cluster shape."""
    return tuple(build_profile(cls, scenario.cores,
                               cluster_config=cluster_config)
                 for cls in scenario.classes)


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class ClassResult:
    """One class's accumulated outcome (mergeable across seeds)."""

    name: str
    weight: int
    priority: int
    requests: int = 0
    completed: int = 0
    latency: Histogram = field(default_factory=Histogram)
    queue_cycles_sum: int = 0
    service_cycles_sum: int = 0
    qos_beats: int = 0
    qos_stall_cycles: int = 0

    def merge(self, other: "ClassResult") -> None:
        self.requests += other.requests
        self.completed += other.completed
        self.latency.merge(other.latency)
        self.queue_cycles_sum += other.queue_cycles_sum
        self.service_cycles_sum += other.service_cycles_sum
        self.qos_beats += other.qos_beats
        self.qos_stall_cycles += other.qos_stall_cycles

    @property
    def mean_queue_cycles(self) -> float:
        return self.queue_cycles_sum / self.completed \
            if self.completed else 0.0

    @property
    def mean_service_cycles(self) -> float:
        return self.service_cycles_sum / self.completed \
            if self.completed else 0.0

    def stats(self) -> StreamClassStats:
        """Freeze into the RunRecord's per-class detail shape."""
        return StreamClassStats(
            name=self.name,
            weight=self.weight,
            priority=self.priority,
            requests=self.requests,
            completed=self.completed,
            p50=self.latency.p50 or 0,
            p95=self.latency.p95 or 0,
            p99=self.latency.p99 or 0,
            mean_queue_cycles=self.mean_queue_cycles,
            mean_service_cycles=self.mean_service_cycles,
            qos_beats=self.qos_beats,
            qos_stall_cycles=self.qos_stall_cycles,
        )


@dataclass
class TrafficResult:
    """Outcome of one (or several merged) open-loop runs."""

    policy: str
    offered_rate: float
    duration: int
    requests: int = 0
    completed: int = 0
    #: Sum of per-run makespans (so pooled throughput is
    #: completed / makespan across merged runs too).
    makespan: int = 0
    peak_queue_depth: int = 0
    cluster_busy: list[int] = field(default_factory=list)
    classes: list[ClassResult] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Sustained completion rate, requests per cycle."""
        return self.completed / self.makespan if self.makespan else 0.0

    def merge(self, other: "TrafficResult") -> None:
        """Pool another replication (same scenario, different seed)."""
        if (other.policy != self.policy
                or other.duration != self.duration
                or other.offered_rate != self.offered_rate):
            raise TrafficError(
                "cannot merge results from different scenarios: "
                f"({self.policy}, {self.offered_rate:g}, "
                f"{self.duration}) vs ({other.policy}, "
                f"{other.offered_rate:g}, {other.duration})")
        self.requests += other.requests
        self.completed += other.completed
        self.makespan += other.makespan
        self.peak_queue_depth = max(self.peak_queue_depth,
                                    other.peak_queue_depth)
        if not self.cluster_busy:
            self.cluster_busy = list(other.cluster_busy)
        else:
            for c, busy in enumerate(other.cluster_busy):
                self.cluster_busy[c] += busy
        if not self.classes:
            self.classes = other.classes
        else:
            for mine, theirs in zip(self.classes, other.classes):
                mine.merge(theirs)


# ----------------------------------------------------------------------
# simulation
# ----------------------------------------------------------------------
def simulate(scenario: TrafficScenario,
             profiles: tuple[RequestProfile, ...],
             rate: float, duration: int, seed: int,
             requests: list[Request] | None = None) -> TrafficResult:
    """Run one open-loop replication of *scenario*.

    Args:
        scenario: The scenario (classes, shape, policy).
        profiles: Per-class profiles from :func:`build_profiles`.
        rate: Offered arrival rate, requests per cycle (ignored when
            *requests* is given).
        duration: Arrival window in cycles (ignored when *requests*
            is given).
        seed: Replication seed for the arrival sampler.
        requests: Pre-built arrival stream (trace replay); overrides
            the Poisson sampler.
    """
    if len(profiles) != len(scenario.classes):
        raise TrafficError(
            f"{len(scenario.classes)} class(es) but {len(profiles)} "
            f"profile(s)")
    if requests is None:
        requests = poisson_arrivals(scenario.classes, rate, duration,
                                    seed)
    base_policy, qos_on = parse_policy(scenario.policy)
    weights = tuple(cls.weight for cls in scenario.classes) \
        if qos_on else None
    arbiter = QosArbiter(weights=weights, link_cap=scenario.link_cap,
                         n_classes=len(scenario.classes))
    engines = [replay_engine(profiles[0], c, arbiter.transfer)
               for c in range(scenario.clusters)]
    dispatcher = Dispatcher(scenario.classes, profiles,
                            scenario.clusters, policy=base_policy,
                            engines=engines, qos=arbiter)
    served = dispatcher.run(requests)

    result = TrafficResult(
        policy=scenario.policy,
        offered_rate=rate,
        duration=duration,
        requests=len(requests),
        completed=len(served),
        makespan=max((c.finish for c in served), default=0),
        peak_queue_depth=dispatcher.peak_queue_depth,
        cluster_busy=list(dispatcher.cluster_busy),
        classes=[ClassResult(name=cls.name, weight=cls.weight,
                             priority=cls.priority)
                 for cls in scenario.classes],
    )
    for request in requests:
        result.classes[request.cls].requests += 1
    for done in served:
        cres = result.classes[done.cls]
        cres.completed += 1
        cres.latency.record(done.total_cycles)
        cres.queue_cycles_sum += done.queue_cycles
        cres.service_cycles_sum += done.service_cycles
    for index, stats in enumerate(arbiter.stats):
        result.classes[index].qos_beats = stats.grants
        result.classes[index].qos_stall_cycles = stats.stall_cycles
    return result


# ----------------------------------------------------------------------
# record + metrics surfaces
# ----------------------------------------------------------------------
def stream_record(scenario: TrafficScenario,
                  profiles: tuple[RequestProfile, ...],
                  result: TrafficResult,
                  seed: int | None = None) -> RunRecord:
    """Reduce a traffic result to the universal :class:`RunRecord`.

    Dynamic energy prices every completed request at its class
    profile's activity energy; constant energy powers all clusters for
    the pooled makespan — so queueing (idle clusters burning
    background power) shows up in the energy column, exactly as it
    would on silicon.
    """
    completed_by_class = [c.completed for c in result.classes]
    dynamic = sum(n * p.dynamic_energy_pj
                  for n, p in zip(completed_by_class, profiles))
    constant = (profiles[0].constant_pj_per_cycle * result.makespan
                * scenario.clusters) if profiles else 0.0
    breakdown = {
        f"class.{p.name}": n * p.dynamic_energy_pj
        for n, p in zip(completed_by_class, profiles)
    }
    power = PowerReport(
        cycles=result.makespan,
        dynamic_energy_pj=dynamic,
        constant_energy_pj=constant,
        breakdown_pj=breakdown,
    )
    int_instructions = sum(n * p.int_instructions
                           for n, p in zip(completed_by_class, profiles))
    fp_instructions = sum(n * p.fp_instructions
                          for n, p in zip(completed_by_class, profiles))
    issued = int_instructions + fp_instructions
    return RunRecord(
        kernel="+".join(cls.kernel for cls in scenario.classes),
        variant="+".join(cls.variant for cls in scenario.classes),
        n=result.requests,
        block=None,
        seed=seed,
        backend=scenario.backend_spec,
        cycles=result.makespan,
        total_cycles=result.makespan,
        int_instructions=int_instructions,
        fp_instructions=fp_instructions,
        ipc=issued / (result.makespan * scenario.clusters)
        if result.makespan else 0.0,
        counters={},
        power=power,
        stream=StreamDetail(
            clusters=scenario.clusters,
            cores_per_cluster=scenario.cores,
            policy=scenario.policy,
            offered_rate=result.offered_rate,
            duration=result.duration,
            requests=result.requests,
            completed=result.completed,
            makespan=result.makespan,
            peak_queue_depth=result.peak_queue_depth,
            cluster_busy_cycles=tuple(result.cluster_busy),
            classes=tuple(c.stats() for c in result.classes),
        ),
    )


def traffic_registry(scenario: TrafficScenario) -> MetricsRegistry:
    """Metrics over a :class:`TrafficResult`, latencies as histograms.

    Class latencies are ``histogram``-kind metrics, so
    ``registry.collect(result)`` flattens each into
    ``traffic.<class>.latency.{count,p50,p95,p99}`` scalars.
    """
    registry = MetricsRegistry()
    registry.register_many([
        Metric("traffic.requests", "requests",
               "requests that arrived, all classes",
               lambda r: r.requests, kind="counter"),
        Metric("traffic.completed", "requests",
               "requests served to completion",
               lambda r: r.completed, kind="counter"),
        Metric("traffic.makespan", "cycles",
               "cycle the last request finished",
               lambda r: r.makespan),
        Metric("traffic.throughput", "requests/cycle",
               "sustained completion rate",
               lambda r: r.throughput),
        Metric("traffic.queue_depth.peak", "requests",
               "largest pending-queue depth observed",
               lambda r: r.peak_queue_depth),
    ])
    for index, cls in enumerate(scenario.classes):
        registry.register(Metric(
            f"traffic.{cls.name}.latency", "cycles",
            f"total latency of class {cls.name!r} "
            f"(weight {cls.weight}, priority {cls.priority})",
            lambda r, i=index: r.classes[i].latency,
            kind="histogram",
        ))
        registry.register(Metric(
            f"traffic.{cls.name}.qos_stall_cycles", "cycles",
            f"beat-arbitration stalls absorbed by class {cls.name!r}",
            lambda r, i=index: r.classes[i].qos_stall_cycles,
            kind="counter",
        ))
    return registry
