"""Unified run result: one record shape for every backend.

Every way of running a workload — a bare core, an N-core cluster, a
sweep cell in a worker process — reduces to one :class:`RunRecord`:
main-region cycles and instruction counts, IPC, power/energy from the
energy model, and (when clustered) the shared-resource detail the
cluster artifacts report (bank-conflict stalls, DMA traffic, barriers,
per-core cycles).

The dataclass declarations below are the JSON schema
(:meth:`RunRecord.to_json` / :meth:`RunRecord.from_json`): one codec
walks their fields, so a new field is persisted without further code.
The schema is versioned: ``schema`` is bumped whenever a field changes,
so persisted payloads can be validated instead of silently
reinterpreted.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from functools import partial
from operator import attrgetter, itemgetter
from typing import get_args, get_origin, get_type_hints

from ..energy import PowerReport

#: Version of the ``RunRecord.to_json`` schema.  Bump on any change to
#: field names or semantics.
#:
#: v1: core + cluster records.
#: v2: adds the ``soc_detail`` block (multi-cluster SoC runs).
#: v3: per-direction DMA traffic (``dma_bytes_read`` /
#:     ``dma_bytes_written``) and the ``writeback`` mode marker in
#:     both detail blocks (unified memory-traffic engine).
#: v4: optional ``profile`` block — the observability layer's
#:     cycle-attribution tree (``repro.obs.profile.ProfileNode``
#:     JSON), present when the run was made with the ``obs`` knob.
#: v5: optional ``stream_detail`` block — open-loop traffic scenarios
#:     (``repro.traffic``): per-class latency percentiles, QoS
#:     arbitration tallies and dispatcher occupancy.
SCHEMA_VERSION = 5


@dataclass(frozen=True)
class ClusterDetail:
    """Shared-resource measurements of a clustered run.

    Attributes:
        cores: Number of cores in the cluster.
        tcdm_accesses: Banked-TCDM grants over the whole run.
        tcdm_conflict_cycles: Total bank-conflict stall cycles.
        tcdm_bank_conflicts: Per-bank conflict cycles.
        dma_bytes: Bytes moved by the shared DMA engine (with
            ``writeback`` off that is staged inputs only, and the
            *priced* DMA traffic in ``power`` uses the kernels'
            conceptual bytes, exactly as the single-core energy model
            does; with ``writeback`` on the engine's measured bytes —
            staging plus drain — are also what the energy model
            prices).
        dma_bytes_read: Bytes staged into the TCDM (READ direction).
        dma_bytes_written: Bytes drained out of the TCDM (WRITE
            direction; non-zero only with ``writeback`` on).
        dma_busy_cycles: Cycles the DMA engine was occupied.
        barrier_count: Barrier episodes completed by the cluster.
        core_cycles: Per-core elapsed cycles, in core order.
        writeback: Whether output write-back was simulated.
    """

    cores: int
    tcdm_accesses: int
    tcdm_conflict_cycles: int
    tcdm_bank_conflicts: tuple[int, ...]
    dma_bytes: int
    dma_busy_cycles: int
    barrier_count: int
    core_cycles: tuple[int, ...]
    dma_bytes_read: int = 0
    dma_bytes_written: int = 0
    writeback: bool = False


@dataclass(frozen=True)
class SocDetail:
    """Shared-resource measurements of a multi-cluster SoC run.

    Attributes:
        clusters: Number of clusters in the SoC.
        cores_per_cluster: Cores in each cluster.
        link_beats: Per-cluster DMA beats granted over the L2 link.
        link_stall_cycles: Per-cluster beat-arbitration stall cycles
            (contention on the shared link).
        l2_bytes_read: Bytes the DMA channels read from the L2.
        l2_bytes_written: Bytes written to the L2.
        dma_bytes_read: Bytes staged into the TCDMs (READ direction,
            summed over every cluster's channel).
        dma_bytes_written: Bytes drained out of the TCDMs (WRITE
            direction; non-zero only with ``writeback`` on).
        cluster_cycles: Per-cluster elapsed cycles, in cluster order.
        cluster_dma_stall_cycles: Per-cluster ``dma.wait`` fence
            stalls — where link contention reaches the cores.
        barrier_count: Barrier episodes across every cluster.
        writeback: Whether output write-back was simulated.
    """

    clusters: int
    cores_per_cluster: int
    link_beats: tuple[int, ...]
    link_stall_cycles: tuple[int, ...]
    l2_bytes_read: int
    l2_bytes_written: int
    cluster_cycles: tuple[int, ...]
    cluster_dma_stall_cycles: tuple[int, ...]
    barrier_count: int
    dma_bytes_read: int = 0
    dma_bytes_written: int = 0
    writeback: bool = False


@dataclass(frozen=True)
class StreamClassStats:
    """One priority class's outcome in an open-loop traffic run.

    Latency percentiles are total (arrival-to-completion) latencies in
    cycles, exact nearest-rank quantiles over every completed request
    of the class.

    Attributes:
        name: Class label.
        weight: QoS arbitration weight the class ran with.
        priority: Dispatch priority (larger is more urgent).
        requests: Requests that arrived.
        completed: Requests served to completion.
        p50 / p95 / p99: Total-latency percentiles, in cycles.
        mean_queue_cycles: Mean wait for a free cluster.
        mean_service_cycles: Mean on-cluster service time (profile
            plus QoS arbitration slip).
        qos_beats: Interconnect beats granted to the class's DMA.
        qos_stall_cycles: Beat-arbitration stall cycles the class
            absorbed versus its uncontended schedule.
    """

    name: str
    weight: int
    priority: int
    requests: int
    completed: int
    p50: int
    p95: int
    p99: int
    mean_queue_cycles: float
    mean_service_cycles: float
    qos_beats: int = 0
    qos_stall_cycles: int = 0


@dataclass(frozen=True)
class StreamDetail:
    """Open-loop traffic measurements (``repro.traffic`` scenarios).

    Attributes:
        clusters: Clusters the dispatcher placed requests onto.
        cores_per_cluster: Cores in each cluster.
        policy: Scenario policy string (``fifo``, ``priority``,
            ``fifo+qos``, ``priority+qos``).
        offered_rate: Offered arrival rate, requests per cycle.
        duration: Arrival window in cycles.
        requests: Requests that arrived across every class.
        completed: Requests served to completion.
        makespan: Cycle the last request finished.
        peak_queue_depth: Largest pending-queue depth observed.
        cluster_busy_cycles: Per-cluster busy cycles, in cluster
            order.
        classes: Per-class outcome, in scenario class order.
    """

    clusters: int
    cores_per_cluster: int
    policy: str
    offered_rate: float
    duration: int
    requests: int
    completed: int
    makespan: int
    peak_queue_depth: int
    cluster_busy_cycles: tuple[int, ...]
    classes: tuple[StreamClassStats, ...]


@dataclass(frozen=True)
class RunRecord:
    """One workload run on one backend, reduced to reportable numbers.

    Cycle and instruction counts are taken from the kernel's ``main``
    region (setup excluded), matching how every paper artifact measures;
    ``total_cycles`` is the whole program for completeness.  Power and
    energy come from the (cluster) energy model over the same region.
    """

    kernel: str
    variant: str
    n: int
    block: int | None
    backend: str                     # backend spec string, e.g. "core"
    cycles: int                      # main-region makespan
    total_cycles: int
    int_instructions: int
    fp_instructions: int
    ipc: float
    counters: dict                   # main-region activity counters
    power: PowerReport
    cluster: ClusterDetail | None = None
    soc: SocDetail | None = field(default=None,
                                  metadata={"json": "soc_detail"})
    seed: int | None = None
    #: Cycle-attribution tree (ProfileNode.to_json()) when the run was
    #: observed (``obs`` knob); None otherwise.
    profile: dict | None = None
    #: Open-loop traffic detail (``repro.traffic``); None for closed
    #: fixed-n batch runs.
    stream: StreamDetail | None = field(
        default=None, metadata={"json": "stream_detail"})

    @property
    def instructions(self) -> int:
        return self.int_instructions + self.fp_instructions

    @property
    def power_mw(self) -> float:
        return self.power.power_mw

    @property
    def energy_pj(self) -> float:
        return self.power.total_energy_pj

    @property
    def energy_uj(self) -> float:
        return self.power.energy_uj

    def to_json(self) -> dict:
        """Stable, versioned JSON form (plain dict of primitives)."""
        return {"schema": SCHEMA_VERSION, **_encode(self)}

    @classmethod
    def from_json(cls, data: dict) -> "RunRecord":
        """Rebuild a record from :meth:`to_json` output.

        Raises ``ValueError`` on a schema-version mismatch so stale
        payloads fail loudly instead of deserializing wrong.
        """
        version = data.get("schema")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"RunRecord schema mismatch: payload has "
                f"{version!r}, this build reads {SCHEMA_VERSION}"
                f"{_STALE_HINTS.get(version, '')}"
            )
        return _decode(cls, data)


# -- the JSON codec ------------------------------------------------------
#
# The dataclass declarations above are the schema: a JSON key is its
# field's name (or the field's ``json`` metadata), tuples travel as
# lists, dicts are copied and nested dataclasses recurse.  Only what
# JSON adds beyond the fields is stated here.

#: Why a payload of an older schema cannot be read.
_STALE_HINTS = {
    1: (" (v1 predates the SoC layer and lacks 'soc_detail'; re-run the "
        "artifact to regenerate the payload)"),
    2: (" (v2 predates the unified memory-traffic engine and lacks the "
        "per-direction 'dma_bytes_read'/'dma_bytes_written' and "
        "'writeback' detail fields; re-run the artifact to regenerate "
        "the payload)"),
    3: (" (v3 predates the observability layer and lacks the optional "
        "'profile' cycle-attribution block; re-run the artifact to "
        "regenerate the payload)"),
    4: (" (v4 predates the streaming-traffic layer and lacks the "
        "optional 'stream_detail' block; re-run the artifact to "
        "regenerate the payload)"),
}

#: Values written beside a part's fields for readers of the JSON; the
#: decoder ignores them (they follow from the fields).
_DERIVED = {
    PowerReport: lambda p: {"power_mw": p.power_mw,
                            "energy_pj": p.total_energy_pj},
}

#: Per class: the JSON keys, a getter of the field values from an
#: instance, one of the values from a JSON dict (both in field order),
#: and ``(index, encode, decode)`` of each value that is converted (any
#: other, and None, is copied as it is).
_PLANS: dict[type, tuple] = {}


def _converters(hint):
    """The ``(encode, decode)`` pair of one field type, or None."""
    args = get_args(hint)
    if type(None) in args:                          # X | None
        return _converters(next(a for a in args if a is not type(None)))
    if is_dataclass(hint):
        return _encode, partial(_decode, hint)
    origin = get_origin(hint) or hint
    if origin is tuple:
        pair = _converters(args[0])
        if pair is None:
            return list, tuple
        enc, dec = pair
        return ((lambda v: [enc(x) for x in v]),
                (lambda v: tuple(dec(x) for x in v)))
    if origin is dict:
        return dict, dict
    return None


def _plan(cls) -> tuple:
    """*cls*'s codec plan, built on first use.  ``cls(*values)`` takes
    the values in field order, and every record part has more than one
    field, so both getters return tuples."""
    plan = _PLANS.get(cls)
    if plan is None:
        hints = get_type_hints(cls)
        names = tuple(f.name for f in fields(cls))
        keys = tuple(f.metadata.get("json", f.name) for f in fields(cls))
        converted = tuple(
            (i, *pair)
            for i, pair in enumerate(_converters(hints[n]) for n in names)
            if pair is not None)
        plan = _PLANS[cls] = (keys, attrgetter(*names),
                              itemgetter(*keys), converted)
    return plan


def _encode(part) -> dict:
    """A record part's JSON form (a dict of primitives)."""
    keys, attrs, _, converted = _plan(type(part))
    values = list(attrs(part))
    for i, enc, _ in converted:
        if values[i] is not None:
            values[i] = enc(values[i])
    out = dict(zip(keys, values))
    derive = _DERIVED.get(type(part))
    if derive is not None:
        out.update(derive(part))
    return out


def _decode(cls, data: dict):
    """Rebuild a *cls* instance from :func:`_encode` output."""
    _, _, items, converted = _plan(cls)
    values = list(items(data))
    for i, _, dec in converted:
        if values[i] is not None:
            values[i] = dec(values[i])
    return cls(*values)
