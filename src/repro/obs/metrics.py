"""Named metrics extracted uniformly from any run record.

The repo's artifacts each pick their own columns out of a
``RunRecord``; the registry here is the one place that names a metric
once — extraction rule, unit, one-line help — so traces, profiles and
tables all agree on what, say, ``tcdm.conflict_cycles`` means.

Records are duck-typed: anything with the ``RunRecord`` surface
(``cycles``, ``ipc``, a ``counters`` dict, optional ``cluster`` /
``soc`` detail blocks, a ``power`` report) works, and a metric whose
inputs are absent (e.g. link stalls on a core-only run) simply
yields ``None`` and is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

#: Metric kinds a registry accepts.  ``counter`` and ``gauge`` yield
#: scalars; ``histogram`` extracts yield a :class:`Histogram`, which
#: :meth:`MetricsRegistry.collect` flattens into ``.count``/``.p50``/
#: ``.p95``/``.p99`` scalar entries so tables and payloads stay flat.
METRIC_KINDS = ("counter", "gauge", "histogram")


class Histogram:
    """Sample accumulator: log-spaced buckets + exact tail percentiles.

    Two views over one stream of non-negative integer samples
    (latencies in cycles, sizes in bytes):

    * fixed log-spaced **buckets** — sample *v* lands in the bucket
      with upper edge ``2**v.bit_length()`` (0 gets its own bucket),
      so the bucket list is bounded (~64 entries) no matter how many
      samples arrive;
    * **retained samples** under :attr:`sample_cap`, giving *exact*
      p50/p95/p99 as long as the count stays under the cap.  Beyond
      the cap new samples still update count/sum/min/max and the
      buckets, and percentiles degrade to the bucket upper edge —
      conservative (never under-reports a latency) and still
      deterministic.

    Merging (:meth:`merge`) is order-sensitive only in the retained
    list's order; callers that need bit-identical results across a
    sharded run merge shards in a fixed order, exactly like every
    other sharded payload in the repo.
    """

    #: Retained samples stop growing past this; percentiles switch to
    #: the bucket view.  2^16 samples ≈ 512 KiB of ints — small enough
    #: to keep per-class, large enough that every shipped scenario
    #: stays exact.
    DEFAULT_SAMPLE_CAP = 1 << 16

    def __init__(self, sample_cap: int = DEFAULT_SAMPLE_CAP) -> None:
        if sample_cap < 1:
            raise ValueError(
                f"sample_cap must be >= 1, got {sample_cap}")
        self.sample_cap = sample_cap
        self.count = 0
        self.sum = 0
        self.min: int | None = None
        self.max: int | None = None
        #: bucket upper edge (power of two, or 0) -> sample count.
        self.buckets: dict[int, int] = {}
        self._samples: list[int] = []
        #: The retained samples (exact) or the bucket edges, sorted;
        #: kept until the next record or merge.
        self._ordered: list[int] | None = None

    @staticmethod
    def bucket_edge(value: int) -> int:
        """Upper edge of the log-spaced bucket *value* lands in."""
        return 0 if value == 0 else 1 << value.bit_length()

    def record(self, value: int) -> None:
        """Add one sample (a non-negative integer)."""
        if value < 0:
            raise ValueError(
                f"histogram samples must be >= 0, got {value}")
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        edge = self.bucket_edge(value)
        self.buckets[edge] = self.buckets.get(edge, 0) + 1
        self._ordered = None
        if len(self._samples) < self.sample_cap:
            self._samples.append(value)

    def merge(self, other: "Histogram") -> None:
        """Fold *other*'s samples into this histogram."""
        self.count += other.count
        self.sum += other.sum
        for bound in ("min", "max"):
            theirs = getattr(other, bound)
            if theirs is not None:
                mine = getattr(self, bound)
                pick = min if bound == "min" else max
                setattr(self, bound,
                        theirs if mine is None else pick(mine, theirs))
        for edge, n in other.buckets.items():
            self.buckets[edge] = self.buckets.get(edge, 0) + n
        self._ordered = None
        room = self.sample_cap - len(self._samples)
        if room > 0:
            self._samples.extend(other._samples[:room])

    @property
    def exact(self) -> bool:
        """Whether percentiles are exact (every sample retained)."""
        return self.count == len(self._samples)

    def percentile(self, q: float) -> int | None:
        """The *q*-quantile (exact under the cap; bucket edge above).

        Exact means the nearest-rank quantile of the full sample set:
        the ``ceil(q * n)``-th smallest sample.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return None
        # Nearest-rank in pure integer arithmetic: quantiles are
        # expressed in basis points so ceil(q * n) cannot pick up
        # float error (0.95 is not exact in binary).
        rank = max(-(-round(q * 10_000) * self.count // 10_000), 1)
        exact = self.exact
        ordered = self._ordered
        if ordered is None:
            ordered = self._ordered = sorted(
                self._samples if exact else self.buckets)
        if exact:
            return ordered[rank - 1]
        seen = 0
        for edge in ordered:
            seen += self.buckets[edge]
            if seen >= rank:
                return edge
        return self.max

    @property
    def p50(self) -> int | None:
        return self.percentile(0.50)

    @property
    def p95(self) -> int | None:
        return self.percentile(0.95)

    @property
    def p99(self) -> int | None:
        return self.percentile(0.99)

    @property
    def mean(self) -> float | None:
        return self.sum / self.count if self.count else None

    def to_json(self) -> dict:
        """Stable summary: scalars + the sorted bucket list."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "exact": self.exact,
            "buckets": [[edge, self.buckets[edge]]
                        for edge in sorted(self.buckets)],
        }


@dataclass(frozen=True)
class Metric:
    """One named measurement extractable from a run record.

    Attributes:
        name: Dotted identifier, e.g. ``tcdm.conflict_cycles``.
        unit: Display unit (``cycles``, ``insn/cycle``, ``bytes``,
            ``mW``, ...).
        help: One-line meaning.
        extract: ``record -> value`` callable; return None when the
            record has no such measurement (metric is skipped).  For
            ``histogram`` metrics the callable returns a
            :class:`Histogram` (or None).
        kind: One of :data:`METRIC_KINDS`.  ``counter``/``gauge`` are
            scalars (the distinction is documentation: counters only
            grow); ``histogram`` values are flattened by
            :meth:`MetricsRegistry.collect`.
    """

    name: str
    unit: str
    help: str
    extract: Callable
    kind: str = "gauge"

    def __post_init__(self) -> None:
        if self.kind not in METRIC_KINDS:
            raise ValueError(
                f"metric {self.name!r}: unknown kind {self.kind!r}; "
                f"expected one of {METRIC_KINDS}"
            )


def _counter(name: str):
    return lambda r: r.counters.get(name)


def _stall_total(record):
    total = 0
    for key, value in record.counters.items():
        if key.startswith(("stall_", "fp_stall_")):
            total += value
    return total


def _cluster(attr: str):
    return lambda r: (getattr(r.cluster, attr)
                      if getattr(r, "cluster", None) else None)


def _soc(attr: str):
    def extract(record):
        detail = getattr(record, "soc", None)
        if detail is None:
            return None
        value = getattr(detail, attr)
        return sum(value) if isinstance(value, tuple) else value
    return extract


DEFAULT_METRICS: tuple[Metric, ...] = (
    Metric("cycles", "cycles", "main-region makespan",
           lambda r: r.cycles),
    Metric("ipc", "insn/cycle",
           "issued instructions per cycle, both engines",
           lambda r: r.ipc),
    Metric("issue.int", "insn", "integer-core issues",
           _counter("int_issued")),
    Metric("issue.fp", "insn", "FPSS issues (incl. FREP replays)",
           _counter("fp_issued")),
    Metric("issue.sequencer", "insn", "FREP sequencer replays",
           _counter("sequencer_issued")),
    Metric("stall.total", "cycles",
           "every stall class on both engines", _stall_total),
    Metric("stall.tcdm", "cycles", "integer-LSU bank conflicts",
           _counter("stall_tcdm")),
    Metric("stall.barrier", "cycles", "cluster barrier waits",
           _counter("stall_barrier")),
    Metric("stall.dma", "cycles", "dma.wait fence stalls",
           _counter("stall_dma")),
    Metric("tcdm.conflict_cycles", "cycles",
           "banked-TCDM arbitration stalls, all cores",
           _cluster("tcdm_conflict_cycles")),
    Metric("dma.bytes", "bytes", "DMA traffic, both directions",
           _cluster("dma_bytes")),
    Metric("dma.busy_cycles", "cycles", "DMA engine occupancy",
           _cluster("dma_busy_cycles")),
    Metric("link.beats", "beats", "L2-link beats granted, all links",
           _soc("link_beats")),
    Metric("link.stall_cycles", "cycles",
           "L2-link arbitration stalls, all links",
           _soc("link_stall_cycles")),
    Metric("l2.bytes", "bytes", "L2 traffic, both directions",
           lambda r: ((r.soc.l2_bytes_read + r.soc.l2_bytes_written)
                      if getattr(r, "soc", None) else None)),
    Metric("power.mw", "mW", "average power over the main region",
           lambda r: r.power_mw),
    Metric("energy.pj_per_elem", "pJ/elem",
           "main-region energy per output element",
           lambda r: r.energy_pj / r.n if r.n else None),
)


@dataclass
class MetricsRegistry:
    """An ordered, name-unique collection of :class:`Metric`."""

    metrics: list[Metric] = field(default_factory=list)

    @classmethod
    def default(cls) -> "MetricsRegistry":
        return cls(metrics=list(DEFAULT_METRICS))

    def register(self, metric: Metric) -> None:
        if any(m.name == metric.name for m in self.metrics):
            raise ValueError(f"duplicate metric {metric.name!r}")
        self.metrics.append(metric)

    def register_many(self, metrics) -> None:
        """Register several metrics, same duplicate rules as one."""
        for metric in metrics:
            self.register(metric)

    def collect(self, record) -> dict:
        """Extract every applicable metric from *record*, in order.

        Histogram-kind metrics flatten into scalar entries —
        ``name.count`` plus ``name.p50``/``.p95``/``.p99`` — so the
        result is a flat name->number dict regardless of metric kind.
        """
        out: dict = {}
        for metric in self.metrics:
            value = metric.extract(record)
            if value is None:
                continue
            if isinstance(value, Histogram):
                out[f"{metric.name}.count"] = value.count
                for tail in ("p50", "p95", "p99"):
                    quantile = getattr(value, tail)
                    if quantile is not None:
                        out[f"{metric.name}.{tail}"] = quantile
            else:
                out[metric.name] = value
        return out

    def render(self, record) -> str:
        """Aligned metric table for *record*."""
        units = {m.name: m.unit for m in self.metrics}
        rows = self.collect(record)
        lines = [f"{'metric':<24} {'value':>14}  unit",
                 "-" * 48]
        for name, value in rows.items():
            shown = f"{value:.4f}" if isinstance(value, float) \
                else str(value)
            unit = units.get(name)
            if unit is None:
                # A histogram's flattened entries share its unit
                # (counts are dimensionless).
                base, _, tail = name.rpartition(".")
                unit = "samples" if tail == "count" \
                    else units.get(base, "")
            lines.append(f"{name:<24} {shown:>14}  {unit}")
        return "\n".join(lines)
