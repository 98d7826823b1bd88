"""Structured observability events and the nullable collection sink.

Every timing model in the hierarchy — the two issue engines of a core,
the banked-TCDM arbiter, the unified transfer engine, the SoC
interconnect, barriers, the shared L2 — reports what it did through one
:class:`ObsSink`.  Producers hold a *nullable* reference to the sink
(``None`` when observability is off) and guard each emission with a
single ``is not None`` check, so the disabled cost is one branch per
modelled event and zero allocations.

Events are plain records tagged with a **hierarchical scope** (the
process-like container: ``soc``, ``soc/cluster1``,
``cluster0/core3``) and a **lane** (the thread-like track inside it:
``int``, ``fp``, ``bank7``, ``dma``, ``link0``, ``l2``, ``barrier``).
The Chrome-trace exporter (:mod:`repro.obs.trace`) maps scopes to
processes and lanes to threads; the cycle-attribution profiler
(:mod:`repro.obs.profile`) uses the same scope names, so traces and
profiles line up.

This module imports nothing from the rest of the repo, and the
simulator only calls the sink it is handed, which is what lets one
layer observe every other without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ObsEvent:
    """One observed occurrence on a scope's lane.

    Attributes:
        scope: Hierarchical container, e.g. ``soc/cluster0/core2``.
        lane: Track within the scope, e.g. ``int`` / ``bank3`` /
            ``link1``.
        name: What happened (mnemonic, ``dma.read``, ``barrier``, ...).
        ts: Start cycle.
        dur: Duration in cycles (0 for instantaneous marks).
        cat: Category for trace-viewer filtering (``issue``, ``tcdm``,
            ``dma``, ``link``, ``barrier``, ``l2``).
        args: Optional extra payload shown by trace viewers.
        flow: Flow-arrow id linking a cause to its effect (the
            ``dma.start`` issue to the transfer's completion), or None.
        flow_phase: ``"s"`` (flow start) / ``"f"`` (flow finish) when
            *flow* is set.
    """

    scope: str
    lane: str
    name: str
    ts: int
    dur: int = 0
    cat: str = ""
    args: dict | None = None
    flow: int | None = None
    flow_phase: str | None = None


@dataclass
class ObsSink:
    """Append-only event collector shared by every instrumented model.

    One sink observes a whole machine hierarchy: the SoC, its
    clusters, their cores, banks and links all emit into the same
    list, in simulation order — which is deterministic, so two runs of
    the same workload produce byte-identical event streams.
    """

    events: list[ObsEvent] = field(default_factory=list)
    _flow: int = 0

    def emit(self, scope: str, lane: str, name: str, ts: int,
             dur: int = 0, cat: str = "", args: dict | None = None,
             flow: int | None = None,
             flow_phase: str | None = None) -> None:
        """Record one event (see :class:`ObsEvent` for the fields)."""
        self.events.append(ObsEvent(scope, lane, name, ts, dur, cat,
                                    args, flow, flow_phase))

    def next_flow(self) -> int:
        """A fresh flow-arrow id (deterministic: a plain counter)."""
        self._flow += 1
        return self._flow

    def scopes(self) -> list[str]:
        """Every scope that emitted, sorted."""
        return sorted({e.scope for e in self.events})

    def lanes(self, scope: str) -> list[str]:
        """Every lane of *scope* that emitted, sorted."""
        return sorted({e.lane for e in self.events if e.scope == scope})

    def __len__(self) -> int:
        return len(self.events)

    def clear(self) -> None:
        self.events.clear()
        self._flow = 0
