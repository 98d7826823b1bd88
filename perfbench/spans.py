"""Host-time spans for the benchmark's traced runs.

A :class:`SpanRecorder` keeps every span in memory — name, start, end,
parent span and an optional cell or request id — and writes them out
once, when the run ends.  :func:`instrumented` wraps the public entry
points of each simulator layer (:data:`ENTRY_POINTS`) so that every
call records a span; nothing inside ``src/`` is changed, and the
wrappers are removed again on exit.  Parents follow a context
variable, so the spans of the serve workload's concurrent asyncio
clients nest under the right request.

A layer's *self time* is its span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import json
import sys
import time

#: Public entry points timed in a traced run: (module, attribute path,
#: span name).  Names are ``<layer>.<what>``; several entry points may
#: share one span name (the three energy models).
ENTRY_POINTS = (
    ("repro.api.workload", "Workload.build", "kernels.build"),
    ("repro.sim.decode", "DecodedProgram.of", "sim.decode"),
    ("repro.kernels.common", "KernelInstance.run", "sim.run"),
    ("repro.cluster.partition", "partition_kernel", "cluster.partition"),
    ("repro.soc.partition", "partition_soc_kernel", "soc.partition"),
    ("repro.cluster.partition", "ClusterWorkload.run", "cluster.run"),
    ("repro.soc.partition", "SocWorkload.run", "soc.run"),
    ("repro.sim.batch", "BatchEngine.run", "batch.run"),
    ("repro.energy.model", "EnergyModel.report", "energy.report"),
    ("repro.energy.model", "ClusterEnergyModel.report", "energy.report"),
    ("repro.energy.model", "SocEnergyModel.report", "energy.report"),
    ("repro.api.backend", "record_from_result", "api.record"),
    ("repro.api.sweep", "Sweep.run", "api.sweep"),
    ("repro.serve.store", "cache_key", "serve.key"),
    ("repro.serve.store", "RunStore.get", "serve.get"),
    ("repro.serve.store", "RunStore.put", "serve.put"),
    ("repro.traffic.scenario", "build_profiles", "traffic.profile"),
    ("repro.traffic.scenario", "simulate", "traffic.simulate"),
)

#: Packages whose import binds entry points under other module names.
PRELOAD = ("repro.api.batchrun", "repro.eval", "repro.serve",
           "repro.sim.batch", "repro.traffic")


def _sim_counts(result) -> dict:
    run_result = result[0]
    counters = run_result.counters
    return {"instructions": counters.int_issued + counters.fp_issued,
            "stall_cycles": counters.total_stalls()}


def _cluster_counts(result) -> dict:
    return {"tcdm_conflict_cycles": result.tcdm_conflict_cycles,
            "dma_busy_cycles": result.dma_busy_cycles,
            "barriers": result.barrier_count,
            "dma_bytes_read": result.dma_bytes_read,
            "dma_bytes_written": result.dma_bytes_written}


def _soc_counts(result) -> dict:
    return {"link_stall_cycles": sum(result.link_stall_cycles),
            "l2_bytes": result.l2_bytes_read + result.l2_bytes_written,
            "dma_bytes_read": result.dma_bytes_read,
            "dma_bytes_written": result.dma_bytes_written}


def _batch_counts(engine) -> dict:
    # The cohort count needs every lane's program signature, which is
    # too slow to take inside the timed pass; keep the engine and count
    # after the run (see layer_metrics).
    return {"lanes": len(engine.instances),
            "demoted_lanes": sum(engine.demoted),
            "engine": engine}


def _traffic_counts(result) -> dict:
    return {"requests": result.requests,
            "hi_p99_cycles": result.classes[0].latency.p99 or 0,
            "qos_stall_cycles": sum(c.qos_stall_cycles
                                    for c in result.classes)}


#: Counts taken from a span's return value, right after it ends.
COUNTS = {
    "sim.run": _sim_counts,
    "cluster.run": _cluster_counts,
    "soc.run": _soc_counts,
    "batch.run": _batch_counts,
    "traffic.simulate": _traffic_counts,
}


class Span:
    """One timed call: name, start, end, parent and attributes."""

    __slots__ = ("index", "name", "start", "end", "parent", "ident",
                 "attrs")

    def __init__(self, index, name, start, parent, ident, attrs):
        self.index = index
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.ident = ident
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self, t0: float) -> dict:
        attrs = {k: v for k, v in self.attrs.items() if k != "engine"}
        return {"name": self.name, "start": self.start - t0,
                "end": self.end - t0,
                "parent": self.parent.index if self.parent else None,
                "id": self.ident, "attrs": attrs}


class SpanRecorder:
    """In-memory span store with context-variable parenting."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.t0 = time.perf_counter()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)

    @contextlib.contextmanager
    def span(self, name: str, ident=None, **attrs):
        parent = self._current.get()
        if ident is None and parent is not None:
            ident = parent.ident
        span = Span(len(self.spans), name, time.perf_counter(), parent,
                    ident, attrs)
        self.spans.append(span)
        token = self._current.set(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._current.reset(token)

    def wrap(self, name: str, fn):
        counts = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if counts is not None:
                span.attrs.update(counts(result))
            return result
        return traced

    def self_durations(self) -> list[float]:
        """Each span's duration minus its children's, by span index."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent.index] -= span.duration
        return own

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        out: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_durations()):
            out[span.name] = out.get(span.name, 0.0) + own
        return out

    def enclosing(self, span: Span, name: str) -> Span | None:
        """The nearest ancestor of *span* (or itself) called *name*."""
        while span is not None and span.name != name:
            span = span.parent
        return span

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([s.to_json(self.t0) for s in self.spans], handle)
            handle.write("\n")


class NullRecorder:
    """Stand-in for untraced passes: spans cost nothing."""

    def span(self, name: str, ident=None, **attrs):
        return contextlib.nullcontext()


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextlib.contextmanager
def instrumented(recorder: SpanRecorder):
    """Wrap every :data:`ENTRY_POINTS` function for the ``with`` body.

    Module-level functions are replaced in every ``repro`` module that
    imported them by name, so call sites that bound the function at
    import time are timed too.  Everything is restored on exit.
    """
    # Import every module that binds an entry point by name first: one
    # imported while patched would keep the wrapper after restore.
    for module_name in PRELOAD:
        importlib.import_module(module_name)
    undo = []
    try:
        for module_name, path, name in ENTRY_POINTS:
            owner, attr = _resolve(module_name, path)
            raw = owner.__dict__[attr]
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    patched = classmethod(recorder.wrap(name, raw.__func__))
                else:
                    patched = recorder.wrap(name, raw)
                undo.append((owner, attr, raw))
                setattr(owner, attr, patched)
                continue
            patched = recorder.wrap(name, raw)
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and module.__dict__.get(attr) is raw):
                    undo.append((module, attr, raw))
                    setattr(module, attr, patched)
        yield recorder
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)
