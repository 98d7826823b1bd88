"""Async evaluation service: warm cache in front, worker pool behind.

:class:`EvalService` is the long-lived front end the serve layer is
named for.  Requests (one ``(workload, backend)`` cell each) resolve
in three tiers:

1. **store hit** — the content-addressed :class:`~repro.serve.store.
   RunStore` already holds the record; no simulation.
2. **coalesced** — an identical cell is being simulated *right now*;
   the request piggybacks on that in-flight future, so N concurrent
   clients asking for one cell trigger exactly one simulation.
3. **miss** — the cell is admitted to the bounded recompute stage
   (an :class:`asyncio.Semaphore` caps concurrently admitted cells;
   excess misses queue on the semaphore, which is the service's
   backpressure) and runs on a persistent
   :class:`~concurrent.futures.ProcessPoolExecutor` via the same
   module-level worker sweep sharding uses.  The result is persisted
   before the response goes out.

Traffic counters (hit/miss/coalesced/in-flight) are published through
the observability layer's :class:`~repro.obs.MetricsRegistry`
(:func:`service_registry`), so the serve metrics carry the same
name/unit/help discipline as every simulator metric.
"""

from __future__ import annotations

import asyncio
import inspect
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from ..api.parallel import run_cell
from ..obs.metrics import Metric, MetricsRegistry
# ``cache_key`` is read through its module on each call, not bound by
# name: this module loads on first use, possibly while a tracer has the
# function wrapped, and a by-name copy would keep the wrapper.
from . import store as _store


@dataclass
class ServiceStats:
    """Request counters of one service instance."""

    hits: int = 0
    misses: int = 0
    coalesced: int = 0
    in_flight: int = 0
    peak_in_flight: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses + self.coalesced


def service_registry() -> MetricsRegistry:
    """The serve-layer metrics, named like every other repo metric."""
    registry = MetricsRegistry()
    registry.register_many([
        Metric("serve.requests", "requests",
               "evaluation requests answered",
               lambda s: s.requests),
        Metric("serve.hits", "requests",
               "answered from the content-addressed store",
               lambda s: s.hits),
        Metric("serve.misses", "requests",
               "required a fresh simulation",
               lambda s: s.misses),
        Metric("serve.coalesced", "requests",
               "piggybacked on an identical in-flight simulation",
               lambda s: s.coalesced),
        Metric("serve.in_flight", "cells",
               "simulations admitted right now",
               lambda s: s.in_flight),
        Metric("serve.peak_in_flight", "cells",
               "most simulations admitted at once",
               lambda s: s.peak_in_flight),
    ])
    return registry


class EvalService:
    """Coalescing, cache-backed evaluator of workload x backend cells.

    Args:
        store: Result store consulted/filled per cell (None runs
            cache-less but still coalesces).
        jobs: Worker processes in the persistent simulation pool.
        max_pending: Bound on concurrently *admitted* recomputes; the
            backpressure knob — misses beyond it wait in line.
        runner: Override for the simulation call, ``(workload,
            backend) -> RunRecord`` (sync or async).  Tests inject
            counting/fake runners; the default ships cells to the
            process pool.
    """

    def __init__(self, store: _store.RunStore | None = None, jobs: int = 1,
                 max_pending: int = 8, runner=None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {max_pending}")
        self.store = store
        self.jobs = jobs
        self.stats = ServiceStats()
        self.registry = service_registry()
        self._runner = runner
        self._pool: ProcessPoolExecutor | None = None
        self._inflight: dict[str, asyncio.Future] = {}
        self._admit = asyncio.Semaphore(max_pending)

    # -- simulation ----------------------------------------------------

    async def _simulate(self, workload, backend):
        if self._runner is not None:
            result = self._runner(workload, backend)
            if inspect.isawaitable(result):
                result = await result
            return result
        if self._pool is None:
            # spawn, not fork: the service runs inside an asyncio
            # loop with helper threads (stdin reader, executor
            # manager), and a fork can inherit one of their locks in
            # the locked state — the worker then deadlocks in its own
            # bootstrap.  Spawned workers start from a clean
            # interpreter; the pool is persistent, so the one-time
            # startup cost amortizes over the session.
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=multiprocessing.get_context("spawn"))
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, run_cell,
                                          (workload, backend))

    # -- the request path ----------------------------------------------

    async def evaluate(self, workload, backend):
        """Resolve one cell; returns ``(record, status)``.

        *status* is ``"hit"`` (store), ``"coalesced"`` (shared an
        in-flight simulation) or ``"miss"`` (simulated here).  A hit
        is identity-checked by the store; an uncacheable cell (custom
        backend state) always simulates and never coalesces.
        """
        if self.store is not None:
            record = self.store.lookup(workload, backend)
            if record is not None:
                self.stats.hits += 1
                return record, "hit"
        key = (self.store.key_for(workload, backend)
               if self.store is not None
               else _store.cache_key(workload, backend))
        pending = self._inflight.get(key) if key is not None else None
        if pending is not None:
            self.stats.coalesced += 1
            record = await asyncio.shield(pending)
            return record, "coalesced"

        future = asyncio.get_running_loop().create_future()
        if key is not None:
            self._inflight[key] = future
        try:
            async with self._admit:
                self.stats.misses += 1
                self.stats.in_flight += 1
                self.stats.peak_in_flight = max(
                    self.stats.peak_in_flight, self.stats.in_flight)
                try:
                    record = await self._simulate(workload, backend)
                finally:
                    self.stats.in_flight -= 1
            if self.store is not None:
                self.store.save(workload, backend, record)
            future.set_result(record)
            return record, "miss"
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                # Mark retrieved: with no coalesced waiters the event
                # loop would otherwise log a never-retrieved warning.
                future.exception()
            raise
        finally:
            if key is not None:
                self._inflight.pop(key, None)

    # -- stats / lifecycle ---------------------------------------------

    def stats_json(self) -> dict:
        """Service + store counters through the metrics registry.

        The ``store`` block carries this process's session counters
        plus the full :meth:`~repro.serve.store.RunStore.describe`
        summary — including the ``cumulative`` sidecar totals other
        processes have flushed, which a session-only view would miss.
        """
        out = dict(self.registry.collect(self.stats))
        if self.store is not None:
            out["store"] = self.store.stats.to_json()
            out["store"].update(self.store.describe())
        return out

    async def close(self) -> None:
        """Shut the worker pool down and flush store stats."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self.store is not None:
            self.store.flush_stats()
