"""Declarative sweeps: workloads x backends, executed in one place.

A :class:`Sweep` is the cross-product of workload specs and backend
specs.  Its executor is the **only** sharding/batching site in the
repo: every artifact fans its cells through :meth:`Sweep.run`, which

* **validates** every cell (builds or partitions it) before any cell
  simulates, so a bad cell raises one :class:`CellError` naming it;
* preserves **input order** — results line up with :meth:`Sweep.cells`
  regardless of parallelism;
* guarantees **determinism** — each cell's record depends only on the
  (workload, backend) pair, so ``jobs=N`` output is bit-identical to
  ``jobs=1`` (the property the CLI's ``--jobs`` flag documents);
* **batches** fine-grained cells per pool task via
  :func:`repro.api.parallel.shard_hinted`, amortizing process startup
  and pickling overhead when a sweep has many more cells than workers;
* optionally runs bare-core cells through the **vectorized batch
  engine** (``Sweep(batch=...)``): eligible cells are grouped into
  lockstep fleets stepped by :class:`repro.sim.batch.BatchEngine`,
  each group one pool task, with records byte-identical to the scalar
  engine's for every ``jobs``/``batch`` combination.

Cells (workload + backend dataclasses) are picklable by construction,
so the executor needs no per-artifact worker plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..sim.memory import MemoryError_
from .backend import Backend, parse_backend
from .parallel import run_sharded, shard_hinted, validate_jobs
from .record import RunRecord
from .workload import CellError, Workload

#: Target pool tasks per worker process.  More than one keeps the pool
#: load-balanced when cell costs vary (big-n cells dominate sweeps);
#: far fewer tasks than cells amortizes fork/pickle overhead.
_BATCHES_PER_JOB = 4


def _run_batch(batch: list) -> list:
    """Pool worker: run one batch of indexed cells.

    Module-level (picklable by reference); returns ``(index, record)``
    pairs so the merger can restore global sweep order no matter how
    cells were grouped into batches.
    """
    return [(index, backend.run(workload, check=check))
            for index, workload, backend, check in batch]


def _run_task(task: tuple) -> list:
    """Pool worker: one sweep task, scalar shard or lockstep group.

    Tasks are ``("scalar", cells)`` — a shard of independent cells run
    through the backends one by one — or ``("batch", (backend,
    items))`` — one vectorized lockstep group stepped by the
    :class:`~repro.sim.batch.BatchEngine`.  Both return the same
    ``(index, record)`` pairs, so the merger below is agnostic.
    """
    kind, payload = task
    if kind == "batch":
        from .batchrun import run_batch_cells
        backend, items = payload
        return run_batch_cells(backend, items)
    return _run_batch(payload)


@dataclass(frozen=True)
class Sweep:
    """Cross-product sweep of workloads over backends.

    Attributes:
        workloads: Workload specs, in result-major order.
        backends: Backend instances or spec strings (``"core"``,
            ``"cluster:4"``); strings are resolved on construction.
        batch: Vectorized lockstep execution of bare-core cells:
            ``None`` (default) runs every cell on the scalar engine,
            ``"auto"`` groups eligible cells into lockstep batches of
            a default lane width, an integer sets the width
            explicitly.  Records are byte-identical for every value
            (the batch engine is equivalence-locked against the
            scalar scheduler); cluster/SoC cells always run scalar.
    """

    workloads: tuple[Workload, ...]
    backends: tuple[Backend, ...] = ("core",)
    batch: int | str | None = None

    def __init__(self, workloads: Iterable[Workload],
                 backends: Sequence[Backend | str] = ("core",),
                 batch: int | str | None = None) -> None:
        from .batchrun import resolve_batch

        resolved = tuple(
            parse_backend(b) if isinstance(b, str) else b
            for b in backends
        )
        resolve_batch(batch)        # validate eagerly, store verbatim
        object.__setattr__(self, "workloads", tuple(workloads))
        object.__setattr__(self, "backends", resolved)
        object.__setattr__(self, "batch", batch)
        if not self.workloads:
            raise ValueError("sweep needs at least one workload")
        if not resolved:
            raise ValueError("sweep needs at least one backend")

    def cells(self) -> list[tuple[Workload, Backend]]:
        """The sweep cells, workload-major, in execution order."""
        return [(w, b) for w in self.workloads for b in self.backends]

    def run(self, jobs: int = 1, check: bool = False,
            cache=None) -> list[RunRecord]:
        """Execute every cell; records come back in :meth:`cells` order.

        ``jobs=1`` runs inline (no pool); higher values shard batched
        cells over that many host processes.  Output is identical for
        every *jobs* value.

        *cache* selects the result store consulted per cell **before**
        sharding: ``None`` (default) uses the ambient
        :func:`repro.serve.active_store` (none, unless a caller such as
        the eval CLI activated one), ``False`` disables caching for
        this run, and a :class:`repro.serve.RunStore` is used directly.
        Identical cells within the sweep are always simulated once and
        fanned out (the very record object is shared, so payloads stay
        byte-identical); ``check=True`` bypasses the persistent store —
        a cached record cannot attest a fresh output verification —
        but keeps the in-sweep dedupe.
        """
        from ..serve.client import active_store
        from ..serve.store import cache_key
        from .batchrun import plan_batch, resolve_batch

        validate_jobs(jobs)
        if cache is None:
            store = active_store()
        else:
            store = cache or None
        cells = self.cells()
        records: list[RunRecord | None] = [None] * len(cells)
        fingerprint = store.fingerprint if store is not None else None
        leaders: dict[str, int] = {}
        followers: dict[int, int] = {}   # follower index -> leader
        pending: list[tuple] = []
        keys: list[str | None] = []
        for i, (w, b) in enumerate(cells):
            key = cache_key(w, b, fingerprint=fingerprint)
            keys.append(key)
            if key is not None and store is not None and not check:
                cached = store.lookup(w, b, key=key)
                if cached is not None:
                    records[i] = cached
                    continue
            if key is not None and key in leaders:
                followers[i] = leaders[key]
                if store is not None:
                    store.stats.deduped += 1
                continue
            if key is not None:
                leaders[key] = i
            pending.append((i, w, b, check))

        # Fail fast: a cell that cannot be built or partitioned, or
        # whose data does not fit the core's memory, raises here,
        # before any cell simulates.  Seeds only change data, so cells
        # differing only in seed are checked once.
        checked = set()
        for _, w, b, _ in pending:
            shape = (w.kernel, w.variant, w.n, w.block, b.spec)
            if shape in checked:
                continue
            checked.add(shape)
            try:
                b.validate(w)
            except (ValueError, MemoryError_) as exc:
                raise CellError(f"{w.kernel}/{w.variant} n={w.n} on "
                                f"{b.spec}: {exc}") from None

        lanes = resolve_batch(self.batch)
        scalar_pending = pending
        batch_tasks: list = []
        if lanes is not None and lanes > 1 and pending:
            batch_tasks, scalar_pending = plan_batch(pending, lanes)
        tasks = [("batch", task) for task in batch_tasks]
        if scalar_pending:
            if jobs == 1:
                tasks.append(("scalar", scalar_pending))
            else:
                tasks.extend(
                    ("scalar", shard) for shard in
                    shard_hinted(scalar_pending, jobs,
                                 per_job=_BATCHES_PER_JOB))
        if not tasks:
            computed = []
        elif jobs == 1 or len(tasks) == 1:
            computed = [pair for task in tasks
                        for pair in _run_task(task)]
        else:
            computed = [pair
                        for task_out in run_sharded(_run_task, tasks,
                                                    jobs=jobs)
                        for pair in task_out]
        for index, record in computed:
            records[index] = record
            if store is not None and not check \
                    and keys[index] is not None:
                workload, backend = cells[index]
                store.save(workload, backend, record,
                           key=keys[index])
        for follower, leader in followers.items():
            records[follower] = records[leader]
        return records

    def index(self, records: Sequence[RunRecord]
              ) -> dict[tuple[Workload, str], RunRecord]:
        """Key already-computed :meth:`run` output by
        ``(workload, backend spec)`` — no re-simulation.

        Raises ``ValueError`` if two cells share a key (duplicate
        workloads, or two backends with the same spec string, e.g. two
        differently-configured ``CoreBackend``s) — a dict would
        silently keep only the last record.
        """
        cells = self.cells()
        if len(records) != len(cells):
            raise ValueError(
                f"{len(records)} records for {len(cells)} cells; "
                f"pass the unfiltered output of run()"
            )
        indexed: dict[tuple[Workload, str], RunRecord] = {}
        for (w, b), record in zip(cells, records):
            key = (w, b.spec)
            if key in indexed:
                raise ValueError(
                    f"duplicate sweep cell {w.kernel}/{w.variant} on "
                    f"{b.spec!r}; use run() for positional results"
                )
            indexed[key] = record
        return indexed

    def run_indexed(self, jobs: int = 1, check: bool = False
                    ) -> dict[tuple[Workload, str], RunRecord]:
        """:meth:`run` + :meth:`index` in one call."""
        return self.index(self.run(jobs=jobs, check=check))
