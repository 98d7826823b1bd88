"""Process-parallel sweep sharding and the pool worker.

The big sweeps (``clusterscale`` over 4 core counts x 12 kernel
variants, ``fig3 --full`` over a 7x8 block/problem grid) are
embarrassingly parallel: every cell is an independent, deterministic
simulation.  :func:`run_sharded` fans a list of picklable *cells* out
over a :class:`~concurrent.futures.ProcessPoolExecutor` and returns the
per-cell results **in input order**, so callers merge them exactly as
they would have consumed sequential results.

Determinism guarantee: a cell's result depends only on the cell payload
(kernel name, sizes, seeds, config dataclasses) — never on scheduling,
worker identity or host parallelism — so ``jobs=N`` produces the same
payload as ``jobs=1`` bit for bit.  ``jobs=1`` (the default) runs
inline in the calling process with no pool at all, which keeps
single-cell runs, debuggers and coverage tools simple.

Worker callables must be module-level functions (the pool pickles them
by reference) taking exactly one cell argument.  The module lives in
the API layer, not in :mod:`repro.eval`, so a pool worker unpickling
:func:`run_cell` imports the API layer only, never the artifact
modules; :mod:`repro.eval.parallel` re-exports every name.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Sequence, TypeVar

Cell = TypeVar("Cell")
Result = TypeVar("Result")


def default_jobs() -> int:
    """Host CPU count (the useful upper bound for ``--jobs``)."""
    return max(1, os.cpu_count() or 1)


def validate_jobs(jobs: int) -> int:
    """Clamp-free validation: jobs must be a positive integer."""
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    return jobs


def run_sharded(worker: Callable[[Cell], Result],
                cells: Sequence[Cell],
                jobs: int = 1) -> list[Result]:
    """Evaluate ``worker(cell)`` for every cell, preserving order.

    Args:
        worker: Module-level function of one picklable argument.
        cells: The sweep cells, in the order results are wanted.
        jobs: Host processes to spread the cells over.  ``1`` runs
            inline (no subprocesses); higher values use a process pool
            sized ``min(jobs, len(cells))``.

    Returns:
        ``[worker(c) for c in cells]`` — same values, same order,
        regardless of *jobs*.
    """
    validate_jobs(jobs)
    cells = list(cells)
    if jobs == 1 or len(cells) <= 1:
        return [worker(cell) for cell in cells]
    # Imported here: jobs=1 callers (most CLI calls) never pay for it.
    from concurrent.futures import ProcessPoolExecutor
    workers = min(jobs, len(cells))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, cells))


def run_cell(cell):
    """Pool worker: simulate one ``(workload, backend)`` cell.

    Module-level (picklable by reference) so the long-lived serve-layer
    pool (:class:`repro.serve.EvalService`) can ship cells to warm
    worker processes the same way sweep sharding does.
    """
    workload, backend = cell
    return backend.run(workload, check=False)


def shard_evenly(cells: Iterable[Cell], shards: int) -> list[list[Cell]]:
    """Round-robin split of *cells* into *shards* non-empty-ish lists.

    Convenience for callers that batch several cells per task to
    amortize process startup; cell order within a shard follows input
    order.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    buckets: list[list[Cell]] = [[] for _ in range(shards)]
    for i, cell in enumerate(cells):
        buckets[i % shards].append(cell)
    return [b for b in buckets if b]


def shard_hinted(cells: Sequence[Cell], jobs: int,
                 per_job: int = 4) -> list[list[Cell]]:
    """Shard with an explicit tasks-per-worker hint from the caller.

    ``shard_evenly`` needs the caller to pick a shard count;
    historically every caller hard-coded ~4 batches per job.  The hint
    makes that choice explicit and per-call: fine-grained scalar cells
    want several shards per worker for load balance (``per_job > 1``),
    while coarse tasks (e.g. one lockstep batch group) are already
    their own unit and pass ``per_job=1``.  For any hint the result
    partitions *cells* in input order, so downstream merges stay
    byte-identical.
    """
    if per_job < 1:
        raise ValueError(f"per_job must be >= 1, got {per_job}")
    cells = list(cells)
    if not cells:
        return []
    return shard_evenly(cells, min(len(cells), jobs * per_job))
