"""Batch-engine planning for sweeps: lockstep groups as pool tasks.

:class:`~repro.api.sweep.Sweep` delegates here when constructed with
``batch=...``: pending cells whose backend is a bare-core
:class:`~repro.api.backend.CoreBackend` are grouped per backend
instance and chunked into lockstep *batch tasks* of at most the lane
width; everything else (cluster/SoC backends, singleton chunks)
stays on the scalar path.  Batch tasks are the per-task sharding unit,
so ``batch=`` composes with ``--jobs`` process sharding, and the
result contract is unchanged: ``(index, record)`` pairs whose records
are byte-identical to the scalar engine's.
"""

from __future__ import annotations

from .backend import CoreBackend, record_from_result

#: Lane width selected by ``batch="auto"``: wide enough to amortize
#: numpy dispatch over the fleet, small enough that one task is still
#: a sensible sharding unit next to ``--jobs``.
DEFAULT_LANES = 64


def resolve_batch(batch) -> int | None:
    """Normalize a ``Sweep(batch=...)`` value to a lane count.

    ``None`` disables batching; ``"auto"`` selects
    :data:`DEFAULT_LANES`; a positive integer is used as-is.
    """
    if batch is None:
        return None
    if batch == "auto":
        return DEFAULT_LANES
    if isinstance(batch, bool) or not isinstance(batch, int) \
            or batch < 1:
        raise ValueError(
            f"batch must be 'auto', an integer >= 1, or None; "
            f"got {batch!r}"
        )
    return batch


def plan_batch(pending: list, lanes: int) -> tuple[list, list]:
    """Split pending cells into batch tasks and scalar leftovers.

    Args:
        pending: ``(index, workload, backend, check)`` tuples, in
            sweep order, as built by :meth:`Sweep.run`.
        lanes: Maximum lanes per lockstep group.

    Returns:
        ``(batch_tasks, scalar_pending)`` where each batch task is
        ``(backend, [(index, workload, check), ...])``.  Cells are
        grouped by backend *identity* (sweeps reuse one backend
        object per column; dataclass equality would conflate
        differently configured backends whose compare-excluded
        fields differ) and chunked to at most *lanes*.  Chunks of
        one cell gain nothing from lockstep and stay scalar.
    """
    groups: dict[int, tuple] = {}
    scalar_pending: list = []
    for cell in pending:
        index, workload, backend, check = cell
        if isinstance(backend, CoreBackend):
            group = groups.setdefault(id(backend), (backend, []))
            group[1].append((index, workload, check))
        else:
            scalar_pending.append(cell)
    batch_tasks = []
    for backend, items in groups.values():
        for at in range(0, len(items), lanes):
            chunk = items[at:at + lanes]
            if len(chunk) == 1:
                index, workload, check = chunk[0]
                scalar_pending.append(
                    (index, workload, backend, check))
            else:
                batch_tasks.append((backend, chunk))
    # Keep scalar leftovers in sweep order: sharding is deterministic
    # either way, but ordered shards keep worker payloads stable.
    scalar_pending.sort(key=lambda cell: cell[0])
    return batch_tasks, scalar_pending


def run_batch_cells(backend: CoreBackend, items: list) -> list:
    """Execute one lockstep group; return ``(index, record)`` pairs.

    Mirrors the scalar cell path exactly: per-lane errors re-raise
    (the whole sweep fails, as it would have scalar), ``check=True``
    verifies against the lane's memory image and final machine state,
    and records are produced by the same
    :func:`~repro.api.backend.record_from_result` tail the scalar
    path uses.
    """
    # Imported lazily: a process that never batches never imports the
    # batch engine, which keeps cold start short.
    from ..sim.batch import BatchEngine

    instances = [workload.build() for _, workload, _ in items]
    engine = BatchEngine(instances, config=backend.config).run()
    out = []
    for lane, (index, workload, check) in enumerate(items):
        error = engine.errors[lane]
        if error is not None:
            raise error
        if check:
            instance = instances[lane]
            instance.verify(instance.memory, engine.machine(lane))
        record = record_from_result(
            instances[lane], engine.results[lane],
            energy_model=backend.energy_model, seed=workload.seed)
        out.append((index, record))
    return out
