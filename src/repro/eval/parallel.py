"""Sweep sharding for the evaluation harness.

Re-exports :mod:`repro.api.parallel`, where the shard runner and the
pool worker live so that a worker process imports the API layer only.
"""

from ..api.parallel import (
    default_jobs,
    run_cell,
    run_sharded,
    shard_evenly,
    shard_hinted,
    validate_jobs,
)

__all__ = ["default_jobs", "run_cell", "run_sharded", "shard_evenly",
           "shard_hinted", "validate_jobs"]
