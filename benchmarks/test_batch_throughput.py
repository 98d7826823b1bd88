"""Batch-engine throughput benchmark: lockstep fleet vs scalar loop.

Measures the acceptance scenario of the vectorized batch engine: a
64-cell homogeneous sweep (one Monte Carlo kernel, 64 distinct PRNG
seeds — one cohort, per-lane immediates) run through
``Sweep(batch=64)`` versus the same cells on the scalar engine at
``jobs=1``.  The ``batch_engine`` section is merged into the repo-root
``BENCH_sim.json`` (alongside the scalar engine's trajectory) so every
PR records the speedup.

The speedup guard is **non-blocking** (xfail below the 3x floor):
rates are host-dependent and the tier-1 suite collects this directory,
so a slow shared runner must not fail the build.  The byte-identity of
the records, however, is a hard assertion — a batch engine that is
fast but wrong is worthless.
"""

from __future__ import annotations

import json
import time

import pytest

from conftest import BENCH_PATH, record_section
from repro.api import Sweep, Workload

#: Homogeneous fleet: one kernel, 64 seeds, one lockstep cohort.
KERNEL = "pi_xoshiro128p"
CELLS = 64
N = 1024
#: Best-of repetitions (simulation is deterministic; the minimum is
#: the least-noise estimate).  The scalar side is ~6x the work, so it
#: gets fewer reps.
BATCH_REPS = 3
SCALAR_REPS = 2
#: Acceptance floor (target is 5x); below it the guard xfails.
FLOOR = 3.0



def _workloads() -> list[Workload]:
    return [Workload(KERNEL, "baseline", n=N, seed=seed)
            for seed in range(CELLS)]


def measure() -> dict:
    """Best-of wall-clock for the batch and scalar sweep executors."""
    workloads = _workloads()
    # Warm the interpreter and the numpy dispatch caches.
    Sweep(workloads[:2], batch=2).run(cache=False)

    batch_best = None
    batched = None
    for _ in range(BATCH_REPS):
        t0 = time.perf_counter()
        batched = Sweep(workloads, batch=CELLS).run(cache=False)
        dt = time.perf_counter() - t0
        if batch_best is None or dt < batch_best:
            batch_best = dt
    scalar_best = None
    scalar = None
    for _ in range(SCALAR_REPS):
        t0 = time.perf_counter()
        scalar = Sweep(workloads).run(cache=False)
        dt = time.perf_counter() - t0
        if scalar_best is None or dt < scalar_best:
            scalar_best = dt

    identical = all(
        json.dumps(s.to_json(), sort_keys=True)
        == json.dumps(b.to_json(), sort_keys=True)
        for s, b in zip(scalar, batched))
    instructions = int(sum(round(r.cycles * r.ipc) for r in scalar))
    return {
        "kernel": KERNEL,
        "cells": CELLS,
        "n": N,
        "identical": identical,
        "instructions": instructions,
        "scalar_seconds": round(scalar_best, 4),
        "batch_seconds": round(batch_best, 4),
        "scalar_instr_per_sec": round(instructions / scalar_best, 1),
        "batch_instr_per_sec": round(instructions / batch_best, 1),
        "speedup": round(scalar_best / batch_best, 3),
    }


@pytest.fixture(scope="module")
def bench() -> dict:
    section = measure()
    # Merge, never overwrite: BENCH_sim.json also carries the scalar
    # engine's trajectory (test_sim_throughput.py).
    record_section("batch_engine", section)
    return section


class TestBatchThroughput:
    def test_records_byte_identical(self, bench):
        assert bench["identical"] is True

    def test_section_written(self, bench):
        with open(BENCH_PATH) as handle:
            on_disk = json.load(handle)
        assert on_disk["batch_engine"] == bench

    def test_speedup_floor(self, bench):
        """Non-blocking guard: host-dependent, so xfail — the number
        still lands in BENCH_sim.json either way."""
        if bench["speedup"] < FLOOR:
            pytest.xfail(
                f"batch speedup {bench['speedup']}x below the "
                f"{FLOOR}x floor on this host")
        assert bench["speedup"] >= FLOOR


if __name__ == "__main__":
    print(json.dumps(measure(), indent=1, sort_keys=True))
