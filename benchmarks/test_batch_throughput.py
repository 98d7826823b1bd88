"""Batch-engine throughput benchmark: lockstep fleet vs scalar loop.

Measures the acceptance scenarios of the vectorized batch engine: a
homogeneous seed sweep (one Monte Carlo kernel, distinct PRNG seeds —
one cohort, per-lane immediates) run through ``Sweep(batch=cells)``
versus the same cells on the scalar engine at ``jobs=1``.  The
baseline variant (64 cells) exercises the integer and FP plans; the
copift variant (16 cells) runs SSR streams and FREP replays on the
cohort's shared timeline.  Each case owns one section —
``batch_engine`` and ``batch_engine_copift`` — merged through
``conftest.record_section``: into the repo-root ``BENCH_sim.json``
(alongside the scalar engine's trajectory) only when
``REPRO_BENCH_WRITE=1`` is set, and otherwise into a temporary copy, so
a plain test run leaves the checkout clean.

The speedup guards are **non-blocking** (xfail below the 3x / 2x
floors): rates are host-dependent and the tier-1 suite collects this
directory, so a slow shared runner must not fail the build.  The
byte-identity of the records, however, is a hard assertion — a batch
engine that is fast but wrong is worthless.
"""

from __future__ import annotations

import json
import time

import pytest

from conftest import BENCH_PATH, record_section
from repro.api import Sweep, Workload

#: Homogeneous fleet: one kernel, one seed per lane, one cohort.
KERNEL = "pi_xoshiro128p"
N = 1024
#: Best-of repetitions (simulation is deterministic; the minimum is
#: the least-noise estimate).  The scalar side is several times the
#: work, so it gets fewer reps.
BATCH_REPS = 3


def measure(variant: str = "baseline", cells: int = 64,
            scalar_reps: int = 2) -> dict:
    """Best-of wall-clock for the batch and scalar sweep executors."""
    workloads = [Workload(KERNEL, variant, n=N, seed=seed)
                 for seed in range(cells)]
    # Warm the interpreter and the numpy dispatch caches.
    Sweep(workloads[:2], batch=2).run(cache=False)

    batch_best = None
    batched = None
    for _ in range(BATCH_REPS):
        t0 = time.perf_counter()
        batched = Sweep(workloads, batch=cells).run(cache=False)
        dt = time.perf_counter() - t0
        if batch_best is None or dt < batch_best:
            batch_best = dt
    scalar_best = None
    scalar = None
    for _ in range(scalar_reps):
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
        "variant": variant,
        "cells": cells,
        "n": N,
        "identical": identical,
        "instructions": instructions,
        "scalar_seconds": round(scalar_best, 4),
        "batch_seconds": round(batch_best, 4),
        "scalar_instr_per_sec": round(instructions / scalar_best, 1),
        "batch_instr_per_sec": round(instructions / batch_best, 1),
        "speedup": round(scalar_best / batch_best, 3),
    }


class TestBatchThroughput:
    """64 baseline cells; acceptance floor 3x (target 5x)."""

    SECTION = "batch_engine"
    VARIANT = "baseline"
    CELLS = 64
    SCALAR_REPS = 2
    FLOOR = 3.0

    @pytest.fixture(scope="class")
    def bench(self) -> dict:
        section = measure(self.VARIANT, self.CELLS, self.SCALAR_REPS)
        # Merge, never overwrite: BENCH_sim.json also carries the
        # scalar engine's trajectory (test_sim_throughput.py).
        record_section(self.SECTION, section)
        return section

    def test_records_byte_identical(self, bench):
        assert bench["identical"] is True

    def test_section_written(self, bench):
        with open(BENCH_PATH) as handle:
            on_disk = json.load(handle)
        assert on_disk[self.SECTION] == bench

    def test_speedup_floor(self, bench):
        """Non-blocking guard: host-dependent, so xfail — the number
        is still recorded either way."""
        if bench["speedup"] < self.FLOOR:
            pytest.xfail(
                f"batch speedup {bench['speedup']}x below the "
                f"{self.FLOOR}x floor on this host")
        assert bench["speedup"] >= self.FLOOR


class TestCopiftBatchThroughput(TestBatchThroughput):
    """16 copift cells: SSR streams and FREP on the shared timeline."""

    SECTION = "batch_engine_copift"
    VARIANT = "copift"
    CELLS = 16
    SCALAR_REPS = 1
    FLOOR = 2.0


if __name__ == "__main__":
    print(json.dumps({case.SECTION: measure(case.VARIANT, case.CELLS,
                                            case.SCALAR_REPS)
                      for case in (TestBatchThroughput,
                                   TestCopiftBatchThroughput)},
                     indent=1, sort_keys=True))
