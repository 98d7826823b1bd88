"""Serve-cache benchmark: what a warm store is actually worth.

Runs the same sweep (all six kernels, both variants, one core) twice
through an explicit :class:`repro.serve.RunStore` in a fresh temp
directory — once cold (every cell simulates and persists) and once
warm (every cell answered from disk) — and records the wall-clock
ratio.  The guard is deliberately loose: JSON parsing must beat
re-simulation by a wide margin on any host, so a warm run slower than
:data:`MAX_WARM_RATIO` of the cold run means the cache path regressed
(e.g. a lookup started re-simulating or re-hashing per record).

Results merge into ``BENCH_sim.json`` under a ``serve_cache`` section
so every PR leaves a speedup trajectory next to the throughput
numbers.
"""

from __future__ import annotations

import tempfile
import time

from conftest import record_section
from repro.api import Sweep, Workload
from repro.kernels.registry import KERNELS
from repro.serve import RunStore

#: Problem size per cell: steady-state dominated, CI-friendly.
N = 1024
#: A warm run may cost at most this fraction of the cold run.  Real
#: ratios are ~1-5%; 50% leaves room for loaded CI hosts while still
#: catching a cache path that quietly re-simulates.
MAX_WARM_RATIO = 0.5



def measure() -> dict:
    sweep = Sweep([Workload(name, variant, n=N)
                   for name in KERNELS
                   for variant in ("baseline", "copift")])
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as root:
        store = RunStore(root)
        t0 = time.perf_counter()
        cold = sweep.run(cache=store)
        cold_s = time.perf_counter() - t0
        assert store.stats.stores == len(cold)
        t0 = time.perf_counter()
        warm = sweep.run(cache=store)
        warm_s = time.perf_counter() - t0
        assert store.stats.hits == len(warm)
        assert [r.to_json() for r in warm] == [r.to_json()
                                               for r in cold]
    return {
        "n": N,
        "cells": len(cold),
        "cold_seconds": round(cold_s, 4),
        "warm_seconds": round(warm_s, 4),
        "warm_ratio": round(warm_s / cold_s, 4),
        "speedup": round(cold_s / warm_s, 1),
    }


class TestServeCache:
    def test_warm_run_is_cheap(self):
        payload = measure()
        if payload["warm_ratio"] > MAX_WARM_RATIO:
            # One retry absorbs host noise; a real regression repeats.
            payload = measure()
        assert payload["warm_ratio"] <= MAX_WARM_RATIO, payload

        record_section("serve_cache", payload)
