"""Layer-ladder benchmark: host cost per simulated instruction per rung.

Runs one cell (expf/copift at n=1024) through the backend of every
hierarchy rung — ``core``, ``cluster:1``, ``cluster:8``, ``soc:2x4``
and ``soc:2x4+wb`` — and records, per rung, the host nanoseconds per
simulated instruction of a whole backend run (build, simulate and
price) plus its ratio to the rung below.  The ``layer_ladder`` section
of ``BENCH_sim.json`` is the trajectory a change to a layer's driver
cites.

Methodology: best (minimum) wall-clock of :data:`REPS` runs per rung,
the runs taken round the rungs in turn; simulation is deterministic,
so the minimum is the least-noise estimate.  The ratio guard is
**non-blocking** (xfail above the ceiling): host speed and load move
it, and the tier-1 suite collects this directory.
"""

from __future__ import annotations

import json
import time

import pytest

from conftest import BENCH_PATH, record_section
from repro.api import Workload, parse_backend

#: The climbed cell.
KERNEL, VARIANT, N = "expf", "copift", 1024
#: The rungs, bottom first.
RUNGS = ("core", "cluster:1", "cluster:8", "soc:2x4", "soc:2x4+wb")
#: Best-of repetitions per rung.
REPS = 3
#: Soft ceiling on ``soc:2x4`` host ns/instr over ``core``'s.
SOC_OVER_CORE = 2.5


def measure() -> dict:
    """Best-of-REPS host ns per simulated instruction on every rung.

    The repetitions go round the rungs in turn, so a slow spell of the
    host lands on every rung rather than on one.
    """
    workload = Workload(KERNEL, VARIANT, n=N)
    backends = {spec: parse_backend(spec) for spec in RUNGS}
    # Warm the interpreter on a small run of the top rung.
    parse_backend("soc:1x2+wb").run(Workload(KERNEL, VARIANT, n=256))
    best = dict.fromkeys(RUNGS, float("inf"))
    records = {}
    for _ in range(REPS):
        for spec, backend in backends.items():
            t0 = time.perf_counter()
            records[spec] = backend.run(workload)
            best[spec] = min(best[spec], time.perf_counter() - t0)
    rungs = {}
    below = None
    for spec in RUNGS:
        record = records[spec]
        ns = best[spec] / record.instructions * 1e9
        rungs[spec] = {
            "instructions": record.instructions,
            "cycles": record.cycles,
            "seconds": round(best[spec], 4),
            "ns_per_instr": round(ns, 1),
            "ratio_below": round(ns / below, 3) if below else None,
        }
        below = ns
    return {"cell": f"{KERNEL}/{VARIANT}", "n": N, "reps": REPS,
            "rungs": rungs}


@pytest.fixture(scope="module")
def bench() -> dict:
    payload = measure()
    record_section("layer_ladder", payload)
    return payload


class TestLayerLadder:
    def test_every_rung_measured(self, bench):
        assert list(bench["rungs"]) == list(RUNGS)
        for spec, row in bench["rungs"].items():
            assert row["instructions"] > 0, spec
            assert row["ns_per_instr"] > 0, spec

    def test_ratios_chain_the_rungs(self, bench):
        rows = list(bench["rungs"].values())
        assert rows[0]["ratio_below"] is None
        for lower, upper in zip(rows, rows[1:]):
            assert upper["ratio_below"] == pytest.approx(
                upper["ns_per_instr"] / lower["ns_per_instr"], rel=1e-2)

    def test_section_written(self, bench):
        with open(BENCH_PATH) as handle:
            on_disk = json.load(handle)
        assert on_disk["layer_ladder"] == bench

    def test_soc_over_core_ceiling(self, bench):
        """Non-blocking guard: host-dependent, so xfail — the numbers
        still land in BENCH_sim.json either way."""
        rungs = bench["rungs"]
        ratio = (rungs["soc:2x4"]["ns_per_instr"]
                 / rungs["core"]["ns_per_instr"])
        if ratio > SOC_OVER_CORE:
            pytest.xfail(f"soc:2x4 costs {ratio:.2f}x core per "
                         f"instruction, above the {SOC_OVER_CORE}x "
                         f"ceiling on this host")
        assert ratio <= SOC_OVER_CORE


if __name__ == "__main__":
    print(json.dumps(measure(), indent=1, sort_keys=True))
