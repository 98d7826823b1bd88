"""Streaming-traffic benchmark: the serving numbers PRs must not bend.

Runs the shipped two-class ``streamscale`` scenario at two offered
loads — 70% of estimated capacity (healthy operating point) and 110%
(past the knee, where QoS arbitration decides who eats the queueing)
— and records the sustained throughput at the knee plus each class's
p99 at 70% load into a ``streamscale`` section of ``BENCH_sim.json``.

The guards are the artifact's headline claims: under saturating load
the weighted-TDM arbiter must keep the latency-critical class's p99
measurably below the bulk class's, and the knee throughput must stay
positive — a scheduling regression that silently serializes the
clusters or inverts the weights fails here before it reaches the
artifact.
"""

from __future__ import annotations

from conftest import record_section
from repro.eval.streamscale import generate

#: Arrival window per replication: long enough for stable percentiles,
#: short enough for PR CI.
DURATION = 120_000
#: Healthy load and past-the-knee load, as capacity fractions.
LOADS = (0.7, 1.1)
SEEDS = (1, 2)
#: The bulk class's p99 must exceed the critical class's by at least
#: this factor at the saturating load point (observed ~10-15x; 2x
#: catches an inverted or disconnected arbiter without flaking).
MIN_SEPARATION = 2.0



def measure() -> dict:
    payload = generate(loads=LOADS, duration=DURATION, seeds=SEEDS)
    healthy, knee = payload["points"]
    by_name = {c["name"]: c for c in healthy["classes"]}
    knee_by_name = {c["name"]: c for c in knee["classes"]}
    hi, lo = (p["name"] for p in payload["profiles"][:2])
    return {
        "policy": payload["policy"],
        "duration": DURATION,
        "seeds": list(SEEDS),
        "loads": list(LOADS),
        "knee_throughput_per_mcycle":
            round(knee["throughput"] * 1e6, 1),
        "knee_completed": knee["completed"],
        f"p99_{hi}_at_70pct": by_name[hi]["p99"],
        f"p99_{lo}_at_70pct": by_name[lo]["p99"],
        "knee_separation": round(
            knee_by_name[lo]["p99"]
            / max(knee_by_name[hi]["p99"], 1), 2),
    }


class TestStreamscale:
    def test_knee_numbers_and_qos_separation(self):
        payload = measure()
        assert payload["knee_throughput_per_mcycle"] > 0, payload
        assert payload["knee_separation"] >= MIN_SEPARATION, payload

        record_section("streamscale", payload)
