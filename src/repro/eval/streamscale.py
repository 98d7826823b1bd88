"""Streaming-traffic artifact: latency percentiles vs offered load.

``streamscale`` sweeps an open-loop :class:`~repro.traffic.
TrafficScenario` (two priority classes on a multi-cluster SoC; see
:func:`repro.traffic.default_scenario`) across several offered-load
points, replicated over seeds, and reports per-class p50/p95/p99
latency plus the sustained-throughput-vs-offered-load curve — the
serving-capacity view the closed-batch artifacts cannot give.

Load points are *fractions of estimated capacity* (``--rate 0.3,0.7``
sweeps 30% and 70% of the rate the clusters can sustain given the
class mix), so the curve brackets the knee regardless of kernel sizes.
Each (load point x seed) pair is one shard cell: profiles are built
once up front and embedded in the cells, cells are simulated
independently (``--jobs``), and replications merge in fixed seed
order — the payload is bit-identical for any ``--jobs N``.

``--trace-file`` replays a recorded arrival trace through the same
dispatcher instead of the Poisson sweep (one point, no seeds);
``--policy`` selects dispatch order and QoS arbitration, so a
``fifo``-vs-``priority+qos`` pair of runs shows exactly what the QoS
weights buy the latency-critical class.
"""

from __future__ import annotations

import argparse

from ..api import ArtifactRequest, ArtifactResult, ExtraFlag, artifact
from ..api.parallel import run_sharded
from ..api.record import _encode
from ..traffic import (
    POLICY_CHOICES,
    TrafficError,
    TrafficResult,
    TrafficScenario,
    build_profiles,
    default_scenario,
    load_trace,
    simulate,
    stream_record,
    traffic_registry,
)

#: Offered-load points, as fractions of estimated capacity.
DEFAULT_LOADS = (0.3, 0.5, 0.7, 0.9, 1.1)

#: Arrival window (cycles) per replication.
DEFAULT_DURATION = 240_000

#: Replication seeds, merged in this order.
DEFAULT_SEEDS = (1, 2, 3)


def parse_loads(text: str) -> tuple[float, ...]:
    """Parse a ``--rate`` value like ``0.3,0.7,1.1``."""
    loads = []
    for part in text.split(","):
        try:
            load = float(part.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"--rate expects comma-separated load fractions "
                f"(e.g. 0.3,0.7,1.1), got {part.strip()!r}"
            ) from None
        if load <= 0:
            raise argparse.ArgumentTypeError(
                f"--rate loads must be > 0, got {part.strip()!r}")
        loads.append(load)
    if not loads:
        raise argparse.ArgumentTypeError("--rate needs a load point")
    return tuple(loads)


def parse_duration(text: str) -> int:
    try:
        duration = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--duration expects an integer cycle count, got {text!r}"
        ) from None
    if duration < 1:
        raise argparse.ArgumentTypeError(
            f"--duration must be >= 1, got {duration}")
    return duration


def parse_policy_flag(text: str) -> str:
    policy = text.strip()
    if policy not in POLICY_CHOICES:
        raise argparse.ArgumentTypeError(
            f"--policy expects one of {', '.join(POLICY_CHOICES)}, "
            f"got {text!r}")
    return policy


def estimate_capacity(scenario: TrafficScenario, profiles) -> float:
    """Sustainable completion rate, requests/cycle (M/G/c-style).

    The share-weighted mean uncontended service time is the expected
    cluster occupancy per request; ``clusters`` of them serve in
    parallel.  QoS stretching and queueing push the real knee below
    this, which is why the default sweep's top load point is 1.1.
    """
    mean_cycles = sum(cls.share * p.cycles
                      for cls, p in zip(scenario.classes, profiles))
    return scenario.clusters / mean_cycles


def _run_cell(cell) -> TrafficResult:
    """Pool worker (module-level, picklable): one replication."""
    scenario, profiles, rate, duration, seed, requests = cell
    return simulate(scenario, profiles, rate, duration, seed,
                    requests=requests)


def generate(loads: tuple[float, ...] = DEFAULT_LOADS,
             duration: int = DEFAULT_DURATION,
             policy: str = "priority+qos",
             clusters: int = 2, cores: int = 4,
             seeds: tuple[int, ...] = DEFAULT_SEEDS,
             trace_file: str | None = None,
             jobs: int = 1) -> dict:
    """Run the streaming sweep; returns the artifact's payload dict.

    With a trace file the sweep collapses to one point replaying the
    trace (the offered rate is measured from the trace itself);
    otherwise every load point is replicated over *seeds* and pooled
    in seed order.
    """
    scenario = default_scenario(policy=policy, clusters=clusters,
                                cores=cores)
    profiles = build_profiles(scenario)
    capacity = estimate_capacity(scenario, profiles)
    registry = traffic_registry(scenario)

    if trace_file is not None:
        requests = load_trace(trace_file, scenario.classes)
        span = max(r.arrival for r in requests)
        cells = [(scenario, profiles, len(requests) / span, span,
                  0, requests)]
        groups = [("trace", 1)]
    else:
        cells = [(scenario, profiles, load * capacity, duration,
                  seed, None)
                 for load in loads for seed in seeds]
        groups = [(load, len(seeds)) for load in loads]

    results = iter(run_sharded(_run_cell, cells, jobs=jobs))
    points = []
    for load, replications in groups:
        pooled = next(results)
        for _ in range(replications - 1):
            pooled.merge(next(results))
        record = stream_record(scenario, profiles, pooled)
        points.append({
            "load": load,
            "offered_rate": pooled.offered_rate,
            "throughput": pooled.throughput,
            "requests": pooled.requests,
            "completed": pooled.completed,
            "makespan": pooled.makespan,
            "peak_queue_depth": pooled.peak_queue_depth,
            "metrics": registry.collect(pooled),
            "classes": [_encode(c.stats()) for c in pooled.classes],
            "record": record.to_json(),
        })

    return {
        "policy": policy,
        "clusters": clusters,
        "cores": cores,
        "duration": duration,
        "seeds": list(seeds) if trace_file is None else [],
        "trace_file": trace_file,
        "capacity_rpc": capacity,
        "profiles": [
            {
                "name": p.name,
                "kernel": p.kernel,
                "variant": p.variant,
                "n": p.n,
                "service_cycles": p.cycles,
                "dma_bytes": p.dma_bytes,
            }
            for p in profiles
        ],
        "points": points,
    }


def render(payload: dict) -> str:
    """Text view: the throughput curve + per-class tail latencies."""
    source = (f"trace {payload['trace_file']}"
              if payload["trace_file"] else
              f"{len(payload['seeds'])} seed(s), "
              f"{payload['duration']} cycles/run")
    lines = [
        f"Streaming traffic: {payload['clusters']}x{payload['cores']} "
        f"SoC, policy {payload['policy']}, {source}",
        f"(capacity estimate {payload['capacity_rpc'] * 1e6:.1f} "
        f"req/Mcycle; latencies in cycles, pooled over seeds)",
    ]
    classes = [p["name"] for p in payload["profiles"]]
    class_cols = "".join(
        f" {name + ' p50':>9} {name + ' p99':>9}" for name in classes)
    header = (f"{'load':>6} {'offered':>9} {'sustained':>10} "
              f"{'reqs':>6}{class_cols} {'peakQ':>6}")
    lines += [header, "-" * len(header)]
    for point in payload["points"]:
        by_name = {c["name"]: c for c in point["classes"]}
        cells = "".join(
            f" {by_name[name]['p50']:>9} {by_name[name]['p99']:>9}"
            for name in classes)
        load = point["load"]
        shown = f"{load:.2f}" if isinstance(load, float) else str(load)
        lines.append(
            f"{shown:>6} {point['offered_rate'] * 1e6:>9.1f} "
            f"{point['throughput'] * 1e6:>10.1f} "
            f"{point['requests']:>6}{cells} "
            f"{point['peak_queue_depth']:>6}")
    if len(payload["points"]) > 1 and len(classes) > 1:
        last = payload["points"][-1]
        by_name = {c["name"]: c for c in last["classes"]}
        hi, lo = classes[0], classes[-1]
        lines.append(
            f"at {last['load']}x load: {hi} p99 "
            f"{by_name[hi]['p99']} vs {lo} p99 {by_name[lo]['p99']} "
            f"({by_name[lo]['p99'] / max(by_name[hi]['p99'], 1):.1f}x "
            f"separation)")
    return "\n".join(lines)


def observe_streamscale(request: ArtifactRequest) -> tuple:
    """Representative cell for ``--trace``/``--profile``: one
    uncontended high-class request on the scenario's cluster shape."""
    from ..api import ClusterBackend, Workload
    scenario = default_scenario()
    cls = scenario.classes[0]
    return (Workload(cls.kernel, cls.variant, n=cls.n),
            ClusterBackend(cores=scenario.cores, writeback=True))


@artifact("streamscale", sharded=True, order=48,
          help="open-loop streaming traffic: latency percentiles "
               "vs offered load",
          flags=(
              ExtraFlag(
                  "--rate",
                  help="offered-load points as fractions of estimated "
                       "capacity, comma-separated (default "
                       "0.3,0.5,0.7,0.9,1.1)",
                  parse=parse_loads, metavar="L1,L2,..."),
              ExtraFlag(
                  "--duration",
                  help="arrival window per replication, in cycles "
                       f"(default {DEFAULT_DURATION})",
                  parse=parse_duration, metavar="CYCLES"),
              ExtraFlag(
                  "--trace-file",
                  help="replay this arrival trace ('<cycle> <class>' "
                       "per line) instead of the Poisson sweep",
                  metavar="PATH"),
              ExtraFlag(
                  "--policy",
                  help="dispatch/arbitration policy: "
                       + ", ".join(POLICY_CHOICES)
                       + " (default priority+qos)",
                  parse=parse_policy_flag, metavar="POLICY"),
          ),
          observe=observe_streamscale)
def streamscale_artifact(request: ArtifactRequest) -> ArtifactResult:
    try:
        payload = generate(
            loads=request.extra("rate", DEFAULT_LOADS),
            duration=request.extra("duration", DEFAULT_DURATION),
            policy=request.extra("policy", "priority+qos"),
            trace_file=request.extra("trace_file"),
            jobs=request.jobs,
        )
    except TrafficError as exc:
        raise SystemExit(f"streamscale: {exc}") from None
    return ArtifactResult("streamscale", render(payload), payload)
