"""Per-layer metrics, read from the spans of a traced run.

Times are self times (a span minus its children), and every time and
count is per traced pass, so runs with different pass counts compare.
Ratios name their base in :data:`LAYER_METRICS`.  A layer the workload
does not reach reads 0.  Span times are host seconds as measured, the
speedometer's timer slices included (about 2.5%); the two wall-time
ratios compare reference-host seconds.
"""

from __future__ import annotations

import statistics

from repro.sim.batch import program_signature

from spans import SpanRecorder
from workloads import LADDER_RUNGS

#: Ladder rung metric names (``soc:2x4+wb`` -> ``soc2x4wb``).
RUNG_NAMES = {spec: spec.replace(":", "").replace("+", "")
              for spec in LADDER_RUNGS}

#: Spans that build programs, and spans that simulate them.
BUILD_SPANS = ("kernels.build", "cluster.partition", "soc.partition")
SIM_SPANS = ("sim.run", "sim.decode", "cluster.run", "soc.run")


def _rung_metrics() -> list[tuple[str, str, str, str]]:
    rows = []
    for rung in RUNG_NAMES.values():
        rows += [(f"ladder.{rung}.build_ns_per_instr", "ns/instr", "lower",
                  "program build host time per simulated instruction"),
                 (f"ladder.{rung}.sim_ns_per_instr", "ns/instr", "lower",
                  "simulation host time per simulated instruction")]
    below = list(RUNG_NAMES.values())
    for lower, rung in zip(below, below[1:]):
        for part in ("build", "sim"):
            rows.append((f"ladder.{rung}.{part}_ratio_below", "ratio",
                         "lower", f"{part} ns/instr over rung {lower}'s"))
    return rows


#: (name, unit, better, meaning) of every per-layer metric.
LAYER_METRICS = [
    ("sim.run_s", "s", "lower", "scalar core simulation, decode excluded"),
    ("sim.decode_s", "s", "lower", "DecodedProgram.of"),
    ("sim.host_ns_per_instr", "ns/instr", "lower",
     "KernelInstance.run time per simulated instruction"),
    ("sim.instructions", "count", "higher",
     "instructions simulated by KernelInstance.run"),
    ("sim.stall_cycles", "cycles", "lower",
     "stall cycles of KernelInstance.run results"),
    *_rung_metrics(),
    ("cluster.partition_s", "s", "lower", "partition_kernel"),
    ("cluster.run_s", "s", "lower", "ClusterWorkload.run, decode excluded"),
    ("cluster.tcdm_conflict_cycles", "cycles", "lower",
     "bank-conflict stalls of cluster runs"),
    ("cluster.dma_busy_cycles", "cycles", "lower", "DMA busy cycles"),
    ("cluster.barriers", "count", "lower", "barrier episodes"),
    ("soc.partition_s", "s", "lower", "partition_soc_kernel, own share"),
    ("soc.run_s", "s", "lower", "SocWorkload.run, decode excluded"),
    ("soc.link_stall_cycles", "cycles", "lower", "link arbitration stalls"),
    ("soc.l2_bytes", "bytes", "lower", "L2 bytes read and written"),
    ("mem.dma_bytes_read", "bytes", "lower", "DMA bytes staged in"),
    ("mem.dma_bytes_written", "bytes", "lower", "DMA bytes drained out"),
    ("batch.run_s", "s", "lower", "BatchEngine.run"),
    ("batch.lanes", "count", "higher", "lanes stepped by the engine"),
    ("batch.cohorts", "count", "lower",
     "distinct program_signature values over the lanes"),
    ("batch.demoted_lanes", "count", "lower", "lanes demoted to scalar"),
    ("batch.vector_lane_ratio", "ratio", "higher",
     "lanes that stayed vector, over all lanes"),
    ("batch.speedup_vs_scalar", "ratio", "higher",
     "scalar pass wall over batched pass wall, same cells"),
    ("kernels.build_s", "s", "lower", "Workload.build"),
    ("kernels.builds", "count", "lower", "Workload.build calls"),
    ("energy.report_s", "s", "lower", "the three energy-model reports"),
    ("api.record_s", "s", "lower", "record_from_result, pricing excluded"),
    ("api.sweep_self_s", "s", "lower", "Sweep.run outside its cells"),
    ("serve.key_s", "s", "lower", "cache_key"),
    ("serve.get_s", "s", "lower", "RunStore.get"),
    ("serve.put_s", "s", "lower", "RunStore.put"),
    ("serve.hits", "count", "higher", "requests answered from the store"),
    ("serve.misses", "count", "lower", "requests simulated"),
    ("serve.coalesced", "count", "higher",
     "requests that shared an in-flight simulation"),
    ("serve.hit_ratio", "ratio", "higher", "hits over requests"),
    ("serve.hit_p50_ms", "ms", "lower", "median latency of hits"),
    ("serve.miss_p50_ms", "ms", "lower", "median latency of misses"),
    ("traffic.profile_s", "s", "lower", "build_profiles, own share"),
    ("traffic.simulate_s", "s", "lower", "traffic.simulate"),
    ("traffic.host_us_per_request", "us", "lower",
     "traffic.simulate time per simulated request"),
    ("traffic.requests", "count", "higher", "open-loop requests simulated"),
    ("traffic.hi_p99_cycles", "cycles", "lower",
     "worst p99 of the high-priority class over the load points"),
    ("traffic.qos_stall_cycles", "cycles", "lower",
     "QoS arbitration stalls over all classes"),
    ("trace.overhead_ratio", "ratio", "lower",
     "traced pass wall over untraced pass wall"),
]


def _attr_sum(recorder: SpanRecorder, names, attr: str) -> float:
    return sum(span.attrs.get(attr, 0) for span in recorder.spans
               if span.name in names)


def _p50_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _ladder(recorder: SpanRecorder) -> dict[str, float]:
    build = dict.fromkeys(LADDER_RUNGS, 0.0)
    sim = dict.fromkeys(LADDER_RUNGS, 0.0)
    instructions = dict.fromkeys(LADDER_RUNGS, 0)
    for span, self_time in zip(recorder.spans, recorder.self_durations()):
        cell = recorder.enclosing(span, "ladder.cell")
        if cell is None or cell.attrs["rung"] not in build:
            continue
        rung = cell.attrs["rung"]
        if span is cell:
            instructions[rung] += span.attrs.get("instructions", 0)
        elif span.name in BUILD_SPANS:
            build[rung] += self_time
        elif span.name in SIM_SPANS:
            sim[rung] += self_time
    out: dict[str, float] = {}
    previous = None
    for spec, rung in RUNG_NAMES.items():
        per = {"build": _ratio(build[spec], instructions[spec]) * 1e9,
               "sim": _ratio(sim[spec], instructions[spec]) * 1e9}
        for part, value in per.items():
            out[f"ladder.{rung}.{part}_ns_per_instr"] = value
            if previous is not None:
                out[f"ladder.{rung}.{part}_ratio_below"] = _ratio(
                    value, previous[part])
        previous = per
    return out


def layer_metrics(recorder: SpanRecorder, passes: int,
                  traced_walls: list[float], untraced_walls: list[float],
                  scalar_wall: float | None) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value of one traced run.

    *scalar_wall* is the wall of the same cells run without the batch
    engine, when the workload batches.
    """
    self_s = {name: value / passes
              for name, value in recorder.self_times().items()}
    count = {}
    for span in recorder.spans:
        count[span.name] = count.get(span.name, 0) + 1

    def per_pass(names, attr):
        return _attr_sum(recorder, names, attr) / passes

    sim_total = sum(span.duration for span in recorder.spans
                    if span.name == "sim.run")
    sim_instructions = _attr_sum(recorder, ("sim.run",), "instructions")
    engines = [span.attrs["engine"] for span in recorder.spans
               if span.name == "batch.run"]
    lanes = per_pass(("batch.run",), "lanes")
    demoted = per_pass(("batch.run",), "demoted_lanes")
    cohorts = sum(len({program_signature(i.program)
                       for i in engine.instances})
                  for engine in engines) / passes
    requests = [span for span in recorder.spans
                if span.name == "serve.request"]
    by_status: dict[str, list[float]] = {}
    for span in requests:
        by_status.setdefault(span.attrs.get("status"), []).append(
            span.duration)
    hits = len(by_status.get("hit", ()))
    traffic_requests = _attr_sum(recorder, ("traffic.simulate",),
                                 "requests")
    traffic_total = sum(span.duration for span in recorder.spans
                        if span.name == "traffic.simulate")
    untraced = statistics.median(untraced_walls)
    metrics = {
        "sim.run_s": self_s.get("sim.run", 0.0),
        "sim.decode_s": self_s.get("sim.decode", 0.0),
        "sim.host_ns_per_instr": _ratio(sim_total, sim_instructions) * 1e9,
        "sim.instructions": sim_instructions / passes,
        "sim.stall_cycles": per_pass(("sim.run",), "stall_cycles"),
        **_ladder(recorder),
        "cluster.partition_s": self_s.get("cluster.partition", 0.0),
        "cluster.run_s": self_s.get("cluster.run", 0.0),
        "cluster.tcdm_conflict_cycles": per_pass(("cluster.run",),
                                                 "tcdm_conflict_cycles"),
        "cluster.dma_busy_cycles": per_pass(("cluster.run",),
                                            "dma_busy_cycles"),
        "cluster.barriers": per_pass(("cluster.run",), "barriers"),
        "soc.partition_s": self_s.get("soc.partition", 0.0),
        "soc.run_s": self_s.get("soc.run", 0.0),
        "soc.link_stall_cycles": per_pass(("soc.run",),
                                          "link_stall_cycles"),
        "soc.l2_bytes": per_pass(("soc.run",), "l2_bytes"),
        "mem.dma_bytes_read": per_pass(("cluster.run", "soc.run"),
                                       "dma_bytes_read"),
        "mem.dma_bytes_written": per_pass(("cluster.run", "soc.run"),
                                          "dma_bytes_written"),
        "batch.run_s": self_s.get("batch.run", 0.0),
        "batch.lanes": lanes,
        "batch.cohorts": cohorts,
        "batch.demoted_lanes": demoted,
        "batch.vector_lane_ratio": _ratio(lanes - demoted, lanes),
        "batch.speedup_vs_scalar": _ratio(scalar_wall or 0.0, untraced),
        "kernels.build_s": self_s.get("kernels.build", 0.0),
        "kernels.builds": count.get("kernels.build", 0) / passes,
        "energy.report_s": self_s.get("energy.report", 0.0),
        "api.record_s": self_s.get("api.record", 0.0),
        "api.sweep_self_s": self_s.get("api.sweep", 0.0),
        "serve.key_s": self_s.get("serve.key", 0.0),
        "serve.get_s": self_s.get("serve.get", 0.0),
        "serve.put_s": self_s.get("serve.put", 0.0),
        "serve.hits": hits / passes,
        "serve.misses": len(by_status.get("miss", ())) / passes,
        "serve.coalesced": len(by_status.get("coalesced", ())) / passes,
        "serve.hit_ratio": _ratio(hits, len(requests)),
        "serve.hit_p50_ms": _p50_ms(by_status.get("hit", [])),
        "serve.miss_p50_ms": _p50_ms(by_status.get("miss", [])),
        "traffic.profile_s": self_s.get("traffic.profile", 0.0),
        "traffic.simulate_s": self_s.get("traffic.simulate", 0.0),
        "traffic.host_us_per_request": _ratio(traffic_total,
                                              traffic_requests) * 1e6,
        "traffic.requests": traffic_requests / passes,
        "traffic.hi_p99_cycles": max(
            (span.attrs["hi_p99_cycles"] for span in recorder.spans
             if span.name == "traffic.simulate"), default=0),
        "traffic.qos_stall_cycles": per_pass(("traffic.simulate",),
                                             "qos_stall_cycles"),
        "trace.overhead_ratio": _ratio(statistics.median(traced_walls),
                                       untraced),
    }
    return {name: metrics[name] for name, *_ in LAYER_METRICS}
