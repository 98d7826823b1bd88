"""The repository benchmark: one command, four workloads, every metric.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig2_core --seed 1 \
        --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``fig2_core``, ``soc_ladder``,
``seed_fleet`` and ``serve_replay``.  A run

1. times the workload's cold set-up (interpreter, imports, warm-up
   cell, worker pool) in fresh subprocesses, several times;
2. runs whole passes of the workload for ``--seconds`` while a
   speedometer (``speed.py``) samples the host's speed;
3. checks every cell of every pass against the digests pinned in
   ``digests.json`` (region cycles, issued counts, energy), then runs
   an untimed ``check=True`` pass that verifies the numeric results;
4. prints every metric by name with its unit, a host line, and as its
   last line one JSON object with ``correct``, ``attempted``,
   ``failed`` and ``metrics``.

Host time moves with the load other tenants put on a shared machine,
so every reported time is in *reference-host seconds* (``speed.py``):
the speedometer's calibration slices are removed from each interval
and the rest is scaled by the host's speed during that interval.  Set-
ups, and the passes of ``serve_replay`` (whose clients mostly wait on
a worker process), are scaled by calibration slices taken around them
instead.  The unscaled values are kept in the result file as
``raw_metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half
the time untraced and half with the layer entry points wrapped in
spans (``spans.py``) and reports the per-layer metrics
(``layers.py``).  Results, host metadata and spans are written under
``perfbench/out/`` only.  ``python3 perfbench/pin_digests.py``
re-pins the digests after an intended change to the model.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from spans import NullRecorder, SpanRecorder, instrumented
from speed import REFERENCE_SLICE_S, Speedometer, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

#: Cold set-ups timed per run; their median is ``setup_s``.
SETUP_REPEATS = 3

#: (name, unit, better) of the end-to-end metrics, in print order.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("instr_per_s", "1/s", "higher"),
    ("requests_per_s", "1/s", "higher"),
    ("request_p50_ms", "ms", "lower"),
    ("request_p99_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_cycles", "cycles", "lower"),
    ("copift_speedup_geomean", "ratio", "higher"),
    ("copift_energy_gain_geomean", "ratio", "higher"),
    ("copift_ipc_peak", "instr/cycle", "higher"),
    ("speedup_err_vs_paper", "ratio", "lower"),
    ("energy_err_vs_paper", "ratio", "lower"),
]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up once and exit (what "
                             "setup_s times)")
    return parser.parse_args(argv)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def commit() -> str:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def host_metadata(meter) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit(),
        "calibration_slice_ms": statistics.median(meter.durations) * 1e3
        if meter.durations else None,
        "calibration_slices": len(meter.durations),
    }


def time_setups(workload: str, seed: int) -> tuple[list, list]:
    """Cold set-ups, each in a fresh interpreter: (raw, scaled) times."""
    raw, scaled_times = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--setup-only"],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                       timeout=120)
        raw.append(time.perf_counter() - start)
        mean_slice = (before + calibrate()) / 2
        scaled_times.append(raw[-1] * REFERENCE_SLICE_S / mean_slice)
    return raw, scaled_times


class Run:
    """One benchmark run of one workload: passes, checks, failures."""

    def __init__(self, bench, digests: dict) -> None:
        self.bench = bench
        self.digests = digests
        self.meter = Speedometer()
        self.errors: list[str] = []
        #: Every pass run so far, traced or not.
        self.done: list = []
        #: Cell key (or ``streamscale``) -> why its outputs failed.
        self.failed_keys: dict[str, str] = {}
        self.payload = None

    def one_pass(self, **kwargs):
        """One pass under the speedometer, checked."""
        # A collection left over from the last pass would land in this
        # one's time and peak memory.
        gc.collect()
        before = calibrate()
        with self.meter:
            result = self.bench.run_pass(**kwargs)
        result.calibration = (before + calibrate()) / 2
        self.check_pass(result)
        self.done.append(result)
        return result

    def scaled(self, result):
        """*result* with its times in reference-host seconds."""
        meter, start = self.meter, result.start
        if result.sent is None:
            whole = meter.mean_slice(start, start + result.wall)
            bounds = [0.0] + result.latencies + [result.wall]
            clock, completions = 0.0, []
            for begin, end in zip(bounds, bounds[1:]):
                clock += meter.reference_seconds(start + begin,
                                                 start + end, whole)
                completions.append(clock)
            return replace(result, wall=completions[-1],
                           latencies=completions[:-1])

        # Concurrent clients mostly wait on the service's worker
        # process, so slices taken during the pass would measure that
        # worker's pressure on this process, not the host: scale by the
        # calibration taken around the pass instead.
        def reference(begin: float, end: float) -> float:
            work = end - begin - meter.slices(start + begin,
                                              start + end)[1]
            return work * REFERENCE_SLICE_S / result.calibration

        return replace(result, wall=reference(0.0, result.wall),
                       latencies=[reference(sent, sent + latency)
                                  for sent, latency in zip(
                                      result.sent, result.latencies)])

    def passes(self, seconds: float) -> list:
        """Whole passes until *seconds* have elapsed (at least one)."""
        done = []
        start = time.perf_counter()
        while not done or time.perf_counter() - start < seconds:
            try:
                done.append(self.one_pass())
            except Exception as exc:  # noqa: BLE001 - reported as failed
                self.errors.append(f"pass raised {type(exc).__name__}: "
                                   f"{exc}")
                break
        return done

    def check_pass(self, result) -> None:
        """Compare every operation with its pinned digest."""
        for key, output in result.ops:
            if key == "streamscale":
                if self.payload is None:
                    self.payload = output
                if output != self.payload:
                    self.failed_keys.setdefault(
                        key, "traffic payload differs between passes")
            elif self.digests.get(key) != output.digest:
                self.failed_keys.setdefault(
                    key, "output differs from the pinned digest")

    def verify(self) -> None:
        """The untimed check=True pass; its failures fail their ops."""
        from workloads import Cell
        try:
            records, failures = self.bench.verify()
        except Exception as exc:  # noqa: BLE001 - reported as failed
            self.errors.append(f"check pass raised {type(exc).__name__}: "
                               f"{exc}")
            return
        for record in records:
            cell = Cell.of(record)
            if self.digests.get(cell.key) != cell.digest:
                failures.setdefault(cell.key,
                                    "checked run differs from the digest")
        for key, message in failures.items():
            self.failed_keys.setdefault(key, message)

    @property
    def attempted(self) -> int:
        return sum(len(p.ops) for p in self.done) + len(self.errors)

    @property
    def failed(self) -> int:
        """Operations whose cell failed a check, plus raised passes."""
        return len(self.errors) + sum(1 for p in self.done
                                      for key, _ in p.ops
                                      if key in self.failed_keys)

    @property
    def correct(self) -> bool:
        return not self.errors and not self.failed_keys


def median_pass(passes: list) -> tuple[float, list[float]]:
    """Wall time and completion times of a typical pass.

    Operations of a cell workload complete one after another, so a pass
    splits into per-operation segments.  Each segment's median over the
    passes filters out host interference that slowed only part of a
    pass; their running sum is the median pass.
    """
    segments = [[b - a for a, b in zip([0.0] + p.latencies,
                                       p.latencies + [p.wall])]
                for p in passes]
    completions, clock = [], 0.0
    for column in zip(*segments):
        clock += statistics.median(column)
        completions.append(clock)
    return completions[-1], completions[:-1]


def end_to_end(passes: list, setups: list[float]) -> dict[str, float]:
    """The end-to-end metrics of an untraced run's passes."""
    from workloads import modelled_metrics
    if passes[0].sent is None:
        wall, latencies = median_pass(passes)
        instructions_per_s = passes[0].instructions / wall
        ops_per_s = len(latencies) / wall
    else:
        wall = statistics.median(p.wall for p in passes)
        latencies = [t for p in passes for t in p.latencies]
        instructions_per_s = statistics.median(p.instructions / p.wall
                                               for p in passes)
        ops_per_s = statistics.median(len(p.latencies) / p.wall
                                      for p in passes)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "instr_per_s": instructions_per_s,
        "requests_per_s": ops_per_s,
        "request_p50_ms": percentile(latencies, 50) * 1e3,
        "request_p99_ms": percentile(latencies, 99) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        **modelled_metrics(passes[0].cells),
    }


def measure(args) -> tuple[Run, dict, dict]:
    """Set up, run the passes, check; returns (run, metrics, details)."""
    from layers import LAYER_METRICS, layer_metrics
    from workloads import WORKLOADS

    with open(DIGESTS, encoding="utf-8") as handle:
        digests = json.load(handle)
    raw_setups, setups = ([], []) if args.trace \
        else time_setups(args.workload, args.seed)
    bench = WORKLOADS[args.workload](args.seed, OUT)
    run = Run(bench, digests)
    try:
        start = time.perf_counter()
        bench.setup()
        extra = {"main_setup_s": time.perf_counter() - start,
                 "setup_samples_s": raw_setups}
        if not args.trace:
            passes = run.passes(args.seconds)
            run.verify()
            units = {name: unit for name, unit, _ in END_TO_END}
            metrics = end_to_end([run.scaled(p) for p in passes], setups) \
                if passes else {}
            extra["raw_metrics"] = end_to_end(passes, raw_setups) \
                if passes else {}
        else:
            untraced = run.passes(args.seconds / 2)
            recorder = SpanRecorder()
            bench.tracer = recorder
            with instrumented(recorder):
                traced = run.passes(args.seconds / 2)
            bench.tracer = NullRecorder()
            scalar_wall = None
            if args.workload == "seed_fleet":
                scalar_wall = run.scaled(run.one_pass(batch=None)).wall
            passes = untraced + traced
            run.verify()
            units = {name: unit for name, unit, *_ in LAYER_METRICS}
            metrics = layer_metrics(
                recorder, len(traced), [run.scaled(p).wall for p in traced],
                [run.scaled(p).wall for p in untraced], scalar_wall) \
                if untraced and traced else {}
            recorder.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        extra["pass_walls_s"] = [p.wall for p in passes]
        extra["pass_reference_walls_s"] = [run.scaled(p).wall
                                           for p in passes]
    finally:
        bench.close()
    if not metrics:
        metrics = dict.fromkeys(units, 0.0)
    return run, {name: {"value": value, "unit": units[name]}
                 for name, value in metrics.items()}, extra


def stop_resource_tracker() -> None:
    """Stop and reap the helper process spawn-started pools leave behind.

    The serve workload's worker pool starts a multiprocessing resource
    tracker that outlives the pool and only exits after this process
    does, as an orphan nobody reaps.  Stopping it here waits for it.
    """
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    try:
        return run_main(argv)
    finally:
        stop_resource_tracker()


def run_main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} holds no src/repro; run the benchmark "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected "
              f"one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        bench = workloads.WORKLOADS[args.workload](args.seed, OUT)
        try:
            bench.setup()
        finally:
            bench.close()
        return 0

    OUT.mkdir(exist_ok=True)
    run, metrics, extra = measure(args)
    host = host_metadata(run.meter)
    result = {"correct": run.correct, "attempted": max(run.attempted, 1),
              "failed": run.failed, "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({**result, "host": host, "run": {
            **vars(args), **extra, "errors": run.errors,
            "failed_cells": run.failed_keys}}, handle, indent=1)
        handle.write("\n")

    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'ops_attempted':<40} {result['attempted']:>16} count")
    print(f"  {'ops_failed':<40} {result['failed']:>16} count")
    for message in run.errors + [f"{k}: {v}"
                                 for k, v in run.failed_keys.items()]:
        print(f"  FAILED {message}")
    print(f"host {json.dumps(host, sort_keys=True)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
