"""The benchmark's four workloads, driven through the public API only.

Each workload is built from its seed, warms up in :meth:`setup`, and
then runs whole *passes* — one pass is the unit a user asks for: the
Figure-2 dataset, one climb of the hierarchy ladder, one seed sweep,
or one replay of 1000 serve requests.  A pass returns its host wall
time, the completion time of every operation (cell or request) from
the pass start, and the modelled outputs of every cell, which the
runner checks against the pinned digests.

Workloads that a pass can serve from a persistent store run with the
store off, except ``serve_replay``, whose stores are fresh temporary
directories under the benchmark's output directory.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass

from repro.api import (
    VARIANTS,
    CoreBackend,
    Sweep,
    Workload,
    parse_backend,
)
from repro.energy import EnergyModel
from repro.eval import fig2, streamscale
from repro.kernels import KERNELS
from repro.serve import EvalService, RunStore, use_store

from spans import NullRecorder

FIG2_N = 4096

#: The hierarchy ladder, bottom rung first.
LADDER_RUNGS = ("core", "cluster:1", "cluster:8", "soc:1x8", "soc:2x4",
                "soc:2x4+wb")
#: The cells climbed on every rung.
LADDER_CELLS = (("expf", "copift"), ("logf", "baseline"),
                ("pi_lcg", "copift"), ("poly_xoshiro128p", "baseline"))
LADDER_N = 4096
#: Open-loop load points of the traffic rung (fractions of capacity).
LADDER_LOADS = (0.7, 1.1)

FLEET_KERNELS = ("expf", "logf", "pi_lcg", "poly_xoshiro128p")
FLEET_SEEDS = 16
FLEET_N = 1024

SERVE_BACKENDS = ("core", "cluster:4", "soc:2x4+wb")
SERVE_N = 512
SERVE_REQUESTS = 1000
SERVE_CLIENTS = 2

#: Small cell every workload simulates once while setting up.
WARMUP = Workload("expf", "copift", n=512)


def cell_key(kernel: str, variant: str, n: int, backend: str) -> str:
    """Digest key of a cell; data seeds do not change modelled outputs."""
    return f"{kernel}/{variant}/n{n}/{backend}"


@dataclass(frozen=True)
class Cell:
    """The modelled outputs of one simulated cell."""

    kernel: str
    variant: str
    n: int
    backend: str
    seed: int | None
    cycles: int
    int_instructions: int
    fp_instructions: int
    energy_pj: float
    ipc: float

    @classmethod
    def of(cls, record) -> "Cell":
        return cls(record.kernel, record.variant, record.n,
                   record.backend, record.seed, record.cycles,
                   record.int_instructions, record.fp_instructions,
                   record.energy_pj, record.ipc)

    @property
    def key(self) -> str:
        return cell_key(self.kernel, self.variant, self.n, self.backend)

    @property
    def digest(self) -> list:
        """Region cycles, issued counts and energy, as pinned."""
        return [self.cycles, self.int_instructions, self.fp_instructions,
                self.energy_pj]

    @property
    def instructions(self) -> int:
        return self.int_instructions + self.fp_instructions


@dataclass
class PassResult:
    """One pass: wall time, per-operation outputs and latencies.

    ``ops`` holds ``(key, output)`` per operation: a :class:`Cell`
    checked against the pinned digest of *key*, or, for the traffic
    rung, a payload checked against the run's first pass.  Times are
    seconds from ``start`` (a ``time.perf_counter`` reading).  Without
    ``sent`` the operations run one after another and each latency is
    a completion time; with it (concurrent serve requests) each is the
    request's own latency, sent at the matching ``sent`` time.
    """

    start: float
    wall: float
    latencies: list[float]
    cells: list[Cell]
    ops: list[tuple[str, object]]
    sent: list[float] | None = None
    #: Mean calibration slice just before and after the pass, in
    #: seconds; set by the runner.
    calibration: float = 0.0

    @property
    def instructions(self) -> int:
        return sum(cell.instructions for cell in self.cells)


class CompletionClock(EnergyModel):
    """The default energy model, noting when each cell is priced.

    Pricing is the last step of a bare-core cell, so the notes are the
    cells' completion times.  Passed through the public
    ``energy_model`` parameter; it prices exactly as the default.
    """

    def __init__(self) -> None:
        super().__init__()
        self.times: list[float] = []

    def report(self, *args, **kwargs):
        power = super().report(*args, **kwargs)
        self.times.append(time.perf_counter())
        return power


def modelled_metrics(cells: list[Cell]) -> dict[str, float]:
    """The paper's figures over every baseline/copift pair in *cells*.

    Errors are relative to the geomean of the paper's per-kernel
    values (kernel registry) over the same pairs.
    """
    groups: dict[tuple, dict[str, Cell]] = {}
    for cell in cells:
        group = (cell.kernel, cell.n, cell.backend, cell.seed)
        groups.setdefault(group, {})[cell.variant] = cell
    pairs = [(g["baseline"], g["copift"]) for g in groups.values()
             if len(g) == 2]
    speedup = statistics.geometric_mean(b.cycles / c.cycles
                                        for b, c in pairs)
    energy = statistics.geometric_mean(b.energy_pj / c.energy_pj
                                       for b, c in pairs)
    paper_speedup = statistics.geometric_mean(
        KERNELS[b.kernel].paper_speedup for b, _ in pairs)
    paper_energy = statistics.geometric_mean(
        KERNELS[b.kernel].paper_energy_improvement for b, _ in pairs)
    return {
        "sim_cycles": sum(cell.cycles for cell in cells),
        "copift_speedup_geomean": speedup,
        "copift_energy_gain_geomean": energy,
        "copift_ipc_peak": max(cell.ipc for cell in cells
                               if cell.variant == "copift"
                               and cell.backend == "core"),
        "speedup_err_vs_paper": abs(speedup / paper_speedup - 1),
        "energy_err_vs_paper": abs(energy / paper_energy - 1),
    }


def _verify_each(cells: list[tuple[Workload, str]]) -> tuple[dict, dict]:
    """Run each cell with ``check=True``.

    Returns ``(records, failures)``, both keyed by cell key.
    """
    records, failures = {}, {}
    for workload, spec in cells:
        key = cell_key(workload.kernel, workload.variant, workload.n, spec)
        try:
            records[key] = parse_backend(spec).run(workload, check=True)
        except Exception as exc:  # noqa: BLE001 - reported per cell
            failures[key] = f"{type(exc).__name__}: {exc}"
    return records, failures


class BenchWorkload:
    """Base: seed-built inputs, a warm-up, passes and a check pass."""

    name = ""
    why = ""

    def __init__(self, seed: int, out_dir) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.rng = random.Random(seed)
        self.tracer = NullRecorder()

    def setup(self) -> None:
        CoreBackend().run(WARMUP)

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def verify(self) -> tuple[list, dict[str, str]]:
        """Untimed ``check=True`` pass: (checked records, failures)."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class Fig2Core(BenchWorkload):
    """The paper's Figure 2: 6 kernels x {baseline, copift}, bare core.

    Its inputs are the paper's fixed cells, so the seed selects
    nothing here.
    """

    name = "fig2_core"
    why = ("the paper's Figure-2 cells, scalar on a bare core: the golden "
           "sim path; bypasses cluster, soc, mem, batch and serve")

    def run_pass(self) -> PassResult:
        clock = CompletionClock()
        start = time.perf_counter()
        with use_store(None), self.tracer.span("pass"):
            data = fig2.generate(n=FIG2_N, energy_model=clock)
        wall = time.perf_counter() - start
        cells = [Cell(row.name, m.variant, row.measurement.n, "core",
                      None, m.cycles, m.int_instructions,
                      m.fp_instructions, m.energy_pj, m.ipc)
                 for row in data.rows
                 for m in (row.measurement.baseline,
                           row.measurement.copift)]
        return PassResult(start, wall, [t - start for t in clock.times],
                          cells, [(cell.key, cell) for cell in cells])

    def verify(self):
        records, failures = _verify_each(
            [(Workload(kernel, variant, n=FIG2_N), "core")
             for kernel in KERNELS for variant in VARIANTS])
        return list(records.values()), failures


def _other(variant: str) -> str:
    return "copift" if variant == "baseline" else "baseline"


class SocLadder(BenchWorkload):
    """Four cells climbed from a bare core to a write-back SoC.

    The seed seeds the open-loop traffic rung and picks the rung on
    which the check pass verifies each cell.  The cells' counterpart
    variants run once on the bare core, so the paper's copift ratios
    are defined here too.
    """

    name = "soc_ladder"
    why = ("the same cells on core, cluster:1/8, soc:1x8/2x4/2x4+wb and "
           "open-loop traffic: host cost of each hierarchy rung")

    def setup(self) -> None:
        super().setup()
        parse_backend("soc:1x2+wb").run(WARMUP)

    def _cell(self, spec: str, kernel: str, variant: str, group: str):
        workload = Workload(kernel, variant, n=LADDER_N)
        with self.tracer.span("ladder.cell", ident=f"{spec}/{kernel}",
                              rung=group) as span:
            record = parse_backend(spec).run(workload)
        if span is not None:
            span.attrs["instructions"] = record.instructions
        return Cell.of(record)

    def run_pass(self) -> PassResult:
        cells, latencies = [], []
        start = time.perf_counter()
        with self.tracer.span("pass"):
            for spec in LADDER_RUNGS:
                for kernel, variant in LADDER_CELLS:
                    cells.append(self._cell(spec, kernel, variant, spec))
                    latencies.append(time.perf_counter() - start)
            for kernel, variant in LADDER_CELLS:
                cells.append(self._cell("core", kernel, _other(variant),
                                        "pairs"))
                latencies.append(time.perf_counter() - start)
            payload = streamscale.generate(loads=LADDER_LOADS,
                                           seeds=(self.seed,))
            latencies.append(time.perf_counter() - start)
        wall = time.perf_counter() - start
        ops = [(cell.key, cell) for cell in cells]
        ops.append(("streamscale", payload))
        return PassResult(start, wall, latencies, cells, ops)

    def verify(self):
        # Every pass already matches all 28 digests; the numeric check
        # takes each cell on one rung, rotated by the seed, so that
        # runs over consecutive seeds cover every (cell, rung).
        cells = [(Workload(kernel, variant, n=LADDER_N),
                  LADDER_RUNGS[(self.seed + i) % len(LADDER_RUNGS)])
                 for i, (kernel, variant) in enumerate(LADDER_CELLS)]
        cells += [(Workload(kernel, _other(variant), n=LADDER_N), "core")
                  for kernel, variant in LADDER_CELLS]
        records, failures = _verify_each(cells)
        return list(records.values()), failures


class SeedFleet(BenchWorkload):
    """A batched seed sweep: 4 kernels x 2 variants x 16 seeds.

    Cells are listed kernel, variant, seed — as a user writes the
    sweep — so each 64-lane chunk mixes signatures and holds copift
    lanes that demote to the scalar engine.  The seed draws the 16
    data seeds.
    """

    name = "seed_fleet"
    why = ("Sweep(batch='auto') over 128 seeded cells with mixed "
           "signatures and demoting copift lanes")

    def __init__(self, seed: int, out_dir) -> None:
        super().__init__(seed, out_dir)
        seeds = self.rng.sample(range(1, 1 << 16), FLEET_SEEDS)
        self.workloads = [Workload(kernel, variant, n=FLEET_N, seed=s)
                          for kernel in FLEET_KERNELS
                          for variant in VARIANTS for s in seeds]

    def setup(self) -> None:
        Sweep([WARMUP.with_(seed=s) for s in (1, 2)],
              batch="auto").run(cache=False)

    def run_pass(self, batch="auto") -> PassResult:
        clock = CompletionClock()
        backend = CoreBackend(energy_model=clock)
        start = time.perf_counter()
        with self.tracer.span("pass"):
            records = Sweep(self.workloads, backends=(backend,),
                            batch=batch).run(cache=False)
        wall = time.perf_counter() - start
        cells = [Cell.of(record) for record in records]
        return PassResult(start, wall, [t - start for t in clock.times],
                          cells, [(cell.key, cell) for cell in cells])

    def verify(self):
        try:
            records = Sweep(self.workloads, batch="auto").run(
                check=True, cache=False)
        except Exception as exc:  # noqa: BLE001 - fails every cell
            message = f"{type(exc).__name__}: {exc}"
            return [], {cell_key(w.kernel, w.variant, w.n, "core"): message
                        for w in self.workloads}
        return records, {}


class ServeReplay(BenchWorkload):
    """A closed loop of 2 clients replaying 1000 Zipf-drawn requests.

    The service (one worker process) is backed by a fresh temporary
    store on every pass, so each of the 36 cells misses once and the
    rest hit or coalesce.  The seed ranks the cells for the Zipf draw
    and orders the requests; every cell is requested at least once.
    """

    name = "serve_replay"
    why = ("EvalService(jobs=1) on a fresh store: 2 closed-loop clients, "
           "1000 Zipf requests over 36 cells, hits beside misses")

    def __init__(self, seed: int, out_dir) -> None:
        super().__init__(seed, out_dir)
        # Popularity ranks alternate between the backends, so every
        # seed serves the same mix of record sizes; the seed shuffles
        # which kernel cells are hot within each backend.
        columns = []
        for spec in SERVE_BACKENDS:
            column = [(Workload(kernel, variant, n=SERVE_N), spec)
                      for kernel in KERNELS for variant in VARIANTS]
            self.rng.shuffle(column)
            columns.append(column)
        cells = [cell for rank in zip(*columns) for cell in rank]
        weights = [1 / rank for rank in range(1, len(cells) + 1)]
        draws = self.rng.choices(range(len(cells)), weights,
                                 k=SERVE_REQUESTS - len(cells))
        draws += range(len(cells))
        self.rng.shuffle(draws)
        self.cells = cells
        self.requests = [(cells[i][0], parse_backend(cells[i][1]))
                         for i in draws]
        #: Cell key -> every distinct serialized record served for it.
        self.responses: dict[str, set[str]] = {}
        self.store_root = os.path.join(out_dir,
                                       f"serve-stores-{os.getpid()}")
        self.loop = asyncio.new_event_loop()
        self.service: EvalService | None = None
        self.passes = 0

    def setup(self) -> None:
        self.service = EvalService(jobs=1)
        self.loop.run_until_complete(
            self.service.evaluate(WARMUP, CoreBackend()))

    async def _replay(self, start, sent, latencies, statuses,
                      records) -> None:
        pending = iter(range(len(self.requests)))

        async def client() -> None:
            for i in pending:
                workload, backend = self.requests[i]
                sent[i] = time.perf_counter() - start
                with self.tracer.span("serve.request", ident=i) as span:
                    record, status = await self.service.evaluate(
                        workload, backend)
                latencies[i] = time.perf_counter() - start - sent[i]
                statuses[i] = status
                records[i] = record
                if span is not None:
                    span.attrs["status"] = status

        with self.tracer.span("pass"):
            await asyncio.gather(*(client()
                                   for _ in range(SERVE_CLIENTS)))

    def run_pass(self) -> PassResult:
        self.passes += 1
        store_dir = os.path.join(self.store_root, f"pass{self.passes}")
        self.service.store = RunStore(store_dir)
        count = len(self.requests)
        sent, latencies = [0.0] * count, [0.0] * count
        statuses, records = [""] * count, [None] * count
        start = time.perf_counter()
        self.loop.run_until_complete(
            self._replay(start, sent, latencies, statuses, records))
        wall = time.perf_counter() - start
        self.service.store = None
        shutil.rmtree(store_dir, ignore_errors=True)
        ops = [(cell.key, cell) for cell in map(Cell.of, records)]
        for (key, _), record in zip(ops, records):
            self.responses.setdefault(key, set()).add(
                json.dumps(record.to_json(), sort_keys=True))
        cells = [cell for (_, cell), status in zip(ops, statuses)
                 if status == "miss"]
        return PassResult(start, wall, latencies, cells, ops, sent=sent)

    def verify(self):
        checked, failures = _verify_each(self.cells)
        for key, record in checked.items():
            reference = json.dumps(record.to_json(), sort_keys=True)
            if self.responses.get(key, {reference}) != {reference}:
                failures[key] = "served record differs from the scalar run"
        return list(checked.values()), failures

    def close(self) -> None:
        if self.service is not None:
            self.loop.run_until_complete(self.service.close())
        self.loop.close()
        shutil.rmtree(self.store_root, ignore_errors=True)


WORKLOADS = {cls.name: cls
             for cls in (Fig2Core, SocLadder, SeedFleet, ServeReplay)}
