"""Two-timeline issue scheduler over pre-decoded micro-ops.

The :class:`Scheduler` owns everything *timing*: the integer and FPSS
issue timelines, the per-register-file scoreboards, writeback-port
reservations, the core→FPSS dispatch queue, memory-RAW publication
times, region measurements and all performance counters.  The
reservations and the queue are fixed-size windows (a tagged ring per
register file, the issue times of the last queue-depth dispatches):
neither grows with the run, so neither is ever trimmed.  Architectural
state (register files, memory, SSR movers) stays on the owning
:class:`~repro.sim.machine.Machine`, which the bound functional handlers
mutate.

Per-instruction invariants were resolved at decode time
(:class:`~repro.sim.decode.MicroOp`), and :meth:`bind` snapshots the
per-config scalars and the architectural-state containers into flat
attributes; the configuration and the cluster hooks are treated as
immutable between ``bind`` and the end of the run.  :meth:`drain` runs
a hot run of straight-line code as generated Python
(:mod:`repro.sim.blocks`: compiled once the process has run it per-op
about ``K`` times its length), and under a cluster driver stops at the
horizon before a shared step.  The per-op methods stay the golden
reference, locked to the compiled runs by ``tests/test_blocks.py`` and
``tests/test_multicore.py`` and to the original interpreter by
``tests/test_golden.py``; the cycle-assignment rules are documented on
:class:`~repro.sim.machine.Machine`, which :attr:`Scheduler.m` refers
to by weak proxy (no reference cycle keeps a finished machine alive).
"""

from __future__ import annotations

import copy
import weakref
from collections import deque

from ..isa.instructions import OpClass
from .counters import Counters, RegionMeasurement, RunResult, sum_counters
from .decode import (
    DecodedProgram,
    F_COMPUTE,
    F_LOAD,
    F_STORE,
    F_TO_INT,
    K_FP,
    K_FREP,
    K_INT,
    S_BARRIER,
    S_DMA_START,
    S_DMA_WAIT,
    S_HANDLER,
    S_JUMP,
    S_RET,
    S_SCFGWI,
    S_SSR_DIS,
    S_SSR_EN,
)
from .blocks import RunTable
from .errors import SimulationError
from .icache import L0Cache
from ..obs.timeline import TraceEvent

_MASK32 = 0xFFFFFFFF
_HALT_PC = 1 << 60

#: The :meth:`Scheduler.drain` horizon of a core no other core waits on.
NO_HORIZON = 1 << 62

#: The timing state a run continues from: what :meth:`Scheduler.
#: _take_timing` copies from another scheduler at the same pc.
_TIMING_STATE = (
    "_pc", "_steps", "int_time", "fp_time", "int_ready", "fp_ready",
    "mem_ready", "int_wb_busy", "fp_wb_busy", "fpss_queue", "counters",
    "l0", "_region_open", "_regions",
)


class Scheduler:
    """Issue-timing state machine for one core."""

    __slots__ = (
        "m", "cfg", "int_time", "fp_time", "int_ready", "fp_ready",
        "mem_ready", "int_wb_busy", "fp_wb_busy", "fpss_queue",
        "counters", "_cd", "l0", "_region_open", "_regions",
        "barrier_wait", "barrier_arrival", "_ops", "_n_ops", "_lat",
        "_pc", "_steps", "_max_steps",
        # config snapshot
        "_lat_fp_load", "_int_wb_port", "_fp_wb_port", "_wb_mask",
        "_branch_penalty",
        "_ssr_fill_latency", "_fp_response_latency", "_signature",
        # machine snapshot
        "_iregs", "_fregs", "_mem", "_ssrs", "_n_ssrs", "_claim",
        "_core_id", "_read_index", "_trace", "_obs", "_obs_scope",
        "horizon", "held", "_fault_time", "_table", "_waiting",  # drain()
    )

    def __init__(self, machine) -> None:
        self.m = weakref.proxy(machine)
        cfg = machine.config
        self.cfg = cfg
        self.int_time = self.fp_time = 0
        self.int_ready = [0] * 32
        self.fp_ready = [0] * 32
        self.mem_ready: dict[int, int] = {}
        # Writeback reservations, a tagged ring per register file: cycle
        # w is reserved iff ``busy[w & mask] == w``.  Issue times only
        # grow, so every reservation a later op can meet lies within
        # the largest latency of its timeline's time: no two collide.
        size = 1 << (max(cfg.latencies.values()) + 1).bit_length()
        self._wb_mask = size - 1
        self.int_wb_busy, self.fp_wb_busy = [-1] * size, [-1] * size
        # The issue times of the last ``depth`` dispatches, the most the
        # queue holds: a dispatch waits on the oldest.
        depth = cfg.fpss_queue_depth
        self.fpss_queue: deque[int] = deque([-1] * depth, maxlen=depth)
        self.counters = Counters()
        #: Counter storage; the hot loop bumps fields through this dict.
        self._cd = self.counters.__dict__
        self.l0 = L0Cache(cfg.l0_icache_entries,
                          enabled=cfg.model_l0_icache)
        self._region_open: dict[str, tuple[int, Counters]] = {}
        self._regions: dict[str, RegionMeasurement] = {}
        #: True while parked at a cluster barrier (cluster sims only).
        self.barrier_wait = False
        #: Time this core arrived at the barrier it is parked at.
        self.barrier_arrival = 0
        self._ops: list = []
        self._n_ops = 0
        self._lat: list[int] = []
        self._pc = self._steps = self._max_steps = self._fault_time = 0
        self._snapshot_config()
        self._snapshot_machine()

    # ------------------------------------------------------------------
    def _snapshot_config(self) -> None:
        cfg = self.cfg
        self._lat_fp_load = cfg.latencies[OpClass.FP_LOAD]
        # Reservations are only read, so only kept, with one port.
        self._int_wb_port = (cfg.model_int_wb_hazard
                             and cfg.int_wb_ports == 1)
        self._fp_wb_port = cfg.fp_wb_ports == 1
        self._branch_penalty = cfg.taken_branch_penalty
        self._ssr_fill_latency = cfg.ssr_fill_latency
        self._fp_response_latency = cfg.fp_response_latency

    def _snapshot_machine(self) -> None:
        m = self.m
        self._iregs = m.iregs
        self._fregs = m.fregs
        self._mem = m.memory
        self._ssrs = m.ssrs
        self._n_ssrs = len(m.ssrs)
        #: The core's TCDM claim port (None without a TCDM).
        self._claim = None if m.tcdm is None else m.tcdm.port(m.core_id)
        self._core_id = m.core_id
        self._read_index = m.memory.read_index
        self._trace = m.trace
        self._obs = m.obs
        self._obs_scope = m.obs_scope

    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current elapsed time over both issue timelines."""
        return max(self.int_time, self.fp_time)

    @property
    def finished(self) -> bool:
        return self._pc >= self._n_ops

    # ------------------------------------------------------------------
    def bind(self, program, max_steps: int) -> None:
        """Prepare *program* for stepwise execution.

        Decoding is cached on the program; only the per-config latency
        table is (re)resolved here, one flat list indexed by pc.
        """
        decoded = DecodedProgram.of(program)
        self._ops = decoded.ops
        self._n_ops = len(decoded.ops)
        latencies = self.cfg.latencies
        self._lat = [latencies[op.opclass] for op in decoded.ops]
        self._pc = 0
        self._steps = 0
        self._max_steps = max_steps
        self.barrier_wait = False
        #: ``(issue time, error)`` of a fault drain() holds back.
        self.held = self._table = self._waiting = None
        self._snapshot_config()
        self._snapshot_machine()
        #: What compiled runs read of config and machine (their pool
        #: key; the frep buffer size only decides where a run ends).
        self._signature = (
            tuple(map(latencies.get, OpClass)), self._int_wb_port,
            self._fp_wb_port, self._wb_mask, self._branch_penalty,
            self._ssr_fill_latency, self._fp_response_latency,
            self.l0.enabled, self.cfg.ssr_count, self._claim is not None)

    def step(self) -> bool:
        """Execute one dynamic instruction; False once finished."""
        pc = self._pc
        if pc >= self._n_ops:
            return False
        op = self._ops[pc]
        self._steps += 1
        if self._steps > self._max_steps:
            raise self._over_steps(pc)
        kind = op.kind
        if kind == K_INT:
            pc = self._step_int(op, pc)
        elif kind == K_FP:
            self._step_fp(op, pc)
            pc += 1
        elif kind == K_FREP:
            pc = self._exec_frep(op, pc)
        else:                                   # K_META
            self._exec_mark(op)
            pc += 1
        self._pc = pc
        return True

    def drain(self, horizon: int = NO_HORIZON) -> None:
        """Step until the bound program finishes.

        Semantically ``while self.step(): pass``, one run at a time: a
        hot run executes as generated code (:mod:`repro.sim.blocks`).
        Below *horizon* the per-op cluster driver would step this core:
        at or past it the core stops before a shared step (a compiled
        run waits, to resume on the next call); it also stops once a
        barrier parks it, and holds a fault in a step begun at or past
        it as :attr:`held`, for the driver to raise in its turn.
        """
        n_ops = self._n_ops
        max_steps = self._max_steps
        step = self.step
        table = self._table or RunTable(self)
        self._table = table
        self.horizon = horizon
        t0 = None
        try:
            while True:
                if self._waiting is not None:
                    run, gen = self._waiting
                    if (pc := gen.send(horizon)) is None:
                        break
                    self._waiting = None
                elif (pc := self._pc) >= n_ops:
                    break
                else:
                    run = table.runs[pc] or table.new(self, pc)
                    if run.shared and self.int_time >= horizon:
                        break
                    fn = run.enter(self)
                    if fn is None or self._steps + run.steps > max_steps:
                        for _ in range(run.span):
                            t0 = self.int_time
                            step()
                        if self.barrier_wait:
                            break
                        continue
                    # A run that raises records its own pc and steps.
                    t0 = None
                    pc = fn(self)
                    if table.shared is not None:    # a generator
                        gen, pc = pc, next(pc)
                        if pc is None:
                            self._waiting = (run, gen)
                            break
                self._pc = pc
                self._steps += run.steps
        except Exception as exc:
            self._waiting = None
            start = self._fault_time if t0 is None else t0
            if start < horizon:
                raise
            self.held = (start, exc)

    def _over_steps(self, pc: int) -> SimulationError:
        return SimulationError(f"exceeded max_steps={self._max_steps} at "
                               f"pc={pc} ({self._ops[pc].instr.render()})")

    def result(self) -> RunResult:
        """Measurements of everything executed since construction."""
        return RunResult(cycles=self.now, counters=self.counters.copy(),
                         regions=dict(self._regions))

    def _take_timing(self, other: "Scheduler") -> None:
        """Continue from a copy of *other*'s timing state (both bound
        to programs of one structure, this machine holding the state
        *other*'s run reached): how a batch cohort hands lanes over."""
        for name in _TIMING_STATE:
            setattr(self, name, copy.copy(getattr(other, name)))
        self._cd = self.counters.__dict__

    # ------------------------------------------------------------------
    # memory RAW tracking (word-granule publication times)
    # ------------------------------------------------------------------
    def _mem_commit(self, addr: int, size: int, time: int) -> None:
        ready = self.mem_ready
        for key in range(addr >> 2, (addr + size + 3) >> 2):
            ready[key] = time

    def _mem_time(self, addr: int, size: int) -> int:
        ready = self.mem_ready
        t = 0
        for key in range(addr >> 2, (addr + size + 3) >> 2):
            v = ready.get(key, 0)
            if v > t:
                t = v
        return t

    # ------------------------------------------------------------------
    # markers
    # ------------------------------------------------------------------
    def _exec_mark(self, op) -> None:
        label = op.instr.label or ""
        if label.endswith("_start"):
            name = label[:-len("_start")]
            self._region_open[name] = (self.now, self.counters.copy())
        elif label.endswith("_end"):
            name = label[:-len("_end")]
            if name not in self._region_open:
                raise SimulationError(f"mark {label}: region never opened")
            start_time, start_counters = self._region_open.pop(name)
            cycles = self.now - start_time
            delta = self.counters.delta(start_counters)
            if name in self._regions:
                prev = self._regions[name]
                delta = sum_counters((prev.counters, delta))
                cycles += prev.cycles
            self._regions[name] = RegionMeasurement(name, cycles, delta)
        else:
            raise SimulationError(
                f"mark label must end in _start/_end: {label!r}"
            )

    # ------------------------------------------------------------------
    # asynchronous DMA (cluster bandwidth/latency model)
    # ------------------------------------------------------------------
    def _exec_dma_start(self, dst: int, src: int, length: int,
                        start: int) -> None:
        """Queue a tile transfer; publish the data at its completion.

        The copy is applied at once, so functional state never depends
        on transfer timing; consumers see the modelled completion
        through the memory-RAW publication times.
        """
        m = self.m
        obs = self._obs
        flow = obs.next_flow() if obs is not None else None
        if obs is not None:
            obs.emit(self._obs_scope, "int", "dma.start", start, 1,
                     "dma", {"bytes": length}, flow, "s")
        if m.dma is not None:
            done = m.dma.start(m.core_id, dst, src, length,
                               now=start + 1)
            if obs is not None:
                dma_scope = getattr(m.dma, "obs_scope", None)
                if dma_scope is not None:
                    obs.emit(dma_scope, "dma", "dma.done", done, 0,
                             "dma", {"bytes": length}, flow, "f")
        else:
            done = start + 1
        self._mem.copy_within(dst, src, length)
        self._mem_commit(dst, length, done)
        self.counters.dma_bytes_moved += length
        self.counters.dma_transfers += 1

    # ------------------------------------------------------------------
    # integer core
    # ------------------------------------------------------------------
    def _step_int(self, op, pc: int) -> int:
        cd = self._cd
        m = self.m
        iregs = self._iregs
        # Fetch (L0 loop-buffer check, inlined).
        l0 = self.l0
        if l0.enabled and l0._lo <= pc <= l0._hi:
            cd["icache_l0_hits"] += 1
        else:
            cd["icache_l0_misses"] += 1
        base = self.int_time
        start = base

        # Integer operand readiness.
        ready = self.int_ready
        reads = op.int_read_idx
        if reads:
            for r in reads:
                t = ready[r]
                if t > start:
                    start = t
            if start > base:
                cd["stall_raw_int"] += start - base

        # Loads wait for in-flight stores to the same words.
        is_load = op.is_load
        if is_load:
            addr = (iregs[op.mem_base_idx] + op.imm) & _MASK32
            t = self._mem_time(addr, 4)
            if t > start:
                cd["stall_mem_raw"] += t - start
                start = t

        # Banked-TCDM bank arbitration (cluster simulations only).
        claim = self._claim
        if claim is not None and (is_load or op.is_store):
            addr = (iregs[op.mem_base_idx] + op.imm) & _MASK32
            grant = claim(addr, 4, start)
            if grant > start:
                cd["stall_tcdm"] += grant - start
                start = grant

        lat = self._lat[pc]

        # Writeback-port structural hazard (single int-RF write port).
        writes = op.int_write_idx
        wb = start + lat
        if writes and self._int_wb_port:
            busy = self.int_wb_busy
            mask = self._wb_mask
            while busy[wb & mask] == wb:
                wb += 1
            busy[wb & mask] = wb
            issue = wb - lat
            if issue > start:
                cd["stall_wb_port"] += issue - start
                start = issue

        # SSR/DMA/barrier control is handled in-line; everything else
        # has a bound functional handler.
        taken = None
        special = op.special
        if special == S_HANDLER:
            handler = op.handler
            if handler is None:
                raise SimulationError(op.error)
            taken = handler(m)
        elif special == S_SCFGWI:
            if op.aux1 >= self._n_ssrs:
                raise SimulationError(f"no such SSR: {op.aux1}")
            ssr = self._ssrs[op.aux1]
            if op.cfg_arm:
                # Re-arming a mover waits for its stream to drain (an
                # FPU fence): the per-block SSR programming overhead
                # behind Fig. 3's block-size trade-off.
                drain = max(ssr.last_pop_time + 1, self.fp_time)
                if drain > start:
                    cd["stall_ssr_sync"] += drain - start
                    start = drain
            ssr.write_config(op.aux0, iregs[op.aux2], now=start + 1)
        elif special == S_SSR_EN:
            m.ssr_enabled = True
        elif special == S_SSR_DIS:
            m.ssr_enabled = False
        elif special == S_DMA_START:
            self._exec_dma_start(iregs[op.aux0], iregs[op.aux1],
                                 iregs[op.aux2], start)
        elif special == S_DMA_WAIT:
            if m.dma is not None:
                t = m.dma.core_drain_time(self._core_id)
                if t > start:
                    obs = self._obs
                    if obs is not None:
                        obs.emit(self._obs_scope, "int", "dma.wait",
                                 start, t - start, "dma",
                                 {"stall": t - start})
                    cd["stall_dma"] += t - start
                    start = t
        elif special == S_BARRIER:
            cd["barriers"] += 1
            if m.cluster is not None:
                # Implicit FPU fence: the core arrives only once its FP
                # subsystem has drained.  The cluster driver parks this
                # core until every active core has arrived.
                self.barrier_arrival = max(start + 1, self.fp_time)
                self.barrier_wait = True
        elif special == S_RET:
            self.int_time = start + 1
            cd["int_issued"] += 1
            return _HALT_PC                 # halt: beyond any program end
        # S_JUMP: control transfer handled below.

        for r in writes:
            ready[r] = wb
        if op.is_store:
            addr = (iregs[op.mem_base_idx] + op.imm) & _MASK32
            self._mem_commit(addr, 4, start + lat)

        self.int_time = start + 1
        cd["int_issued"] += 1
        trace = self._trace
        if trace is not None:
            trace.append(TraceEvent("int", start, op.mnemonic, pc))
        obs = self._obs
        if obs is not None:
            obs.emit(self._obs_scope, "int", op.mnemonic, start, 1,
                     "issue", {"pc": pc})
        counter = op.counter
        if counter is not None:
            cd[counter] += 1

        if op.is_branch:
            if taken:
                penalty = self._branch_penalty
                self.int_time += penalty
                cd["stall_branch"] += penalty
                target = op.target
                if target is not None and target <= pc:
                    self.l0.backward_branch(pc, target)
                return target
            return pc + 1
        if special == S_JUMP:
            if op.jump_direct:
                penalty = self._branch_penalty
                self.int_time += penalty
                cd["stall_branch"] += penalty
                target = op.target
                if target is not None and target <= pc:
                    self.l0.backward_branch(pc, target)
                return target
            raise SimulationError(
                f"computed jumps are not supported: "
                f"{op.instr.render()!r}"
            )
        return pc + 1

    # ------------------------------------------------------------------
    # FP subsystem
    # ------------------------------------------------------------------
    def _step_fp(self, op, pc: int) -> None:
        """Dispatch one FP instruction through the core, then issue it."""
        cd = self._cd
        # Fetch (L0 loop-buffer check, inlined).
        l0 = self.l0
        if l0.enabled and l0._lo <= pc <= l0._hi:
            cd["icache_l0_hits"] += 1
        else:
            cd["icache_l0_misses"] += 1
        disp = self.int_time

        # Dispatch-queue backpressure: a slot frees the cycle after the
        # FPSS issues the oldest queued instruction.
        queue = self.fpss_queue
        free_at = queue[0] + 1
        if free_at > disp:
            cd["stall_queue_full"] += free_at - disp
            disp = free_at

        # Integer operands (addresses, conversion sources) are read at
        # dispatch time on the core.
        reads = op.int_read_idx
        if reads:
            base = disp
            ready = self.int_ready
            for r in reads:
                t = ready[r]
                if t > disp:
                    disp = t
            if disp > base:
                cd["stall_raw_int"] += disp - base

        self.int_time = disp + 1
        cd["fp_dispatched"] += 1
        trace = self._trace
        if trace is not None:
            trace.append(TraceEvent("int", disp, op.mnemonic, pc))
        obs = self._obs
        if obs is not None:
            obs.emit(self._obs_scope, "int", op.mnemonic, disp, 1,
                     "dispatch", {"pc": pc})

        queue.append(self._fpss_issue(op, disp + 1))

    def _fpss_issue(self, op, earliest: int,
                    sequencer: bool = False) -> int:
        """Issue *op* on the FPSS timeline and execute it.

        Shared between queue dispatch (first FREP iteration, plain FP
        instructions) and sequencer replay (*earliest* = 0).
        Returns the issue cycle.
        """
        cd = self._cd
        m = self.m
        fregs = self._fregs
        claim = self._claim
        start = self.fp_time
        if earliest > start:
            start = earliest

        # Gather source operand values; SSR-bound registers pop streams.
        values: list = []
        append = values.append
        ssr_on = m.ssr_enabled
        n_ssrs = self._n_ssrs
        fp_ready = self.fp_ready
        for is_fp, idx in op.gather:
            if is_fp:
                ssr = None
                if ssr_on and idx < n_ssrs:
                    candidate = self._ssrs[idx]
                    if candidate.armed and not candidate.is_write:
                        ssr = candidate
                if ssr is not None:
                    addr = ssr.peek_address(self._read_index)
                    avail = (ssr.arm_time + self._ssr_fill_latency
                             + ssr.seq)
                    produced = self._mem_time(addr, 8)
                    if produced:
                        t = produced + self._lat_fp_load
                        if t > avail:
                            avail = t
                    if avail > start:
                        cd["fp_stall_ssr"] += avail - start
                        start = avail
                    if claim is not None:
                        grant = claim(addr, 8, start)
                        if grant > start:
                            cd["fp_stall_tcdm"] += grant - start
                            start = grant
                    append(self._mem.read_f64(addr))
                    ssr.advance()
                    ssr.last_pop_time = start
                    cd["ssr_reads"] += 1
                    if ssr.indirect:
                        cd["ssr_index_fetches"] += 1
                else:
                    t = fp_ready[idx]
                    if t > start:
                        cd["fp_stall_raw"] += t - start
                        start = t
                    append(fregs[idx])
            else:
                append(self._iregs[idx])

        lat = self._lat[op.index]
        fp_op = op.fp_op

        if fp_op == F_COMPUTE:
            result = op.compute(*values)
            dest = op.dest_idx
            ssr = self._ssrs[dest] \
                if (ssr_on and dest < n_ssrs) else None
            if ssr is not None and ssr.armed and ssr.is_write:
                addr = ssr.peek_address(self._read_index)
                if claim is not None:
                    grant = claim(addr, 8, start)
                    if grant > start:
                        cd["fp_stall_tcdm"] += grant - start
                        start = grant
                self._mem.write_f64(addr, result)
                ssr.advance()
                ssr.last_pop_time = start
                cd["ssr_writes"] += 1
                self._mem_commit(addr, 8, start + lat)
            else:
                wb = start + lat
                if self._fp_wb_port:
                    busy = self.fp_wb_busy
                    mask = self._wb_mask
                    while busy[wb & mask] == wb:
                        wb += 1
                    busy[wb & mask] = wb
                    issue = wb - lat
                    if issue > start:
                        cd["fp_stall_wb_port"] += issue - start
                        start = issue
                fregs[dest] = result
                fp_ready[dest] = wb
        elif fp_op == F_LOAD:
            addr = (self._iregs[op.mem_base_idx] + op.imm) & _MASK32
            t = self._mem_time(addr, 8)
            if t > start:
                start = t
            if claim is not None:
                grant = claim(addr, op.width, start)
                if grant > start:
                    cd["fp_stall_tcdm"] += grant - start
                    start = grant
            wb = start + lat
            if self._fp_wb_port:
                busy = self.fp_wb_busy
                mask = self._wb_mask
                while busy[wb & mask] == wb:
                    wb += 1
                busy[wb & mask] = wb
                issue = wb - lat
                if issue > start:
                    cd["fp_stall_wb_port"] += issue - start
                    start = issue
            dest = op.dest_idx
            if op.width == 8:
                fregs[dest] = self._mem.read_f64(addr)
            else:
                fregs[dest] = self._mem.read_f32(addr)
            fp_ready[dest] = wb
        elif fp_op == F_STORE:
            addr = (self._iregs[op.mem_base_idx] + op.imm) & _MASK32
            value = values[0]
            width = op.width
            if claim is not None:
                grant = claim(addr, width, start)
                if grant > start:
                    cd["fp_stall_tcdm"] += grant - start
                    start = grant
            if width == 8:
                self._mem.write_f64(addr, value)
            else:
                self._mem.write_f32(addr, value)
            self._mem_commit(addr, width, start + lat)
        elif fp_op == F_TO_INT:
            result = op.compute(*values)
            dest = op.dest_idx
            if dest:
                self._iregs[dest] = result & _MASK32
            self.int_ready[dest] = (
                start + lat + self._fp_response_latency
            )
        else:                                   # F_BAD
            raise SimulationError(op.error)

        self.fp_time = start + 1
        cd["fp_issued"] += 1
        trace = self._trace
        if trace is not None:
            trace.append(TraceEvent("fp", start, op.mnemonic,
                                    None if sequencer else -1,
                                    sequencer))
        obs = self._obs
        if obs is not None:
            obs.emit(self._obs_scope, "fp", op.mnemonic, start, 1,
                     "issue", {"seq": True} if sequencer else None)
        counter = op.counter
        if counter is not None:
            cd[counter] += 1
        return start

    # ------------------------------------------------------------------
    # FREP
    # ------------------------------------------------------------------
    def _exec_frep(self, op, pc: int) -> int:
        """Execute an ``frep.o rs1, n`` pseudo-dual-issue loop.

        The body (next *n* instructions) is dispatched once by the
        integer core and captured by the sequencer; iterations 1..rs1
        are issued by the sequencer on the FP timeline only.
        """
        cd = self._cd
        n = op.frep_n
        if n <= 0:
            raise SimulationError("frep body must have ≥ 1 instruction")
        if n > self.cfg.frep_buffer_size:
            raise SimulationError(
                f"frep body of {n} instructions exceeds the "
                f"{self.cfg.frep_buffer_size}-entry sequencer buffer"
            )
        if op.frep_error is not None:
            raise SimulationError(op.frep_error)
        body = op.frep_body

        # The frep instruction itself occupies one integer issue slot.
        l0 = self.l0
        cd["icache_l0_hits" if l0.enabled and l0._lo <= pc <= l0._hi
           else "icache_l0_misses"] += 1
        start = self.int_time
        rs1 = op.aux0
        t = self.int_ready[rs1]
        if t > start:
            cd["stall_raw_int"] += t - start
            start = t
        reps = self._iregs[rs1] + 1
        self.int_time = start + 1
        cd["int_issued"] += 1
        cd["csr_ops"] += 1

        # Iteration 0: dispatched by the core through the queue.
        for bop in body:
            self._step_fp(bop, bop.index)
        # Iterations 1..reps-1: sequencer-issued, FP timeline only.
        fpss_issue = self._fpss_issue
        for _ in range(reps - 1):
            for bop in body:
                fpss_issue(bop, 0, True)
                cd["sequencer_issued"] += 1
        return pc + 1 + n
