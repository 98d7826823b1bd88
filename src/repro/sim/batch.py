"""Vectorized batch simulation engine: one timeline, many data.

Single-stream simulation throughput is the binding constraint on every
sweep: each :class:`~repro.sim.scheduler.Scheduler` step costs a few
microseconds of interpreter time regardless of how many independent
cells a parameter study wants.  This engine runs B independent
:class:`~repro.sim.machine.Machine` instances of one program structure
together, holding their *data* in flat numpy arrays — ``(B, 32)``
register files, one memory image per lane — and advancing the whole
fleet with one vectorized update per *static* instruction, following
the BlueSky idiom (per-agent state in arrays, one step for the fleet).

Design rules, in order of precedence:

1. **The scalar scheduler stays golden.**  Per-cell results must be
   bit-identical to a scalar run: same cycles, same counters, same
   regions, same memory image, same raised errors.  Everything below
   exists in service of this.
2. **Demote, don't emulate.**  Lanes are advanced vectorially only
   through operations whose scalar semantics are exactly expressible
   as array updates: integer ALU/branch/load/store, the FP timeline
   with its dispatch queue and writeback ports, SSR configuration and
   streams, FREP replays and ``dma.copy``.  When a cohort reaches an
   *edge op* — cluster DMA and barriers, ``div``-family or ``fsqrt``
   (which raise per-lane), a computed jump, any undecodable
   instruction — each lane's state is flushed into a freshly built
   ``Machine`` and the scalar :class:`Scheduler` finishes the run from
   that exact point.  Demotion is transparent: the handover state
   (registers, SSR movers included) is, field for field, what a
   scalar run would hold at that pc.
3. **One timeline, many data.**  A cohort's lanes run one program on
   different data (seeds, ``li`` constants, memory images), so they
   take the same path with the same stalls.  The timing state is
   therefore held once per cohort, in a scalar :class:`Scheduler`
   bound to the cohort's program: pc, step count, both issue
   timelines and ready tables, memory-RAW times, writeback ports, the
   FPSS dispatch queue, the L0 window, counters and regions.  Only the
   register files, the memories and per-op immediates are per lane.
4. **A split demotes the cohort.**  Before an op commits anything, its
   plan computes what could make lanes part ways: a branch outcome,
   load/store addresses and the memory-RAW ready times they see,
   loaded values and store writes, SSR configuration values, FREP
   repeat counts and ``dma.copy`` ranges.  If lanes disagree or any
   lane faults, every lane is demoted at that pc with the op not yet
   executed; the scalar engine re-executes it per lane (a store
   already applied to some lanes writes the same bytes again) and
   raises the golden error for a faulting lane.  A load at lane-varying
   addresses (a table lookup) stays shared when every lane sees the
   same ready time.
5. **An FREP commits whole.**  The scalar engine cannot resume inside a
   sequencer replay, so the ``frep`` plan proves the entire replay
   split- and fault-free before it commits: equal repeat counts, a
   vector form for every body op, every popped stream armed and long
   enough, every stream address in bounds, and indirect gathers whose
   ready times are fixed for the replay and equal across lanes.
   Stream data is gathered per lane up front; pushed elements are
   written back when the replay ends.

Lanes are grouped into *cohorts* by the structural signature of their
decoded program — immediate *values* excluded — so a sweep over seeds
(same code, different ``li`` constants and memory images) shares one
vector fleet: per-op immediates that differ across lanes are carried
as per-lane data vectors.
"""

from __future__ import annotations

import copy
from collections import deque

try:
    import numpy as np
except ImportError:          # pragma: no cover - numpy is a hard dep
    np = None

from . import batch_ops as vo
from .config import CoreConfig
from .counters import RunResult
from .decode import (
    DecodedProgram,
    F_COMPUTE,
    F_LOAD,
    F_STORE,
    F_TO_INT,
    K_FP,
    K_FREP,
    K_INT,
    K_META,
    S_HANDLER,
    S_JUMP,
    S_RET,
    S_SCFGWI,
    S_SSR_DIS,
    S_SSR_EN,
)
from .errors import SimulationError
from .machine import Machine
from .ssr import SSR, SSRError

__all__ = ["BatchEngine", "require_numpy"]

_MASK32 = 0xFFFF_FFFF
_HALT_PC = 1 << 60


def require_numpy() -> None:
    """One-line actionable gate for the optional-at-runtime numpy dep."""
    if np is None:
        raise RuntimeError(
            "the batch engine requires numpy (`pip install numpy`); "
            "re-run with batch=None to use the scalar engine"
        )


def _uniform(values):
    """The lanes' one value — an int, or a tuple of ints for a
    ``(B, k)`` block — or None when lanes differ."""
    first = values[0]
    if (values != first).any():
        return None
    return int(first) if first.ndim == 0 else tuple(first.tolist())


def _op_signature(op) -> tuple:
    """Structural identity of one micro-op for cohort grouping.

    Two programs whose ops are pairwise signature-equal execute
    identically through the vector path (functional handlers are
    closures and never compared — the vector tables are keyed by
    mnemonic, and lanes demote with their *own* program).  Immediate
    *values* are deliberately excluded (only their presence counts):
    a sweep over seeds or problem sizes bakes those into ``li``
    constants and load/store offsets, and the cohort treats them as
    per-lane data so such sweeps still share one vector fleet.
    Branch/jump *targets* stay in the signature — control flow must
    be structurally identical.
    """
    return (
        op.mnemonic, op.kind, op.special, op.fp_op,
        op.int_read_idx, op.int_write_idx, op.is_load, op.is_store,
        op.is_branch, op.mem_base_idx, op.imm is None, op.target,
        op.jump_direct, op.aux0, op.aux1, op.aux2, op.cfg_arm,
        op.gather, op.dest_idx, op.width, op.opclass,
        op.counter, op.error is None, op.frep_n, op.frep_error is None,
        op.instr.label,
        tuple(str(operand) for operand in op.instr.operands
              if not isinstance(operand, int)),
    )


def program_signature(program) -> tuple:
    """Cohort key: the per-op structural signature of *program*."""
    return tuple(_op_signature(op)
                 for op in DecodedProgram.of(program).ops)


class BatchEngine:
    """Run B independent kernel instances in vectorized lockstep.

    Args:
        instances: :class:`~repro.kernels.common.KernelInstance` list;
            each lane simulates one instance against its own memory
            image (shared with the instance, so verifiers see the
            writes).
        config: Core configuration applied to every lane (as
            ``KernelInstance.run(config=...)`` would).
        max_steps: Per-lane dynamic instruction budget, as in
            :meth:`Machine.run`.

    After :meth:`run`, ``results[i]`` holds lane *i*'s
    :class:`RunResult` (or ``None`` if it errored), ``errors[i]`` the
    exception a scalar run would have raised (or ``None``), and
    ``demoted[i]`` whether the scalar engine finished the lane.
    """

    def __init__(self, instances, config: CoreConfig | None = None,
                 max_steps: int = 200_000_000) -> None:
        require_numpy()
        self.instances = list(instances)
        self.config = config
        self.max_steps = max_steps
        n = len(self.instances)
        self.results: list[RunResult | None] = [None] * n
        self.errors: list[Exception | None] = [None] * n
        self.demoted = [False] * n
        self._machines: list[Machine | None] = [None] * n
        self._lane_of: dict[int, tuple["_Cohort", int]] = {}
        groups: dict[tuple, list[int]] = {}
        for i, instance in enumerate(self.instances):
            groups.setdefault(
                program_signature(instance.program), []).append(i)
        self._cohorts = [_Cohort(self, lanes)
                         for lanes in groups.values()]

    def run(self) -> "BatchEngine":
        """Advance every lane to completion (or its per-lane error)."""
        # Silence numpy float warnings: the scalar engine's Python
        # arithmetic produces inf/nan silently and so must the vector
        # path (values are identical either way).
        with np.errstate(all="ignore"):
            for cohort in self._cohorts:
                cohort.run()
        return self

    def machine(self, i: int) -> Machine:
        """A Machine holding lane *i*'s final architectural state.

        Demoted lanes return the machine that finished the run; vector
        lanes get a lazily built one with the array state flushed into
        it.  This is what kernel verifiers receive in place of the
        scalar path's ``Machine``.
        """
        cached = self._machines[i]
        if cached is None:
            cohort, k = self._lane_of[i]
            cached = cohort.flush_machine(k)
            self._machines[i] = cached
        return cached


def _f64_view(data):
    """A lane memory's bytes as little-endian doubles (no copy)."""
    return np.frombuffer(data, "<f8", len(data) // 8)


class _Stream:
    """One SSR over a proven op sequence: its shared element addresses
    and timing, its per-lane element values and a copy of the mover
    holding the stream state the sequence ends in."""

    __slots__ = ("ssr", "mover", "addrs", "write", "indirect", "pos",
                 "avail", "ready", "values", "views")

    def __init__(self, ssr: SSR, mover: SSR, addrs: list) -> None:
        self.ssr = ssr
        self.mover = mover
        self.addrs = addrs
        self.write = ssr.is_write
        self.indirect = False
        self.pos = 0


class _Cohort:
    """Lanes sharing one program signature: one timeline, B data rows."""

    def __init__(self, engine: BatchEngine, lanes: list[int]) -> None:
        self.engine = engine
        self.lanes = lanes
        batch = len(lanes)
        self.batch = batch
        decs = [DecodedProgram.of(engine.instances[i].program)
                for i in lanes]
        self.ops = decs[0].ops
        # Per-op immediates: a plain int when every lane agrees (the
        # common case), a per-lane int64 vector otherwise (seed- or
        # size-dependent ``li`` constants and memory offsets).  The
        # signature guarantees every lane has one or none.
        self.imms: list = []
        for j in range(len(self.ops)):
            vals = [d.ops[j].imm for d in decs]
            first_imm = vals[0]
            if all(v == first_imm for v in vals):
                self.imms.append(first_imm)
            else:
                self.imms.append(np.array(vals, np.int64))

        # Per-lane data.
        self.iregs = np.zeros((batch, 32), np.int64)
        self.fregs = np.zeros((batch, 32), np.float64)
        self.memories = [engine.instances[i].memory for i in lanes]
        self.mem_size = min(memory.size for memory in self.memories)
        # The cohort's one timeline: a scalar scheduler bound to the
        # shared program.  Its machine is a placeholder — plans read
        # and write only its timing state and its SSR movers and
        # enable bit (shared, since their configuration is lane-equal),
        # never its registers.
        self.sched = Machine(config=engine.config,
                             memory=self.memories[0]).sched
        self.sched.bind(engine.instances[lanes[0]].program,
                        engine.max_steps)

        for k, i in enumerate(lanes):
            engine._lane_of[i] = (self, k)
        self.plans = [self._compile(op) for op in self.ops]

    # ------------------------------------------------------------------
    # run loop and lane lifecycle
    # ------------------------------------------------------------------
    def run(self) -> None:
        sched = self.sched
        plans = self.plans
        n_ops = len(plans)
        max_steps = sched._max_steps
        pc = steps = 0
        # A plan returns the next pc, or None to demote the cohort at
        # *pc* with the op uncommitted; the scalar engine raises the
        # max_steps error itself.
        while pc < n_ops and steps < max_steps:
            plan = plans[pc]
            nxt = None if plan is None else plan(pc)
            if nxt is None:
                break
            pc = nxt
            steps += 1
        sched._pc = pc
        sched._steps = steps
        engine = self.engine
        for k, i in enumerate(self.lanes):
            if pc >= n_ops:
                engine.results[i] = sched.result()
            else:
                self._demote(k)

    def flush_machine(self, k: int) -> Machine:
        """A Machine mirroring lane *k*'s architectural state.

        The SSR movers and the enable bit are shared by the cohort
        (their configuration is lane-equal by construction); each
        machine gets its own copy of them.
        """
        instance = self.engine.instances[self.lanes[k]]
        machine = Machine(config=self.engine.config,
                          memory=instance.memory)
        machine.iregs[:] = [int(v) for v in self.iregs[k]]
        machine.fregs[:] = [float(v) for v in self.fregs[k]]
        shared = self.sched.m
        machine.ssr_enabled = shared.ssr_enabled
        machine.ssrs[:] = [copy.deepcopy(ssr) for ssr in shared.ssrs]
        return machine

    def _demote(self, k: int) -> None:
        """Hand lane *k* to the scalar Scheduler at the cohort's pc.

        The lane's scheduler gets its own copy of the shared timing
        state — exactly what a scalar run would hold there — and
        ``drain()`` finishes the lane with the golden-reference
        semantics (including raising the golden errors for edge ops
        and faults the vector path does not model).
        """
        engine = self.engine
        i = self.lanes[k]
        shared = self.sched
        machine = self.flush_machine(k)
        sched = machine.sched
        sched.bind(engine.instances[i].program, engine.max_steps)
        sched._pc = shared._pc
        sched._steps = shared._steps
        sched.int_time = shared.int_time
        sched.fp_time = shared.fp_time
        sched.int_ready[:] = shared.int_ready
        sched.fp_ready[:] = shared.fp_ready
        sched.mem_ready = dict(shared.mem_ready)
        sched.int_wb_busy = set(shared.int_wb_busy)
        sched.fp_wb_busy = set(shared.fp_wb_busy)
        sched.fpss_queue = deque(shared.fpss_queue)
        sched._region_open = dict(shared._region_open)
        sched._regions = dict(shared._regions)
        sched._cd.update(shared._cd)
        vars(sched.l0).update(vars(shared.l0))
        engine._machines[i] = machine
        engine.demoted[i] = True
        try:
            sched.drain()
        except Exception as exc:
            engine.errors[i] = exc
        else:
            engine.results[i] = sched.result()

    # ------------------------------------------------------------------
    # lane-splitting memory accesses
    # ------------------------------------------------------------------
    def _load(self, reader, addr, size: int):
        """Per-lane loaded values and the lanes' one mem-RAW ready time.

        None when the lanes would split: a lane faults, or lanes at
        different addresses see different ready times.
        """
        addrs = addr.tolist()
        try:
            values = [reader(memory, a)
                      for memory, a in zip(self.memories, addrs)]
        except Exception:
            # Whatever a lane raises, its scalar re-run raises too.
            return None
        mem_time = self.sched._mem_time
        ready = {mem_time(a, size) for a in set(addrs)}
        if len(ready) != 1:
            return None
        return ready.pop(), values

    def _store(self, writer, addr, values):
        """Write every lane's value; the shared address, or None to split.

        Lane-varying addresses would publish different mem-RAW words,
        which one timeline cannot hold; a faulting lane splits too.
        """
        a0 = int(addr[0])
        if not (addr == a0).all():
            return None
        try:
            for memory, value in zip(self.memories, values.tolist()):
                writer(memory, a0, value)
        except Exception:
            # As in _load; lanes already written get the same bytes
            # again from their scalar re-run.
            return None
        return a0

    # ------------------------------------------------------------------
    # plan compilation: one closure per static instruction
    # ------------------------------------------------------------------
    def _compile(self, op):
        """The vector step for *op*, or None to demote lanes there."""
        if op.error is not None:
            return None
        kind = op.kind
        if kind == K_META:
            return self._plan_meta(op)
        if kind == K_INT:
            special = op.special
            if special == S_RET:
                return self._plan_int(op, mode="ret")
            if special == S_JUMP:
                if not op.jump_direct or op.target is None:
                    return None
                return self._plan_int(op, mode="jump")
            if special == S_SCFGWI:
                if op.aux1 >= len(self.sched.m.ssrs) or op.int_write_idx:
                    return None
                return self._plan_int(op, mode="scfgwi")
            if special in (S_SSR_EN, S_SSR_DIS):
                return self._plan_int(op, mode="ssr")
            if special != S_HANDLER:
                # dma.start / dma.wait / cluster.barrier: edge ops.
                return None
            return self._plan_int(op)
        if kind == K_FP:
            return self._plan_fp(op)
        if kind == K_FREP:
            return self._plan_frep(op)
        return None

    def _plan_int(self, op, mode: str | None = None):
        mnem = op.mnemonic
        operands = op.instr.operands
        imm = self.imms[op.index]
        target = op.target

        # Resolve the functional form; anything unknown demotes.
        fn = reader = writer = ssr = None
        dest = src = a_idx = b_idx = 0
        const_val = None
        enable = False
        span_regs = ()
        if mode in ("ret", "jump"):
            pass
        elif mode == "scfgwi":
            ssr = self.sched.m.ssrs[op.aux1]
            src = op.aux2
        elif mode == "ssr":
            enable = op.special == S_SSR_EN
        elif mnem == "dma.copy":
            mode = "dma"
            span_regs = [r.index for r in operands]      # dst, src, len
        elif op.is_branch:
            if target is None:
                return None
            fn = vo.VEC_BRANCH.get(mnem)
            if fn is not None:
                mode = "br2"
                a_idx = operands[0].index
                b_idx = operands[1].index
            else:
                fn = vo.VEC_BRANCHZ.get(mnem)
                if fn is None:
                    return None
                mode = "br1"
                a_idx = operands[0].index
        elif op.is_load:
            reader = vo.LOAD_READERS.get(mnem)
            if reader is None:
                return None
            mode = "load"
            dest = operands[0].index
        elif op.is_store:
            writer = vo.STORE_WRITERS.get(mnem)
            if writer is None:
                return None
            mode = "store"
            src = operands[0].index
        elif mnem == "nop":
            mode = "nop"
        elif mnem in vo.VEC_CONST:
            mode = "const"
            cfn = vo.VEC_CONST[mnem]
            if isinstance(imm, np.ndarray):
                const_val = np.array([cfn(int(v)) for v in imm],
                                     np.int64)
            else:
                const_val = cfn(imm)
            dest = operands[0].index
        elif mnem in vo.VEC_UNARY:
            mode = "unary"
            fn = vo.VEC_UNARY[mnem]
            dest = operands[0].index
            a_idx = operands[1].index
        elif mnem in vo.VEC_RR:
            mode = "rr"
            fn = vo.VEC_RR[mnem]
            dest = operands[0].index
            a_idx = operands[1].index
            b_idx = operands[2].index
        elif mnem in vo.VEC_RI:
            mode = "ri"
            fn = vo.VEC_RI[mnem]
            dest = operands[0].index
            a_idx = operands[1].index
        else:
            return None
        branch = mode in ("br1", "br2")

        sched = self.sched
        cd = sched._cd
        int_ready = sched.int_ready
        iregs = self.iregs
        reads = op.int_read_idx
        writes = op.int_write_idx
        lat = sched._lat[op.index]
        counter = op.counter
        base_idx = op.mem_base_idx
        hazard = bool(writes) and sched._int_wb_hazard
        ports = sched._int_wb_ports
        penalty = sched._branch_penalty
        machine = sched.m
        field = op.aux0
        arm = op.cfg_arm
        memories = self.memories
        mem_size = self.mem_size

        def plan(cur):
            base = start = sched.int_time
            for r in reads:
                t = int_ready[r]
                if t > start:
                    start = t

            # What can split or fault, before anything commits.
            value = taken = None
            if mode == "load":
                got = self._load(
                    reader, (iregs[:, base_idx] + imm) & _MASK32, 4)
                if got is None:
                    return None
                ready, loaded = got
            elif mode == "store":
                addr = self._store(
                    writer, (iregs[:, base_idx] + imm) & _MASK32,
                    iregs[:, src])
                if addr is None:
                    return None
            elif branch:
                outcome = fn(iregs[:, a_idx], iregs[:, b_idx]) \
                    if mode == "br2" else fn(iregs[:, a_idx])
                taken = bool(outcome[0])
                if (outcome != taken).any():
                    return None
            elif mode == "scfgwi":
                word = _uniform(iregs[:, src])
                if word is None:
                    return None
                drain = max(ssr.last_pop_time + 1, sched.fp_time) \
                    if arm else 0
                try:
                    # Raises before touching the SSR, or applies fully.
                    ssr.write_config(field, word,
                                     now=max(start, drain) + 1)
                except SSRError:
                    return None
            elif mode == "dma":
                span = _uniform(iregs[:, span_regs])
                if span is None:
                    return None
                dst, src_addr, length = span
                if max(dst, src_addr) + length > mem_size:
                    return None

            # Commit on the shared timeline.
            sched._fetch(cur)
            if start > base:
                cd["stall_raw_int"] += start - base
            if mode == "load":
                if ready > start:
                    cd["stall_mem_raw"] += ready - start
                    start = ready
                value = np.array(loaded, np.int64)
            if hazard:
                issue, wb = sched._reserve_wb(sched.int_wb_busy, start,
                                              lat, ports)
                if issue > start:
                    cd["stall_wb_port"] += issue - start
                    start = issue
            else:
                wb = start + lat
            if mode == "ret":
                sched.int_time = start + 1
                cd["int_issued"] += 1
                return _HALT_PC
            if mode == "scfgwi":
                if drain > start:
                    cd["stall_ssr_sync"] += drain - start
                    start = drain
            elif mode == "ssr":
                machine.ssr_enabled = enable
            elif mode == "dma":
                for memory in memories:
                    memory.copy_within(dst, src_addr, length)
                cd["dma_bytes_moved"] += length

            if mode == "rr":
                value = fn(iregs[:, a_idx], iregs[:, b_idx]) & _MASK32
            elif mode == "ri":
                value = fn(iregs[:, a_idx], imm) & _MASK32
            elif mode == "unary":
                value = fn(iregs[:, a_idx]) & _MASK32
            elif mode == "const":
                value = const_val
            if value is not None and dest:
                iregs[:, dest] = value
            for r in writes:
                int_ready[r] = wb
            if mode == "store":
                sched._mem_commit(addr, 4, start + lat)

            sched.int_time = start + 1
            cd["int_issued"] += 1
            if counter is not None:
                cd[counter] += 1
            if taken or mode == "jump":
                sched.int_time += penalty
                cd["stall_branch"] += penalty
                if target <= cur:
                    sched.l0.backward_branch(cur, target)
                return target
            return cur + 1

        return plan

    def _dispatch(self, op, cur: int) -> int:
        """Dispatch FP *op* through the core; returns the dispatch cycle."""
        sched = self.sched
        cd = sched._cd
        sched._fetch(cur)
        disp = sched.int_time
        queue = sched.fpss_queue
        while queue and queue[0] < disp:
            queue.popleft()
        if len(queue) >= sched._queue_depth:
            free_at = queue.popleft() + 1
            if free_at > disp:
                cd["stall_queue_full"] += free_at - disp
                disp = free_at
        reads = op.int_read_idx
        if reads:
            base = disp
            int_ready = sched.int_ready
            for r in reads:
                t = int_ready[r]
                if t > disp:
                    disp = t
            if disp > base:
                cd["stall_raw_int"] += disp - base
        sched.int_time = disp + 1
        cd["fp_dispatched"] += 1
        return disp

    def _fp_issue(self, op):
        """The FPSS-issue half of *op*, or None without a vector form.

        ``issue(earliest, streams, access)`` mirrors
        ``Scheduler._fpss_issue`` operand by operand and returns the
        issue cycle.  *streams* maps SSR indices to the proven
        :class:`_Stream` elements of the running op or FREP (empty when
        no stream is touched); *access* is ``(ready, values)`` for a
        load and the shared address for a store, as checked by the
        dispatch half.
        """
        fp_kind = op.fp_op
        compute = None
        if fp_kind in (F_COMPUTE, F_TO_INT):
            table = vo.VEC_FP_COMPUTE if fp_kind == F_COMPUTE \
                else vo.VEC_FP_TO_INT
            compute = table.get(op.mnemonic)
            if compute is None:
                return None
        elif fp_kind not in (F_LOAD, F_STORE):
            return None                          # F_BAD

        sched = self.sched
        cd = sched._cd
        int_ready = sched.int_ready
        fp_ready = sched.fp_ready
        iregs = self.iregs
        fregs = self.fregs
        gather = op.gather
        lat = sched._lat[op.index]
        counter = op.counter
        dest = op.dest_idx
        width = op.width
        ports = sched._fp_wb_ports
        fp_resp = sched._fp_response_latency

        def issue(earliest, streams, access=None):
            start = sched.fp_time
            if earliest > start:
                start = earliest
            values = []
            for is_fp, idx in gather:
                if not is_fp:
                    values.append(iregs[:, idx])
                    continue
                stream = streams.get(idx) if streams else None
                if stream is not None and not stream.write:
                    k = stream.pos
                    stream.pos = k + 1
                    avail = stream.avail + k
                    t = stream.ready[k]
                    if t > avail:
                        avail = t
                    if avail > start:
                        cd["fp_stall_ssr"] += avail - start
                        start = avail
                    values.append(stream.values[k])
                    stream.ssr.last_pop_time = start
                    cd["ssr_reads"] += 1
                    if stream.indirect:
                        cd["ssr_index_fetches"] += 1
                else:
                    t = fp_ready[idx]
                    if t > start:
                        cd["fp_stall_raw"] += t - start
                        start = t
                    values.append(fregs[:, idx])

            if fp_kind == F_STORE:
                sched._mem_commit(access, width, start + lat)
            elif fp_kind == F_TO_INT:
                if dest:
                    iregs[:, dest] = compute(*values) & _MASK32
                int_ready[dest] = start + lat + fp_resp
            else:
                stream = streams.get(dest) \
                    if streams and fp_kind == F_COMPUTE else None
                if stream is not None and stream.write:
                    k = stream.pos
                    stream.pos = k + 1
                    stream.values[k] = compute(*values)
                    stream.ssr.last_pop_time = start
                    cd["ssr_writes"] += 1
                    sched._mem_commit(stream.addrs[k], 8, start + lat)
                else:
                    if fp_kind == F_LOAD:
                        ready, result = access
                        if ready > start:
                            start = ready
                    else:
                        result = compute(*values)
                    issue_at, wb = sched._reserve_wb(
                        sched.fp_wb_busy, start, lat, ports)
                    if issue_at > start:
                        cd["fp_stall_wb_port"] += issue_at - start
                        start = issue_at
                    fregs[:, dest] = result
                    fp_ready[dest] = wb

            sched.fp_time = start + 1
            cd["fp_issued"] += 1
            if counter is not None:
                cd[counter] += 1
            return start

        return issue

    def _plan_fp(self, op):
        issue = self._fp_issue(op)
        if issue is None:
            return None
        fp_kind = op.fp_op
        reader = vo.FP_LOAD_READERS[op.width] if fp_kind == F_LOAD \
            else None
        writer = vo.FP_STORE_WRITERS[op.width] if fp_kind == F_STORE \
            else None
        sched = self.sched
        iregs = self.iregs
        fregs = self.fregs
        base_idx = op.mem_base_idx
        imm = self.imms[op.index]
        # Only ft0..ft(n-1) are stream registers; other ops skip the
        # stream proof altogether.
        n_ssrs = len(sched.m.ssrs)
        may_stream = any(is_fp and idx < n_ssrs for is_fp, idx in op.gather) \
            or (fp_kind == F_COMPUTE and op.dest_idx < n_ssrs)
        body = (op,)

        def plan(cur):
            # What can split or fault, before anything commits.
            streams = None
            if may_stream:
                streams = self._streams(body, 1)
                if streams is None:
                    return None
            access = None
            if fp_kind == F_LOAD:
                access = self._load(
                    reader, (iregs[:, base_idx] + imm) & _MASK32, 8)
                if access is None:
                    return None
            elif fp_kind == F_STORE:
                idx = op.gather[0][1]
                stream = streams.get(idx) if streams else None
                value = stream.values[0] \
                    if stream is not None and not stream.write \
                    else fregs[:, idx]
                access = self._store(
                    writer, (iregs[:, base_idx] + imm) & _MASK32, value)
                if access is None:
                    return None

            disp = self._dispatch(op, cur)
            sched.fpss_queue.append(issue(disp + 1, streams, access))
            if streams:
                self._finish_streams(streams)
            return cur + 1

        return plan

    def _plan_frep(self, op):
        """``frep.o``: iteration 0 through the queue, then the replay.

        Demotes only at the ``frep`` pc: the scalar engine raises the
        body errors there, and everything that could split or fault
        inside the replay is proven before the ``frep`` commits.
        """
        n = op.frep_n
        if n <= 0 or n > self.sched.cfg.frep_buffer_size \
                or op.frep_error is not None:
            return None
        body = op.frep_body
        issues = [self._fp_issue(bop) for bop in body]
        if None in issues:
            return None
        sched = self.sched
        cd = sched._cd
        int_ready = sched.int_ready
        iregs = self.iregs
        rs1 = op.aux0
        dispatch = self._dispatch
        queue = sched.fpss_queue
        dispatched = list(zip(body, issues))

        def plan(cur):
            reps = _uniform(iregs[:, rs1])
            if reps is None:
                return None
            reps += 1
            streams = self._streams(body, reps)
            if streams is None:
                return None

            sched._fetch(cur)
            start = sched.int_time
            t = int_ready[rs1]
            if t > start:
                cd["stall_raw_int"] += t - start
                start = t
            sched.int_time = start + 1
            cd["int_issued"] += 1
            cd["csr_ops"] += 1
            for bop, issue in dispatched:
                disp = dispatch(bop, bop.index)
                queue.append(issue(disp + 1, streams))
            for _ in range(reps - 1):
                for issue in issues:
                    issue(0, streams)
            cd["sequencer_issued"] += (reps - 1) * n
            if streams:
                self._finish_streams(streams)
            return cur + 1 + n

        return plan

    # ------------------------------------------------------------------
    # SSR streams: shared addresses and timing, per-lane data
    # ------------------------------------------------------------------
    def _streams(self, body, reps: int):
        """Prove *body* x *reps* split- and fault-free on the SSRs.

        Returns ``{ssr index: _Stream}`` ({} when no stream is touched)
        with every element's address, lane values and data-ready time
        worked out on a copy of the mover, or None to demote: a stream
        would run dry, an address faults in some lane, an indirect
        gather's ready time differs across lanes, or a push in the
        sequence would overwrite data the sequence pops.  The
        sequence's own pushes are then the only memory it writes, so
        what it pops is fixed before it starts.
        """
        m = self.sched.m
        if not m.ssr_enabled:
            return {}
        ssrs = m.ssrs
        n_ssrs = len(ssrs)
        counts: dict[int, int] = {}
        for bop in body:
            for is_fp, idx in bop.gather:
                if is_fp and idx < n_ssrs and ssrs[idx].armed \
                        and not ssrs[idx].is_write:
                    counts[idx] = counts.get(idx, 0) + 1
            dest = bop.dest_idx
            if bop.fp_op == F_COMPUTE and dest < n_ssrs \
                    and ssrs[dest].armed and ssrs[dest].is_write:
                counts[dest] = counts.get(dest, 0) + 1
        if not counts:
            return {}

        size = self.mem_size
        datas = [memory.data for memory in self.memories]
        mem_time = self.sched._mem_time
        streams: dict[int, _Stream] = {}
        written: set[int] = set()
        popped: set[int] = set()
        for idx, per in counts.items():
            ssr = ssrs[idx]
            mover = copy.deepcopy(ssr)
            count = per * reps
            indirect = mover.indirect
            addrs = []
            for _ in range(count):
                if mover.exhausted:
                    return None
                addrs.append(mover.current_index_address() if indirect
                             else mover.peek_address(None))
                mover.advance()
            # Elements are doubles; ISSR indices are 2 or 4 bytes wide
            # (the scalar index reader raises on any other size).
            width = mover.cfg.idx_size if indirect else 8
            if width not in (2, 4, 8) or min(addrs) < 0 \
                    or max(addrs) + width > size \
                    or any(a % width for a in addrs):
                return None
            at = np.array(addrs, np.int64)
            stream = _Stream(ssr, mover, addrs)
            streams[idx] = stream
            if ssr.is_write:
                words = set((at >> 2).tolist())
                if words & written:
                    return None
                written |= words
                written |= set(((at >> 2) + 1).tolist())
                stream.values = np.empty((count, len(datas)))
                stream.views = [_f64_view(data) for data in datas]
                continue
            if indirect:
                # Each lane gathers at base + (its index << shift).
                popped |= set((at >> 2).tolist())
                dtype = "<u2" if width == 2 else "<u4"
                index = np.stack(
                    [np.frombuffer(data, dtype, len(data) // width)
                     [at // width] for data in datas], axis=1)
                at = ssr.base + (index.astype(np.int64)
                                 << mover.cfg.idx_shift)
                if (at < 0).any() or (at + 8 > size).any() \
                        or (at & 7).any():
                    return None
                times = {a: mem_time(a, 8)
                         for a in np.unique(at).tolist()}
                ready = []
                for row in at.tolist():
                    first = times[row[0]]
                    if any(times[a] != first for a in row):
                        return None
                    ready.append(first)
                lane_words = list((at >> 3).T)
            else:
                ready = [mem_time(a, 8) for a in addrs]
                lane_words = [at >> 3] * len(datas)
            popped |= set((at >> 2).ravel().tolist())
            popped |= set(((at >> 2) + 1).ravel().tolist())
            lat = self.sched._lat_fp_load
            stream.ready = [t + lat if t else 0 for t in ready]
            stream.avail = (ssr.arm_time + self.sched._ssr_fill_latency
                            + ssr.seq)
            stream.indirect = indirect
            stream.values = np.stack(
                [_f64_view(data)[words]
                 for data, words in zip(datas, lane_words)], axis=1)
        if written & popped:
            return None
        return streams

    def _finish_streams(self, streams) -> None:
        """Commit a proven sequence's stream state and pushed data."""
        for stream in streams.values():
            ssr = stream.ssr
            mover = stream.mover
            ssr.seq = mover.seq
            ssr._counters = mover._counters
            ssr._repeat_left = mover._repeat_left
            ssr._done = mover._done
            ssr._offset = mover._offset
            if stream.write:
                # Pushes in order: a re-visited address keeps the last.
                last = {a: k for k, a in enumerate(stream.addrs)}
                words = np.array(list(last), np.int64) >> 3
                rows = stream.values[list(last.values())]
                for k, view in enumerate(stream.views):
                    view[words] = rows[:, k]

    def _plan_meta(self, op):
        mark = self.sched._exec_mark

        def plan(cur):
            # A bad label or a never-opened region raises before the
            # mark commits; every lane then raises it scalar.
            try:
                mark(op)
            except SimulationError:
                return None
            return cur + 1

        return plan
