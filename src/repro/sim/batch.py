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
   as array updates: integer ALU/branch/load/store, FP compute, loads
   and stores, SSR configuration and streams, FREP replays and
   ``dma.copy``.  When a cohort reaches an *edge op* — cluster DMA
   and barriers, ``div``-family or ``fsqrt`` (which raise per-lane),
   a computed jump, any undecodable instruction — the scalar
   :class:`Scheduler` finishes every lane from that exact point: the
   leader on its own machine, every other lane on a freshly built
   ``Machine`` holding its registers, a copy of the leader's SSR
   movers and a copy of its timing state.  Demotion is transparent:
   the handover state is, field for field, what a scalar run would
   hold at that pc.
3. **One timeline, many data.**  A cohort's lanes run one program on
   different data (seeds, ``li`` constants, memory images), so they
   take the same path with the same stalls.  The timeline is
   therefore the first lane's own :class:`Machine` — the *leader* —
   advanced by its golden :meth:`Scheduler.step`: pc, step count,
   both issue timelines, ready tables, memory-RAW times, writeback
   ports, the FPSS dispatch queue, the L0 window, the SSR movers,
   counters and regions all come from the scalar code path.  Beside
   the leader only the register files, the memories and per-op
   immediates are per lane.  A stretch of ops whose lane work reads
   no leader state — register updates (integer or FP, no stream),
   stores and a closing branch — is stepped, once hot, as every
   lane's steps in order and then the leader's compiled run
   (:mod:`repro.sim.blocks`, the rules of ``step()``, locked to it by
   ``tests/test_blocks.py``).  A store or branch whose lanes would
   split stops the lanes there; the leader steps up to it per op and
   the cohort demotes at it, as rule 4 has it.
4. **Plans hold split checks and lane data, never timing.**  Before
   the leader steps, an op's plan checks everything that could make
   lanes part ways or make the step raise: a branch outcome,
   load/store addresses and the memory-RAW ready times they see,
   loads and stores that fault, lane-equal SSR configuration values
   (tried on a copy of the mover), FREP repeat counts, ``dma.copy``
   ranges, region marks and ``max_steps``.  If lanes disagree or any
   lane faults, the cohort demotes at that pc with the op not yet
   executed; the scalar engine re-executes it per lane (a store
   already applied to some lanes writes the same bytes again) and
   raises the golden error for a faulting lane.  After the step the
   plan updates every lane's registers; the leader's step wrote lane
   0's memory, so stores, pushes and copies land in the other lanes'
   memories.  A load at lane-varying addresses (a table lookup) stays
   shared when every lane sees the same ready time.
5. **An FREP steps whole.**  The scalar engine cannot resume inside a
   sequencer replay, so the ``frep`` plan proves the entire replay
   split- and fault-free before the leader steps it: equal repeat
   counts, a vector form for every body op, every popped stream armed
   and long enough, every stream address in bounds, indirect gathers
   whose ready times are equal across lanes, and no push onto popped
   data.  Stream data is gathered per lane up front; the lanes'
   pushed elements are written back when the replay ends.  The
   leader steps the replay as its compiled frep loop once hot, and a
   body that reads no value carried from the previous rep (but a
   running ``fadd.d`` sum, added in rep order) is applied to every
   rep at once, a ``(reps, B)`` block per value.

Lanes are grouped into *cohorts* by the structural signature of their
decoded program — immediate *values* excluded — so a sweep over seeds
(same code, different ``li`` constants and memory images) shares one
vector fleet: per-op immediates that differ across lanes are carried
as per-lane data vectors.
"""

from __future__ import annotations

import copy
import weakref

import numpy as np

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
from .blocks import RunTable, views
from .machine import Machine
from .ssr import SSRError

__all__ = ["BatchEngine"]

_MASK32 = 0xFFFF_FFFF
_HALT_PC = 1 << 60


def _no_update() -> None:
    """The lane update of a register-only op writing ``x0``."""


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


#: Operand sources of a replay form: a stream pop, a value of this
#: rep, a register the replay never writes.
_POP, _REP, _REG = range(3)


def _replay_form(body, layout: dict):
    """An FREP body as ops over all reps at once, or None.

    *layout* maps the proven streams' SSR indices to whether they push.
    Each entry is ``(compute, sources, dest, push)``: a source is
    ``(tag, index, slot, pops per rep)``, a pop reading rows
    ``slot::per`` of its stream; *push* is ``(slot, pushes per rep)``
    or None for a register.  A replay whose op reads a register's
    value from the previous rep has no such form, except ``fadd.d d,
    d, y`` with d written by that op only: its rows are the running
    sum (*compute* None), added in rep order as the scalar loop adds.
    """
    writers: dict[int, list] = {}
    for i, op in enumerate(body):
        if op.fp_op != F_COMPUTE:
            return None
        if not layout.get(op.dest_idx, False):
            writers.setdefault(op.dest_idx, []).append(i)
    pops: dict[int, int] = {}
    pushes: dict[int, int] = {}
    fresh: set[int] = set()
    steps = []
    for i, op in enumerate(body):
        compute = vo.VEC_FP_COMPUTE.get(op.mnemonic)
        dest = op.dest_idx
        sources = []
        for k, (is_fp, idx) in enumerate(op.gather):
            if not is_fp:
                return None
            if layout.get(idx) is False:
                sources.append((_POP, idx, pops.get(idx, 0)))
                pops[idx] = pops.get(idx, 0) + 1
            elif idx in fresh:
                sources.append((_REP, idx, 0))
            elif idx not in writers:
                sources.append((_REG, idx, 0))
            elif (k == 0 and idx == dest and writers[idx] == [i]
                  and op.mnemonic == "fadd.d"):
                compute = None
                sources.append((_REG, idx, 0))
            else:
                return None             # carried from the previous rep
        push = None
        if layout.get(dest, False):
            push = pushes.get(dest, 0)
            pushes[dest] = push + 1
        else:
            fresh.add(dest)
        steps.append([compute, sources, dest, push])
    for step in steps:
        step[1] = [(tag, idx, slot, pops.get(idx, 1))
                   for tag, idx, slot in step[1]]
        if step[3] is not None:
            step[3] = (step[3], pushes[step[2]])
    return [tuple(step) for step in steps]


class _Stream:
    """One SSR over a proven op sequence: its shared element addresses
    and its per-lane element values, consumed in order."""

    __slots__ = ("addrs", "write", "pos", "values")

    def __init__(self, addrs: list, write: bool) -> None:
        self.addrs = addrs
        self.write = write
        self.pos = 0


class _Cohort:
    """Lanes sharing one program signature: one timeline, B data rows."""

    def __init__(self, engine: BatchEngine, lanes: list[int]) -> None:
        self.engine = weakref.proxy(engine)     # no cycle: see run()
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
        #: Each integer register's lane column (a view of iregs): lane
        #: updates write straight into it.
        self.cols = [self.iregs[:, r] for r in range(32)]
        self.fregs = np.zeros((batch, 32), np.float64)
        self.memories = [engine.instances[i].memory for i in lanes]
        self.mem_size = min(memory.size for memory in self.memories)
        #: Lanes 1..'s ``(f64, u32)`` memory views while the cohort
        #: runs (see :meth:`_store`), else None.
        self.views = None
        # The cohort's one timeline: lane 0's own Machine (the leader),
        # stepped by its golden Scheduler.  Its SSR movers and enable
        # bit serve every lane (their configuration is lane-equal).
        self.leader = Machine(config=engine.config,
                              memory=self.memories[0])
        self.sched = self.leader.sched
        self.sched.bind(engine.instances[lanes[0]].program,
                        engine.max_steps)
        #: Where the shared run stopped: the demotion pc, or past the
        #: program's end.
        self.pc = 0

        for k, i in enumerate(lanes):
            engine._lane_of[i] = (self, k)
        #: The lane step of each op whose lane work reads no leader
        #: state, else None: a register update, or the split check and
        #: lane data of a store or branch, which returns False where
        #: the lanes would split (the leader not yet stepped).
        self.updates: list = [None] * len(self.ops)
        self.plans = [self._compile(op) for op in self.ops]
        #: stops[pc]: the end of the stretch of lane steps from pc,
        #: just past its first branch.
        self.stops = list(range(len(self.ops)))
        for pc in reversed(range(len(self.ops))):
            if self.updates[pc] is not None:
                self.stops[pc] = self.stops[pc + 1] \
                    if pc + 1 < len(self.ops) \
                    and not self.ops[pc].is_branch else pc + 1
        #: The leader's stretches, from the run pool.
        self.spans = RunTable(self.sched)

    # ------------------------------------------------------------------
    # run loop and lane lifecycle
    # ------------------------------------------------------------------
    def run(self) -> None:
        plans = self.plans
        updates = self.updates
        # Closures over the cohort: no cycle keeps lane memories alive.
        self.plans = self.updates = None
        lane_views = [views(memory) for memory in self.memories[1:]]
        if all(size for _, _, size in lane_views):
            self.views = [view[:2] for view in lane_views]
        try:
            self._run(plans, updates)
        finally:
            self.views = None       # no export outlives the run

    def _run(self, plans: list, updates: list) -> None:
        sched = self.sched
        stops = self.stops
        runs = self.spans.runs
        n_ops = len(plans)
        max_steps = self.engine.max_steps
        pc = steps = 0
        entry = True
        # A plan steps the leader and returns True, or returns False to
        # demote the cohort at *pc* with the op uncommitted; the scalar
        # engine raises the max_steps error itself.  Entered at its
        # start or by a jump, a stretch of lane steps runs once hot as
        # every lane's steps in order, then the leader's compiled run
        # (repro.sim.blocks, the rules of its step()); stepping per op
        # into a pc a jump entered before (a loop head) enters its run.
        # A lane step that finds the lanes split stops the stretch
        # there: the leader steps up to it and the cohort demotes.
        while pc < n_ops and steps < max_steps:
            stop = stops[pc]
            if (entry or runs[pc] is not None) and stop - pc > 1 \
                    and steps + stop - pc <= max_steps:
                span = runs[pc] or self.spans.new(sched, pc, stop)
                fn = span.enter(sched)
                if fn is not None:
                    # Straight-line ops, a branch only last.
                    n = span.steps
                    for split, update in enumerate(updates[pc:pc + n]):
                        if update() is False:
                            for _ in range(split):
                                sched.step()
                            steps += split
                            pc += split
                            break
                    else:
                        sched._pc = fn(sched)
                        sched._steps += n
                        steps += n
                        pc = sched._pc
                        continue
                    break
            plan = plans[pc]
            if plan is None or not plan():
                break
            entry = sched._pc != pc + 1 or updates[pc] is None
            pc = sched._pc
            steps += 1
        self.pc = pc
        if pc < n_ops:
            self._demote()
            return
        engine = self.engine
        for i in self.lanes:
            engine.results[i] = sched.result()

    def flush_machine(self, k: int) -> Machine:
        """A Machine mirroring lane *k*'s architectural state.

        The SSR movers and the enable bit are the leader's (their
        configuration is lane-equal by construction); each machine
        gets its own copy of them.
        """
        instance = self.engine.instances[self.lanes[k]]
        machine = Machine(config=self.engine.config,
                          memory=instance.memory)
        machine.iregs[:] = [int(v) for v in self.iregs[k]]
        machine.fregs[:] = [float(v) for v in self.fregs[k]]
        leader = self.leader
        machine.ssr_enabled = leader.ssr_enabled
        machine.ssrs[:] = [copy.deepcopy(ssr) for ssr in leader.ssrs]
        return machine

    def _demote(self) -> None:
        """Hand every lane to the scalar Scheduler at the cohort's pc.

        The leader drains its own machine; every other lane's
        scheduler first takes a copy of the leader's timing state —
        exactly what a scalar run would hold there.  ``drain()`` then
        finishes each lane with the golden-reference semantics
        (including raising the golden errors for edge ops and faults
        the vector path does not model).
        """
        engine = self.engine
        machines = [self.leader]
        for k in range(1, self.batch):
            machine = self.flush_machine(k)
            machine.bind(engine.instances[self.lanes[k]].program,
                         engine.max_steps)
            machine.sched._take_timing(self.sched)
            machines.append(machine)
        for i, machine in zip(self.lanes, machines):
            engine._machines[i] = machine
            engine.demoted[i] = True
            try:
                machine.sched.drain()
            except Exception as exc:
                engine.errors[i] = exc
            else:
                engine.results[i] = machine.result()

    # ------------------------------------------------------------------
    # lane-splitting memory accesses
    # ------------------------------------------------------------------
    def _load(self, reader, addr, size: int):
        """Per-lane loaded values, or None when the lanes would split:
        a lane faults, or lanes at different addresses see different
        mem-RAW ready times."""
        addrs = addr.tolist()
        try:
            values = [reader(memory, a)
                      for memory, a in zip(self.memories, addrs)]
        except Exception:
            # Whatever a lane raises, its scalar re-run raises too.
            return None
        mem_time = self.sched._mem_time
        if len({mem_time(a, size) for a in set(addrs)}) != 1:
            return None
        return values

    def _store(self, writer, base, imm, values, width: int = 0) -> bool:
        """Write lanes 1.. and prove lane 0's write; False to split.

        The address is ``(base + imm) & 0xFFFF_FFFF`` per lane.
        Lane-varying addresses would publish different mem-RAW words,
        which one timeline cannot hold; a faulting lane splits too.
        Lane 0's write is tried last and undone: the leader's step
        makes it, and must read the memory the op found.  A *width*
        of 4 (``sw``) or 8 (``fsd``) at an aligned address in every
        lane's range cannot fault: lanes 1.. take it through their
        memory views, as a compiled run's store does.
        """
        if isinstance(imm, int):
            # Canonical bases: equal addresses iff equal bases.
            bases = base.tolist()
            if bases.count(bases[0]) != len(bases):
                return False
            a0 = (bases[0] + imm) & _MASK32
        else:
            addr = (base + imm) & _MASK32
            a0 = int(addr[0])
            if not (addr == a0).all():
                return False
        values = values.tolist()
        lane_views = self.views
        if width and lane_views is not None \
                and a0 + width <= self.mem_size and not a0 % width:
            word = a0 // width
            if width == 4:
                for (_, view), value in zip(lane_views, values[1:]):
                    view[word] = value & _MASK32
            else:
                for (view, _), value in zip(lane_views, values[1:]):
                    view[word] = value
            return True
        memories = self.memories
        data = memories[0].data
        kept = data[a0:a0 + 8]
        try:
            for memory, value in zip(memories[1:], values[1:]):
                writer(memory, a0, value)
            writer(memories[0], a0, values[0])
        except Exception:
            # As in _load; lanes already written get the same bytes
            # again from their scalar re-run.
            return False
        data[a0:a0 + 8] = kept
        return True

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
            if special == S_JUMP and (not op.jump_direct
                                      or op.target is None):
                return None
            if special == S_SCFGWI and (op.aux1 >= len(self.leader.ssrs)
                                        or op.int_write_idx):
                return None
            if special not in (S_HANDLER, S_RET, S_JUMP, S_SCFGWI,
                               S_SSR_EN, S_SSR_DIS):
                # dma.start / dma.wait / cluster.barrier: edge ops.
                return None
            return self._plan_int(op)
        if kind == K_FP:
            return self._plan_fp(op)
        if kind == K_FREP:
            return self._plan_frep(op)
        return None

    def _plan_int(self, op):
        """The plan of integer *op*: its split check, the leader's step,
        then every lane's register update (None: no vector form)."""
        step = self.sched.step
        iregs = self.iregs
        cols = self.cols
        mask = np.bitwise_and
        mnem = op.mnemonic
        operands = op.instr.operands
        imm = self.imms[op.index]
        base_idx = op.mem_base_idx

        def stepped():
            step()
            return True

        if op.special == S_SCFGWI:
            ssr = self.leader.ssrs[op.aux1]
            field = op.aux0
            src = op.aux2

            def plan():
                word = _uniform(iregs[:, src])
                if word is None:
                    return False
                try:
                    # Raises before touching the mover, or applies.
                    copy.deepcopy(ssr).write_config(field, word, now=0)
                except SSRError:
                    return False
                step()
                return True
            return plan
        if op.special != S_HANDLER or mnem == "nop":
            return stepped              # ret, j, ssr.enable/disable
        if mnem == "dma.copy":
            span_regs = [r.index for r in operands]      # dst, src, len
            others = self.memories[1:]
            mem_size = self.mem_size

            def plan():
                span = _uniform(iregs[:, span_regs])
                if span is None:
                    return False
                dst, src, length = span
                if max(dst, src) + length > mem_size:
                    return False
                step()
                # The leader's step copied lane 0's bytes.
                for memory in others:
                    memory.copy_within(dst, src, length)
                return True
            return plan
        if op.is_branch:
            fn = vo.VEC_BRANCH.get(mnem)
            zfn = vo.VEC_BRANCHZ.get(mnem)
            if op.target is None or fn is None and zfn is None:
                return None
            a = cols[operands[0].index]
            b = cols[operands[1].index] if fn is not None else None

            def guard():
                outcome = fn(a, b) if zfn is None else zfn(a)
                return not (outcome != outcome[0]).any()
            self.updates[op.index] = guard

            def plan():
                if not guard():
                    return False
                step()
                return True
            return plan
        if op.is_load:
            reader = vo.LOAD_READERS.get(mnem)
            if reader is None:
                return None
            dest = operands[0].index

            def plan():
                loaded = self._load(
                    reader, (iregs[:, base_idx] + imm) & _MASK32, 4)
                if loaded is None:
                    return False
                step()
                if dest:
                    iregs[:, dest] = loaded
                return True
            return plan
        if op.is_store:
            writer = vo.STORE_WRITERS.get(mnem)
            if writer is None:
                return None
            base = cols[base_idx]
            value = cols[operands[0].index]
            width = 4 if mnem == "sw" else 0

            def guard():
                return self._store(writer, base, imm, value, width)
            self.updates[op.index] = guard

            def plan():
                if not guard():
                    return False
                step()
                return True
            return plan

        dest = operands[0].index
        if mnem in vo.VEC_CONST:
            cfn = vo.VEC_CONST[mnem]
            if isinstance(imm, np.ndarray):
                value = np.array([cfn(int(v)) for v in imm], np.int64)
            else:
                value = cfn(imm)

            def update():
                iregs[:, dest] = value
        elif mnem in vo.VEC_UNARY:
            fn = vo.VEC_UNARY[mnem]
            a = cols[operands[1].index]
            out = cols[dest]

            def update():
                mask(fn(a), _MASK32, out=out)
        elif mnem in vo.VEC_RR:
            fn = vo.VEC_RR[mnem]
            a = cols[operands[1].index]
            b = cols[operands[2].index]
            out = cols[dest]

            if mnem in vo.UNMASKED:
                def update():
                    fn(a, b, out=out)
            else:
                def update():
                    mask(fn(a, b), _MASK32, out=out)
        elif mnem in vo.VEC_RI:
            fn = vo.VEC_RI[mnem]
            a = cols[operands[1].index]
            out = cols[dest]

            def update():
                mask(fn(a, imm), _MASK32, out=out)
        else:
            return None
        if not dest:
            self.updates[op.index] = _no_update
            return stepped
        self.updates[op.index] = update

        def plan():
            step()
            update()
            return True
        return plan

    def _fp_apply(self, op):
        """The lane-data half of compute *op*, or None without a
        vector form.

        ``apply(streams)`` updates every lane's registers; *streams*
        maps SSR indices to the proven :class:`_Stream` of the running
        op or FREP (empty when no stream is touched), whose next
        element a pop reads and a push fills.
        """
        fp_kind = op.fp_op
        if fp_kind not in (F_COMPUTE, F_TO_INT):
            return None
        table = vo.VEC_FP_COMPUTE if fp_kind == F_COMPUTE \
            else vo.VEC_FP_TO_INT
        compute = table.get(op.mnemonic)
        if compute is None:
            return None
        iregs = self.iregs
        fregs = self.fregs
        gather = op.gather
        dest = op.dest_idx

        def apply(streams):
            values = []
            for is_fp, idx in gather:
                if not is_fp:
                    values.append(iregs[:, idx])
                    continue
                stream = streams.get(idx) if streams else None
                if stream is not None and not stream.write:
                    values.append(stream.values[stream.pos])
                    stream.pos += 1
                else:
                    values.append(fregs[:, idx])
            result = compute(*values)
            if fp_kind == F_TO_INT:
                if dest:
                    iregs[:, dest] = result & _MASK32
                return
            stream = streams.get(dest) if streams else None
            if stream is not None and stream.write:
                stream.values[stream.pos] = result
                stream.pos += 1
            else:
                fregs[:, dest] = result

        return apply

    def _plan_fp(self, op):
        fp_kind = op.fp_op
        reader = writer = apply = None
        if fp_kind == F_LOAD:
            reader = vo.FP_LOAD_READERS[op.width]
        elif fp_kind == F_STORE:
            writer = vo.FP_STORE_WRITERS[op.width]
            width = 8 if op.width == 8 else 0
        else:
            apply = self._fp_apply(op)
            if apply is None:
                return None
        step = self.sched.step
        iregs = self.iregs
        fregs = self.fregs
        base_idx = op.mem_base_idx
        imm = self.imms[op.index]
        dest = op.dest_idx
        # Only ft0..ft(n-1) are stream registers; other ops skip the
        # stream proof altogether.
        n_ssrs = len(self.leader.ssrs)
        may_stream = any(is_fp and idx < n_ssrs for is_fp, idx in op.gather) \
            or (fp_kind == F_COMPUTE and dest < n_ssrs)
        body = (op,)
        if apply is not None and not may_stream:
            # Register-only: it joins the leader's compiled stretches.
            def update():
                apply(None)
            self.updates[op.index] = update

            def plan():
                step()
                update()
                return True
            return plan

        def plan():
            # What can split or fault, before the leader steps.
            streams = None
            if may_stream:
                streams = self._streams(body, 1)
                if streams is None:
                    return False
            if fp_kind == F_LOAD:
                loaded = self._load(
                    reader, (iregs[:, base_idx] + imm) & _MASK32, 8)
                if loaded is None:
                    return False
            elif fp_kind == F_STORE:
                idx = op.gather[0][1]
                stream = streams.get(idx) if streams else None
                value = stream.values[0] \
                    if stream is not None and not stream.write \
                    else fregs[:, idx]
                if not self._store(writer, iregs[:, base_idx], imm,
                                   value, width):
                    return False

            step()

            if fp_kind == F_LOAD:
                fregs[:, dest] = loaded
            elif apply is not None:
                apply(streams)
                if streams:
                    self._push(streams)
            return True

        return plan

    def _plan_frep(self, op):
        """``frep.o``: the leader steps the whole replay at once.

        Demotes only at the ``frep`` pc: the scalar engine raises the
        body errors there, and everything that could split or fault
        inside the replay is proven before the leader steps.
        """
        n = op.frep_n
        if n <= 0 or n > self.leader.config.frep_buffer_size \
                or op.frep_error is not None:
            return None
        body = op.frep_body
        applies = [self._fp_apply(bop) for bop in body]
        if None in applies:
            return None
        sched = self.sched
        step = sched.step
        iregs = self.iregs
        rs1 = op.aux0
        pc = op.index
        #: The replay's form over all reps (or None) by stream layout.
        forms: dict = {}

        def plan():
            reps = _uniform(iregs[:, rs1])
            if reps is None:
                return False
            reps += 1
            streams = self._streams(body, reps)
            if streams is None:
                return False
            # The replay is proven fault-free: once hot the leader runs
            # it as its compiled frep loop (one step, as in drain()).
            run = self.spans.runs[pc] or self.spans.new(sched, pc)
            fn = run.enter(sched)
            if fn is None:
                step()
            else:
                sched._pc = fn(sched)
                sched._steps += run.steps
            layout = tuple((idx, stream.write)
                           for idx, stream in streams.items())
            form = forms.get(layout, False)
            if form is False:
                form = forms[layout] = _replay_form(body, dict(layout))
            if form is not None:
                self._replay(form, streams, reps)
            else:
                for _ in range(reps):
                    for apply in applies:
                        apply(streams)
            if streams:
                self._push(streams)
            return True

        return plan

    def _replay(self, form: list, streams: dict, reps: int) -> None:
        """Apply a replay's ops to every lane for all *reps* at once:
        each value is a ``(reps, B)`` block, one row per rep."""
        fregs = self.fregs
        batch = self.batch
        blocks: dict[int, np.ndarray] = {}
        for compute, sources, dest, push in form:
            args = []
            for tag, idx, slot, per in sources:
                if tag == _POP:
                    args.append(streams[idx].values[slot::per])
                elif tag == _REP:
                    args.append(blocks[idx])
                else:
                    args.append(fregs[:, idx])
            if compute is None:
                # fadd.d into its own destination, rep after rep.
                result = np.add.accumulate(np.concatenate(
                    (fregs[None, :, dest],
                     np.broadcast_to(args[1], (reps, batch)))))[1:]
            else:
                result = np.broadcast_to(compute(*args), (reps, batch))
            if push is not None:
                streams[dest].values[push[0]::push[1]] = result
            else:
                blocks[dest] = result
        finals = [(idx, block[-1].copy()) for idx, block in blocks.items()]
        for idx, value in finals:
            fregs[:, idx] = value

    # ------------------------------------------------------------------
    # SSR streams: shared addresses, per-lane data
    # ------------------------------------------------------------------
    def _streams(self, body, reps: int):
        """Prove *body* x *reps* split- and fault-free on the SSRs.

        Returns ``{ssr index: _Stream}`` ({} when no stream is touched)
        with every element's address and lane values worked out on a
        copy of the mover, or None to demote: a stream would run dry,
        an address faults in some lane, lanes of an indirect gather
        would wait different mem-RAW times, or a push in the sequence
        would overwrite data the sequence pops.  The sequence's own
        pushes are then the only memory it writes, so what it pops —
        and when that data is ready — is fixed before it starts.
        """
        leader = self.leader
        if not leader.ssr_enabled:
            return {}
        ssrs = leader.ssrs
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
            stream = _Stream(addrs, ssr.is_write)
            streams[idx] = stream
            if ssr.is_write:
                words = set((at >> 2).tolist())
                if words & written:
                    return None
                written |= words
                written |= set(((at >> 2) + 1).tolist())
                stream.values = np.empty((count, len(datas)))
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
                for row in at.tolist():
                    first = times[row[0]]
                    if any(times[a] != first for a in row):
                        return None
                lane_words = list((at >> 3).T)
            else:
                lane_words = [at >> 3] * len(datas)
            popped |= set((at >> 2).ravel().tolist())
            popped |= set(((at >> 2) + 1).ravel().tolist())
            stream.values = np.stack(
                [_f64_view(data)[words]
                 for data, words in zip(datas, lane_words)], axis=1)
        if written & popped:
            return None
        return streams

    def _push(self, streams) -> None:
        """Write a finished sequence's pushes to lanes 1..; the
        leader's step pushed lane 0's."""
        for stream in streams.values():
            if not stream.write:
                continue
            # Pushes in order: a re-visited address keeps the last.
            last = {a: k for k, a in enumerate(stream.addrs)}
            words = np.array(list(last), np.int64) >> 3
            rows = stream.values[list(last.values())]
            for k, memory in enumerate(self.memories[1:], 1):
                _f64_view(memory.data)[words] = rows[:, k]

    def _plan_meta(self, op):
        label = op.instr.label or ""
        if label.endswith("_start"):
            closes = None
        elif label.endswith("_end"):
            closes = label[:-len("_end")]
        else:
            return None                 # every lane raises it scalar
        sched = self.sched
        step = sched.step

        def plan():
            # Closing a region that never opened raises; every lane
            # then raises it scalar.
            if closes is not None and closes not in sched._region_open:
                return False
            step()
            return True

        return plan
