"""Compiled runs: hot straight-line code as generated Python.

A *run* is the straight-line code :meth:`Scheduler.drain
<repro.sim.scheduler.Scheduler.drain>` meets at a pc where control
arrives: integer ops with a bound handler, FP ops and direct jumps, up
to and including the first branch or direct jump, or up to the next
``frep``, which starts a run of its own (the ``frep``, iteration 0 and
the sequencer replay), or up to the first op that is none of these
(marks, SSR/DMA/barrier specials, ``ret``, decode errors).  Such an op
forms a run of its own that never compiles.

:func:`source` writes one run as one Python function.  Every rule of
``_step_int``, ``_step_fp``, ``_fpss_issue`` and ``_exec_frep`` is
emitted in the same order with the run's constants baked in (register
indices, immediates, latencies, whether a single writeback port is
modelled and the mask of its reservation ring, which registers are SSR
streams), and the timing state lives in locals for the whole run: both
issue times, stall counters and the static counter totals, which the
run adds once on its way out.  The writeback reservations and the
dispatch queue are fixed-size windows, so every entry, however long
its replay, compiles.  Memory goes through the
:class:`~repro.sim.memory.Memory` methods and SSRs through
``peek_address``/``advance``, so every check still runs.  An op that
raises leaves what the per-op path leaves: the handler writes back the
locals, the static counters up to the faulting op and its pc.

Selection is by process-wide heat: a run compiles once the per-op path
has executed it about :data:`K` times its static length, counted over
every core, cluster and cell of the process.  Runs live in one bounded
pool, keyed by their pc, their code and a timing signature of every
configuration value their source embeds, so equal code on other cores
or in later cells shares one run's heat and compiled functions.
The per-op path stays the golden reference: cold runs, ``step()`` and
machines with an obs sink or trace never leave it, and
``tests/test_blocks.py`` checks the two paths against each other.

Compiled runs also cover the cores of a cluster, which have a TCDM.
There loads, stores, SSR pops and pushes and ``frep`` replays arbitrate
through ``TA(a, width, s)``, the core's TCDM claim port
(:meth:`BankedTcdm.port <repro.cluster.tcdm.BankedTcdm.port>`) that the
scheduler binds, and add ``stall_tcdm``/``fp_stall_tcdm`` as the per-op
path does.  A run is then a generator: before a shared op it
waits, locals and all, while its core is at or past the driver's
horizon, and resumes when the driver picks the core again
(:mod:`repro.cluster.machine` tells why that is exact).  Waiting in
place, not leaving, keeps lock-step cores, which wait at almost every
shared op, from paying a run's entry and exit each time or compiling
every suffix of a run.  ``tests/test_multicore.py`` checks them against
the per-op cluster driver.  Machines without a TCDM get the same
source as before.
"""

from __future__ import annotations

import re

from .decode import (
    F_BAD,
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
)

#: A run compiles once the per-op path has executed about K times its
#: static length, counted per process.  Compiling costs ~0.1 ms per op
#: and the per-op path ~3 us per instruction; see CHANGES.md for the
#: measurements.
K = 80
#: Runs kept process-wide (least recently used dropped first): the
#: ``fig2_core``, ``soc_ladder`` and ``serve_replay`` cells enter 2.4k.
POOL_SIZE = 4096

#: Every run built so far, by its code and what its code depends on
#: (see :meth:`RunTable.new`).
_POOL: dict[tuple, "Run"] = {}

_M = 0xFFFFFFFF
#: Stall counters a run keeps in locals, in local-name order (c0, c1..).
_STALLS = ("stall_raw_int", "stall_mem_raw", "stall_wb_port",
           "stall_queue_full", "fp_stall_raw", "fp_stall_ssr",
           "fp_stall_wb_port", "stall_tcdm", "fp_stall_tcdm")
_RAW, _MEM_RAW, _WB, _QUEUE, _FP_RAW, _FP_SSR, _FP_WB, _TCDM, _FP_TCDM = (
    f"c{i}" for i in range(len(_STALLS)))

#: Integer ops written in-line: mnemonic -> value before the mask.
_RR = {"add": "{a} + {b}", "sub": "{a} - {b}", "and": "{a} & {b}",
       "or": "{a} | {b}", "xor": "{a} ^ {b}", "sll": "{a} << ({b} & 31)",
       "srl": "{a} >> ({b} & 31)", "sltu": "int({a} < {b})",
       "mul": "{a} * {b}"}
_RI = {"addi": "{a} + {i}", "andi": "{a} & {u}", "ori": "{a} | {u}",
       "xori": "{a} ^ {u}", "slli": "{a} << {sh}", "srli": "{a} >> {sh}",
       "sltiu": "int({a} < {u})"}
_LOADS = {"lw": "read_u32", "lbu": "read_u8"}
_STORES = {"sw": "write_u32", "sh": "write_u16", "sb": "write_u8"}
_BRANCHES = {"beq": "{a} == {b}", "bne": "{a} != {b}",
             "bltu": "{a} < {b}", "bgeu": "{a} >= {b}",
             "beqz": "{a} == 0", "bnez": "{a} != 0"}
#: FP ops written in-line (none of them can raise).
_FP = {"fadd.d": "{0} + {1}", "fsub.d": "{0} - {1}", "fmul.d": "{0} * {1}",
       "fmadd.d": "{0} * {1} + {2}", "fmsub.d": "{0} * {1} - {2}",
       "fnmadd.d": "-({0} * {1}) - {2}", "fnmsub.d": "-({0} * {1}) + {2}",
       "fmv.d": "{0}", "fneg.d": "-{0}", "fabs.d": "abs({0})",
       "fmin.d": "min({0}, {1})", "fmax.d": "max({0}, {1})",
       "feq.d": "int({0} == {1})", "flt.d": "int({0} < {1})",
       "fle.d": "int({0} <= {1})"}

# SSR stream states a run is specialized for.
_OFF, _READ, _GATHER, _WRITE = range(4)


def _plus(start: tuple[str, int], delta: int) -> str:
    """``var + offset + delta`` as short source."""
    var, offset = start
    offset += delta
    return var if not offset else f"{var} + {offset}" if offset > 0 \
        else f"{var} - {-offset}"


def _shared(op, reads, writes) -> bool:
    """Whether *op* may touch what other cores of a cluster also use:
    the TCDM, the DMA engine, a barrier or memory (``dma.copy``, and
    ``amoadd.w`` as a load), or an FP register in *reads* or *writes*,
    those that may be read or write streams."""
    kind = op.kind
    if kind == K_INT:
        return (op.is_load or op.is_store or op.mnemonic == "dma.copy"
                or op.special in (S_DMA_START, S_DMA_WAIT, S_BARRIER))
    if kind == K_FP:
        return op.fp_op in (F_LOAD, F_STORE) or any(
            is_fp and idx in reads for is_fp, idx in op.gather) or (
            op.fp_op == F_COMPUTE and op.dest_idx in writes)
    return kind == K_FREP and any(_shared(bop, reads, writes)
                                  for bop in op.frep_body)


def _compilable(op, cfg) -> bool:
    kind = op.kind
    if kind == K_INT:
        if op.special == S_HANDLER:
            return op.handler is not None and not (
                op.is_branch and op.target is None)
        return (op.special == S_JUMP and op.jump_direct
                and op.target is not None)
    if kind == K_FP:
        return op.fp_op != F_BAD
    return (kind == K_FREP and op.frep_error is None
            and 0 < op.frep_n <= cfg.frep_buffer_size)


def _extent(ops: list, head: int, cfg, stop: int) -> tuple[list, int]:
    """The ops of the run entered at *head*, ending before *stop*, and
    the pc after it."""
    top = []
    pc = head
    while pc < stop and _compilable(ops[pc], cfg):
        op = ops[pc]
        if op.kind == K_FREP:
            if not top:                 # an frep loop is a run of its own
                top.append(op)
                pc += 1 + op.frep_n
            break
        top.append(op)
        pc += 1
        if op.is_branch or op.special == S_JUMP:
            break
    return top, max(pc, head + 1)


class Run:
    """The run entered at one pc, its heat and its compiled functions.

    *top* are its ops (none for an op that never compiles) and *end*
    the pc after it.  *shared*, if given, tells the ops that may touch
    a cluster's shared resources: the run is :attr:`shared` if its
    first op is one, and the per-op path runs its first :attr:`span`
    steps, up to the next such op, before it checks the horizon
    again."""

    __slots__ = ("ops", "head", "end", "steps", "frep", "sens", "heat",
                 "fns", "shared", "span")

    def __init__(self, ops: list, head: int, top: list, end: int, cfg,
                 hot: bool, shared=None) -> None:
        self.head = head
        self.frep = top[0] if top and top[0].kind == K_FREP else None
        self.ops = top
        self.end = end
        #: The run's steps (an frep loop is one).
        self.steps = self.span = max(len(top), 1)
        self.shared = shared is not None and shared(ops[head])
        if shared is not None:
            self.span = next((i for i, op in enumerate(top)
                              if i and shared(op)), self.steps)
        fp_ops = [op for op in top if op.kind == K_FP] + list(
            self.frep.frep_body if self.frep is not None else ())
        self.sens = sorted({
            idx for op in fp_ops
            for idx in [i for is_fp, i in op.gather if is_fp]
            + [op.dest_idx] * (op.fp_op == F_COMPUTE)
            if idx < cfg.ssr_count})
        self.heat = 0
        self.fns = {} if hot and top else None

    def enter(self, sched):
        """The compiled function for this entry, or None (per-op)."""
        fns = self.fns
        if fns is None:
            return None
        key = _mode(sched, self.sens) if self.sens else 0
        fn = fns.get(key)
        if fn is None:
            fn = self._warm(sched, key)
        return fn

    def _warm(self, sched, key):
        frep = self.frep
        if self.heat < K * (self.end - self.head):
            self.heat += (self.end - self.head) if frep is None else (
                1 + (sched._iregs[frep.aux0] + 1) * frep.frep_n)
            return None
        text, names = source(sched, self, key)
        return self._bind(key, compile(text, "<repro.sim.blocks run>",
                                       "exec"), names)

    def _bind(self, key, code, names: dict):
        env = dict(names)
        exec(code, env)
        fn = self.fns[key] = env["run"]
        return fn


class RunTable:
    """Runs of the bound program by entry pc, taken from the pool as
    control arrives.

    On a core with a TCDM every op an obs sink sees is shared (the
    sink's event order is), else those :func:`_shared` names."""

    __slots__ = ("runs", "hot", "shared", "key")

    def __init__(self, sched) -> None:
        self.runs: list = [None] * sched._n_ops
        self.hot = sched._trace is None and sched._obs is None
        streams = range(sched._n_ssrs)
        self.shared = None
        if sched._claim is not None:
            self.shared = (lambda op: True) if sched._obs is not None \
                else (lambda op: _shared(op, streams, streams))
        #: What every run of this bind depends on besides its code.
        self.key = (sched._signature, sched._obs is None, self.hot)

    def new(self, sched, pc: int, stop: int | None = None) -> Run:
        """The run entered at *pc*, ending before *stop* if given (the
        batch engine's register-only stretches).  Runs of equal code at
        equal pcs under an equal timing signature are one pooled run,
        whose heat and compiled functions cores, clusters and cells
        share."""
        ops = sched._ops
        top, end = _extent(ops, pc, sched.cfg,
                           len(ops) if stop is None else stop)
        key = (self.key, stop, pc, end, *(op.ident for op in ops[pc:end]))
        run = _POOL.pop(key, None) or Run(ops, pc, top, end, sched.cfg,
                                          self.hot, self.shared)
        _POOL[key] = run
        if len(_POOL) > POOL_SIZE:
            del _POOL[next(iter(_POOL))]
        self.runs[pc] = run
        return run


def _mode(sched, sens) -> int:
    """Stream state of the SSRs a run touches, as one integer key."""
    if not sched.m.ssr_enabled:
        return 0
    ssrs = sched._ssrs
    key = 1
    for i in sens:
        ssr = ssrs[i]
        key = key * 4 + (_OFF if not ssr.armed else _WRITE if ssr.is_write
                         else _GATHER if ssr.indirect else _READ)
    return key


def _l0_hits(l0, lo: int, hi: int) -> int:
    """Fetches of pcs ``lo..hi`` that hit the captured L0 loop."""
    if not l0.enabled:
        return 0
    hits = min(hi, l0._hi) - max(lo, l0._lo) + 1
    return hits if hits > 0 else 0


def _unwind(sched, run: Run, key: int, mark: int, reps: int, it: int,
            ft: int, stalls: tuple) -> None:
    """Leave a compiled run that raised as the per-op path leaves it.

    What the per-op path had counted at each point that can raise is
    rebuilt here, from the run the function was generated for (any run
    of equal source yields the same)."""
    w = _Writer(sched, run, key)
    w.write()
    pc, steps, fetched, done, per_rep = w.marks[mark]
    sched.int_time = it
    sched.fp_time = ft
    cd = sched._cd
    for local, value in zip(sorted(w.stalls), stalls):
        cd[_STALLS[int(local[1:])]] += value
    for name, value in done.items():
        cd[name] += value
    for name, value in (per_rep or {}).items():
        cd[name] += reps * value
    hits = _l0_hits(sched.l0, run.head, fetched)
    cd["icache_l0_hits"] += hits
    cd["icache_l0_misses"] += fetched - run.head + 1 - hits
    sched._pc = pc
    sched._steps += steps


class _Writer:
    """Emits one run's function, op by op, tracking what the per-op
    path would have counted at every point an op can raise.

    Both issue times only grow, so once an op has issued after a
    register's ready time, every later op on that timeline finds the
    register ready: ``settled_int``/``settled_fp`` hold such registers
    and their RAW checks are left out until the register is rewritten
    with a later ready time.

    On a core with a TCDM (``shared``) memory ops and stream pops and
    pushes arbitrate through the claim port ``TA`` as the per-op path
    does, the run is a generator that waits before every op after the
    first that touches a shared resource in this stream state while the
    core is at or past the horizon ``H`` (:meth:`wait`), and a step that
    may raise first notes its issue time in ``i0`` for a held fault.
    """

    def __init__(self, sched, run: Run, key: int) -> None:
        self.run = run
        self.lat = sched._lat
        self.int_port = sched._int_wb_port
        self.fp_port = sched._fp_wb_port
        self.wb_mask = sched._wb_mask
        self.fill = sched._ssr_fill_latency
        self.lat_fp_load = sched._lat_fp_load
        self.response = sched._fp_response_latency
        self.shared = sched._claim is not None
        self.streams: dict[int, int] = {}
        code = key
        for i in reversed(run.sens):
            self.streams[i] = code % 4 if code else _OFF
            code //= 4
        #: The read and the write streams of this stream state.
        self.stream_regs = ([i for i, s in self.streams.items()
                             if s in (_READ, _GATHER)],
                            [i for i, s in self.streams.items()
                             if s == _WRITE])
        self.lines: list[str] = []
        self.indent = "        "
        self.names: dict[str, object] = {"U": _unwind, "RUN": run,
                                         "KEY": key}
        self.stalls: set[str] = set()
        self.counts: dict[str, int] = {}
        self.marks: list = []
        self.settled_int: set[int] = set()
        self.settled_fp: set[int] = set()
        self.pc = run.head
        self.step = 0
        self.vals = 0
        self.mark(run.head - 1, emit=False)

    def write(self) -> tuple[dict, object]:
        """Emit every op; returns the counts of one replay iteration
        and the terminating branch or jump (None if the run has none)."""
        per_rep = {}
        term = None
        for op in self.run.ops:
            self.pc = op.index
            self.step += 1
            if self.shared:
                if op.index > self.run.head and _shared(
                        op, *self.stream_regs):
                    self.wait()
                at, marks = len(self.lines), len(self.marks)
            if op.kind == K_FREP:
                per_rep = self.frep(op, op.index)
            elif op.kind == K_FP:
                self.dispatch(op, op.index)
            else:
                self.int_op(op, op.index)
                if op.is_branch or op.special == S_JUMP:
                    term = op
            if self.shared and len(self.marks) > marks:
                self.lines.insert(at, self.indent + "i0 = it")
        return per_rep, term

    # -- shared resources (cores with a TCDM) ---------------------------
    def wait(self) -> None:
        """Wait here while the core is at or past the horizon: the
        driver reads its key and resumes it with a new horizon in its
        turn."""
        self.put("if it >= H:")
        self.put("    S.int_time = it")
        self.put("    H = yield")

    def tcdm(self, width, stall: str) -> None:
        """Arbitrate the access of *width* bytes at ``a`` from ``s``."""
        if self.shared:
            self.put(f"if (g := TA(a, {width}, s)) > s: "
                     f"{self.stall(stall)} += g - s; s = g")

    # -- emission helpers ---------------------------------------------
    def put(self, line: str) -> None:
        self.lines.append(self.indent + line)

    def count(self, name: str | None, n: int = 1) -> None:
        if name is not None:
            self.counts[name] = self.counts.get(name, 0) + n

    def stall(self, local: str) -> str:
        self.stalls.add(local)
        return local

    def mark(self, fetched: int, emit: bool = True) -> None:
        """Note that the next statement may raise: what the per-op path
        has counted there, its pc and steps, and the last pc fetched."""
        if emit:
            self.put(f"k = {len(self.marks)}")
        self.marks.append([self.pc, self.step, fetched, dict(self.counts),
                           None])

    def value(self, name: str, obj) -> str:
        """A per-program object, passed in as a global."""
        ref = f"{name}{len(self.names)}"
        self.names[ref] = obj
        return ref

    def probe8(self, addr: str) -> None:
        """``p`` = memory-RAW time of 8 bytes at *addr* (``_mem_time``)."""
        self.put(f"j = {addr} >> 2")
        self.put("p = mr.get(j, 0)")
        self.put("if (u := mr.get(j + 1, 0)) > p: p = u")
        self.put(f"if {addr} & 3 and (u := mr.get(j + 2, 0)) > p: p = u")

    def wb_port(self, busy: str, port: bool, lat: int,
                stall: str) -> tuple[str, int]:
        """Reserve a slot on the single writeback port, if modelled, for
        an op issued at ``s``; returns the new issue time as (variable,
        offset)."""
        if not port:
            return "s", 0
        slot = f"{busy}[w & {self.wb_mask}]"
        self.put(f"w = s + {lat}")
        self.put(f"while {slot} == w: w += 1")
        self.put(f"{slot} = w")
        self.put(f"{self.stall(stall)} += w - {lat} - s")
        return "w", -lat

    @staticmethod
    def address(op) -> str:
        imm = f" + {op.imm}" if op.imm else ""
        return f"(X[{op.mem_base_idx}]{imm}) & {_M}"

    def settle(self, settled: set, regs, lat: int) -> None:
        """*regs* were written ready at issue + *lat*."""
        for r in regs:
            if lat <= 1:
                settled.add(r)
            else:
                settled.discard(r)

    # -- integer core ---------------------------------------------------
    def int_op(self, op, pc: int) -> None:
        reads = [r for r in dict.fromkeys(op.int_read_idx)
                 if r not in self.settled_int]
        if reads:
            self.put(f"s = t if (t := ir[{reads[0]}]) > it else it")
            for r in reads[1:]:
                self.put(f"if (t := ir[{r}]) > s: s = t")
            self.put(f"{self.stall(_RAW)} += s - it")
        else:
            self.put("s = it")
        self.settled_int.update(op.int_read_idx)
        addr = self.address(op)
        if op.is_load:
            self.put(f"a = {addr}")
            self.put("t = mr.get(a >> 2, 0)")
            self.put("if a & 3 and (u := mr.get((a >> 2) + 1, 0)) > t: "
                     "t = u")
            self.put(f"if t > s: {self.stall(_MEM_RAW)} += t - s; s = t")
        if self.shared and (op.is_load or op.is_store):
            if not op.is_load:
                self.put(f"a = {addr}")
            self.tcdm(4, _TCDM)
        lat = self.lat[pc]
        writes = op.int_write_idx
        start = self.wb_port("ib", bool(writes) and self.int_port, lat, _WB)
        inline = op.special == S_HANDLER and self.handler(op, pc)
        done = _plus(start, lat)
        for r in writes:
            self.put(f"ir[{r}] = {done}")
        self.settle(self.settled_int, writes, lat)
        if op.is_store:
            if not (inline and op.mnemonic in _STORES):
                self.put(f"a = {addr}")
            self.put(f"mr[a >> 2] = {done}")
            if op.mnemonic != "sw":
                self.put(f"if a & 3: mr[(a >> 2) + 1] = {done}")
        self.put(f"it = {_plus(start, 1)}")
        self.count("int_issued")
        self.count(op.counter)

    def handler(self, op, pc: int) -> bool:
        """Emit the functional effect; True when written in-line."""
        mnem = op.mnemonic
        if op.is_branch:
            return True                 # evaluated by the epilogue
        reg = [getattr(o, "index", None) for o in op.instr.operands]
        imm = op.instr.imm
        expr = None
        if mnem in _RR:
            expr = _RR[mnem].format(a=f"X[{reg[1]}]", b=f"X[{reg[2]}]")
        elif mnem in _RI:
            expr = _RI[mnem].format(a=f"X[{reg[1]}]", i=imm, u=imm & _M,
                                    sh=imm & 31)
        elif mnem in ("li", "lui"):
            expr = str((imm << 12 if mnem == "lui" else imm) & _M)
        elif mnem == "mv":
            expr = f"X[{reg[1]}]"
        elif mnem == "nop":
            return True
        if expr is not None:
            if reg[0]:
                self.put(f"X[{reg[0]}] = " + (
                    expr if expr.isdigit() else f"({expr}) & {_M}"))
            return True
        self.mark(pc)
        if mnem in _LOADS:                # the read is in range
            read = f"mem.{_LOADS[mnem]}(a)"
            self.put(f"X[{reg[0]}] = {read}" if reg[0] else read)
            return True
        if mnem in _STORES:
            self.put(f"a = (X[{reg[2]}]{f' + {imm}' if imm else ''}) "
                     f"& {_M}")
            self.put(f"mem.{_STORES[mnem]}(a, X[{reg[0]}])")
            return True
        self.put(f"{self.value('H', op.handler)}(m)")
        return False

    def branch(self, op) -> str:
        """The taken condition of the terminating branch."""
        template = _BRANCHES.get(op.mnemonic)
        if template is None:
            return f"{self.value('H', op.handler)}(m)"
        reg = [o.index for o in op.instr.operands[:2]
               if hasattr(o, "index")]
        return template.format(a=f"X[{reg[0]}]",
                               b=f"X[{reg[1]}]" if len(reg) > 1 else "")

    # -- FP subsystem ---------------------------------------------------
    def dispatch(self, op, pc: int) -> None:
        """``_step_fp``: the queue, integer operands, then the issue."""
        self.put(f"if (t := q[0] + 1) > it: "
                 f"{self.stall(_QUEUE)} += t - it; it = t")
        for r in dict.fromkeys(op.int_read_idx):
            if r not in self.settled_int:
                self.put(f"if (t := ir[{r}]) > it: "
                         f"{self.stall(_RAW)} += t - it; it = t")
        self.settled_int.update(op.int_read_idx)
        self.put("it += 1")
        self.count("fp_dispatched")
        self.issue(op, pc, "s = ft if ft > it else it")
        self.put("q.append(s)")

    def issue(self, op, fetched: int, start: str,
              sequencer: bool = False) -> None:
        """``_fpss_issue`` of *op* at ``s`` = *start*."""
        self.put(start)
        values = []
        for is_fp, idx in op.gather:
            if not is_fp:
                values.append(f"X[{idx}]")
            elif self.streams.get(idx) in (_READ, _GATHER):
                values.append(self.pop(idx, fetched))
            else:
                if idx not in self.settled_fp:
                    self.put(f"if (t := fr[{idx}]) > s: "
                             f"{self.stall(_FP_RAW)} += t - s; s = t")
                values.append(f"F[{idx}]")
        self.settled_fp.update(
            idx for is_fp, idx in op.gather
            if is_fp and self.streams.get(idx) not in (_READ, _GATHER))
        lat = self.lat[op.index]
        fp_op = op.fp_op
        dest = op.dest_idx
        if fp_op == F_COMPUTE or fp_op == F_TO_INT:
            template = _FP.get(op.mnemonic)
            if template is None:
                self.mark(fetched)
                self.put(f"x = {self.value('C', op.compute)}"
                         f"({', '.join(values)})")
                result = "x"
            else:
                result = template.format(*values)
            if fp_op == F_TO_INT:
                if dest:
                    self.put(f"X[{dest}] = {result} & {_M}")
                self.put(f"ir[{dest}] = s + {lat + self.response}")
                self.settled_int.discard(dest)
            elif self.streams.get(dest) == _WRITE:
                ssr = f"R{dest}"
                self.mark(fetched)
                self.put(f"a = {ssr}.peek_address(RI)")
                self.tcdm(8, _FP_TCDM)
                self.put(f"mem.write_f64(a, {result})")
                self.put(f"{ssr}.advance()")
                self.put(f"{ssr}.last_pop_time = s")
                self.count("ssr_writes")
                self.put(f"mr[a >> 2] = mr[(a >> 2) + 1] = s + {lat}")
            else:
                issued = self.wb_port("fb", self.fp_port, lat, _FP_WB)
                self.put(f"F[{dest}] = {result}")
                self.put(f"fr[{dest}] = {_plus(issued, lat)}")
                self.settle(self.settled_fp, (dest,), lat)
                if issued[0] != "s":
                    self.put(f"s = {_plus(issued, 0)}")
        elif fp_op == F_LOAD:
            self.put(f"a = {self.address(op)}")
            self.probe8("a")
            self.put("if p > s: s = p")
            self.tcdm(op.width, _FP_TCDM)
            issued = self.wb_port("fb", self.fp_port, lat, _FP_WB)
            if issued[0] != "s":
                self.put(f"s = {_plus(issued, 0)}")
            self.mark(fetched)
            read = "read_f64" if op.width == 8 else "read_f32"
            self.put(f"F[{dest}] = mem.{read}(a)")
            self.put(f"fr[{dest}] = s + {lat}")
            self.settle(self.settled_fp, (dest,), lat)
        else:                                       # F_STORE
            self.put(f"a = {self.address(op)}")
            self.tcdm(op.width, _FP_TCDM)
            self.mark(fetched)
            write = "write_f64" if op.width == 8 else "write_f32"
            self.put(f"mem.{write}(a, {values[0]})")
            if op.width == 8:
                self.put(f"mr[a >> 2] = mr[(a >> 2) + 1] = s + {lat}")
            else:
                self.put(f"mr[a >> 2] = s + {lat}")
        self.put("ft = s + 1")
        self.count("fp_issued")
        self.count(op.counter)
        if sequencer:
            self.count("sequencer_issued")

    def pop(self, idx: int, fetched: int) -> str:
        """Pop read stream *idx* for an operand; returns its value."""
        ssr = f"R{idx}"
        self.mark(fetched)
        self.put(f"a = {ssr}.peek_address(RI)")
        self.probe8("a")
        self.put(f"av = e{idx} + {ssr}.seq")
        self.put(f"if p and p + {self.lat_fp_load} > av: "
                 f"av = p + {self.lat_fp_load}")
        self.put(f"if av > s: {self.stall(_FP_SSR)} += av - s; s = av")
        self.tcdm(8, _FP_TCDM)
        value = f"v{self.vals}"
        self.vals += 1
        self.put(f"{value} = mem.read_f64(a)")
        self.put(f"{ssr}.advance()")
        self.put(f"{ssr}.last_pop_time = s")
        self.count("ssr_reads")
        if self.streams[idx] == _GATHER:
            self.count("ssr_index_fetches")
        return value

    # -- FREP -----------------------------------------------------------
    def frep(self, op, pc: int) -> dict:
        """``_exec_frep``; returns the counts of one replay iteration."""
        rs1 = op.aux0
        self.put("s = it")
        if rs1 not in self.settled_int:
            self.put(f"if (t := ir[{rs1}]) > s: "
                     f"{self.stall(_RAW)} += t - s; s = t")
        self.put(f"n = X[{rs1}]")
        self.put("it = s + 1")
        self.count("int_issued")
        self.count("csr_ops")
        body = op.frep_body
        for bop in body:
            self.dispatch(bop, bop.index)
        last = body[-1].index
        self.put("for r in range(n):")
        # Registers a replay rewrites late are not settled at its start.
        self.settled_fp -= {
            bop.dest_idx for bop in body
            if bop.fp_op == F_COMPUTE and self.lat[bop.index] > 1}
        before = dict(self.counts)
        first = len(self.marks)
        self.indent += "    "
        for bop in body:
            self.issue(bop, last, "s = ft", sequencer=True)
        self.indent = self.indent[:-4]
        per_rep = {name: value - before.get(name, 0)
                   for name, value in self.counts.items()
                   if value != before.get(name, 0)}
        for entry in self.marks[first:]:
            entry[4] = per_rep
        self.counts = before
        return per_rep


#: Prologue loads, emitted only for the names a run's code uses.
_PROLOGUE = (("it", "S.int_time"), ("ft", "S.fp_time"),
             ("ir", "S.int_ready"), ("fr", "S.fp_ready"),
             ("X", "S._iregs"), ("F", "S._fregs"), ("mr", "S.mem_ready"),
             ("ib", "S.int_wb_busy"), ("fb", "S.fp_wb_busy"),
             ("q", "S.fpss_queue"), ("mem", "S._mem"), ("m", "S.m"),
             ("RI", "S._read_index"), ("H", "S.horizon"),
             ("TA", "S._claim"))


def source(sched, run: Run, key: int) -> tuple[str, dict]:
    """The source of *run*'s function for SSR state *key*, and the
    per-program objects it reads as globals."""
    w = _Writer(sched, run, key)
    per_rep, term = w.write()
    head, last = run.head, run.end - 1
    fetches = last - head + 1
    stalls = sorted(w.stalls)
    stall_names = tuple(_STALLS[int(c[1:])] for c in stalls)
    # A waiting run that is dropped unfinished (another core faulted)
    # writes nothing back: Exception, not BaseException, for those.
    epi = [f"    except {'Exception' if w.shared else 'BaseException'}:",
           "        U(S, RUN, KEY, k, r, it, ft, "
           f"({''.join(c + ', ' for c in stalls)}))"]
    if w.shared:
        epi.append("        S._fault_time = i0")
    epi += ["        raise",
           "    S.fp_time = ft", "    cd = S._cd"]
    epi += [f"    cd[{name!r}] += {c}"
            for name, c in zip(stall_names, stalls)]
    for name in sorted(set(w.counts) | set(per_rep)):
        value, more = w.counts.get(name, 0), per_rep.get(name)
        epi.append(f"    cd[{name!r}] += {value}"
                   + (f" + n * {more}" if more else ""))
    if sched.l0.enabled:
        epi += ["    l0 = S.l0",
                f"    h = min(l0._hi, {last}) - max(l0._lo, {head}) + 1",
                "    if h < 0: h = 0",
                "    cd['icache_l0_hits'] += h",
                f"    cd['icache_l0_misses'] += {fetches} - h"]
    else:
        epi.append(f"    cd['icache_l0_misses'] += {fetches}")
    if term is None:
        epi += ["    S.int_time = it", f"    return {run.end}"]
    else:
        pc = term.index
        penalty = sched._branch_penalty
        taken = [f"S.int_time = it + {penalty}",
                 f"cd['stall_branch'] += {penalty}"]
        if term.target <= pc:
            taken.append(f"S.l0.backward_branch({pc}, {term.target})")
        taken.append(f"return {term.target}")
        if term.is_branch:
            epi.append(f"    if {w.branch(term)}:")
            epi += ["        " + line for line in taken]
            epi += ["    S.int_time = it", f"    return {pc + 1}"]
        else:
            epi += ["    " + line for line in taken]
    if w.shared:
        # A generator: it yields None to wait, then its next pc.
        epi = [line.replace("return ", "yield ") + "; return"
               if "return " in line else line for line in epi]
    body = w.lines or ["        pass"]
    used = set(re.findall(r"[A-Za-z_]\w*", "\n".join(body + epi)))
    pro = ["def run(S):"]
    pro += [f"    {name} = {load}" for name, load in _PROLOGUE
            if name in used or name in ("it", "ft")]
    for i in run.sens:
        if w.streams[i] != _OFF:
            pro.append(f"    R{i} = S._ssrs[{i}]")
            if w.streams[i] != _WRITE:
                pro.append(f"    e{i} = R{i}.arm_time + {w.fill}")
    pro.append("    k = r = n = i0 = 0" if w.shared else "    k = r = n = 0")
    if stalls:
        pro.append(f"    {' = '.join(stalls)} = 0")
    pro.append("    try:")
    return "\n".join(pro + body + epi) + "\n", w.names
