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
indices, immediates, latencies, port counts, queue depth, which
registers are SSR streams), and the timing state lives in locals for
the whole run: both issue times, stall counters and the static counter
totals, which the run adds once on its way out.  Memory goes through
the :class:`~repro.sim.memory.Memory` methods and SSRs through
``peek_address``/``advance``, so every check still runs.  An op that
raises leaves what the per-op path leaves: the handler writes back the
locals, the static counters up to the faulting op and its pc.

Selection is by heat: a run compiles once the per-op path has executed
it about :data:`K` times its static length.  Code objects are cached
process-wide, keyed by their source (which embeds every constant it
depends on), so a run whose source is cached uses it from its first
entry.  An entry whose writeback reservations could cross the
scheduler's trim threshold runs per-op, so generated code never trims.
The per-op path stays the golden reference: cold runs, ``step()`` and
machines with a TCDM, obs sink or trace never leave it, and
``tests/test_blocks.py`` checks the two paths against each other.
"""

from __future__ import annotations

import re

from . import scheduler as _scheduler
from .decode import (
    F_BAD,
    F_COMPUTE,
    F_LOAD,
    F_TO_INT,
    K_FP,
    K_FREP,
    K_INT,
    S_HANDLER,
    S_JUMP,
)

#: A run compiles once the per-op path has executed about K times its
#: static length.  Compiling costs ~0.1 ms per op and the per-op path
#: ~3 us per instruction; see CHANGES.md for the measurements.
K = 80
#: Code objects kept process-wide (least recently used dropped first).
CACHE_SIZE = 256

_CODE: dict[str, object] = {}
#: Fingerprints of the runs compiled so far (cheap, inexact keys that
#: only decide whether a first entry looks its source up).
_SEEN: dict[tuple, None] = {}

_M = 0xFFFFFFFF
#: Stall counters a run keeps in locals, in local-name order (c0, c1..).
_STALLS = ("stall_raw_int", "stall_mem_raw", "stall_wb_port",
           "stall_queue_full", "fp_stall_raw", "fp_stall_ssr",
           "fp_stall_wb_port")
_RAW, _MEM_RAW, _WB, _QUEUE, _FP_RAW, _FP_SSR, _FP_WB = (
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


class Run:
    """The run entered at one pc, its heat and its compiled functions.

    *stop*, if given, ends the run before that pc (the batch engine's
    register-only stretches)."""

    __slots__ = ("ops", "head", "end", "steps", "frep", "sens",
                 "int_adds", "fp_adds", "heat", "sources", "fns")

    def __init__(self, ops: list, head: int, cfg, hot: bool,
                 stop: int | None = None) -> None:
        self.head = head
        self.frep = None
        top = []
        pc = head
        stop = len(ops) if stop is None else stop
        while pc < stop and _compilable(ops[pc], cfg):
            op = ops[pc]
            if op.kind == K_FREP:
                if not top:             # an frep loop is a run of its own
                    top.append(op)
                    self.frep = op
                    pc += 1 + op.frep_n
                break
            top.append(op)
            pc += 1
            if op.is_branch or op.special == S_JUMP:
                break
        self.ops = top
        self.end = max(pc, head + 1)
        #: The run's steps (an frep loop is one).
        self.steps = max(len(top), 1)
        fp_ops = [op for op in top if op.kind == K_FP] + list(
            self.frep.frep_body if self.frep is not None else ())
        self.sens = sorted({
            idx for op in fp_ops
            for idx in [i for is_fp, i in op.gather if is_fp]
            + [op.dest_idx] * (op.fp_op == F_COMPUTE)
            if idx < cfg.ssr_count})
        # Writeback reservations per entry (per iteration for an frep),
        # at most: an entry that could trim a set runs per-op.
        self.int_adds = sum(1 for op in top if op.kind == K_INT
                            and op.int_write_idx)
        self.fp_adds = sum(1 for op in fp_ops
                           if op.fp_op in (F_COMPUTE, F_LOAD))
        self.heat = 0
        self.sources: dict = {}
        self.fns = {} if hot and top else None

    def enter(self, sched):
        """The compiled function for this entry, or None (per-op)."""
        fns = self.fns
        if fns is None:
            return None
        frep = self.frep
        fp_adds = self.fp_adds if frep is None \
            else self.fp_adds * (sched._iregs[frep.aux0] + 1)
        room = _scheduler._WB_TRIM_THRESHOLD
        if len(sched.int_wb_busy) + self.int_adds > room \
                or len(sched.fp_wb_busy) + fp_adds > room:
            return None
        key = _mode(sched, self.sens) if self.sens else 0
        fn = fns.get(key)
        if fn is None:
            fn = self._warm(sched, key)
        return fn

    def _warm(self, sched, key):
        found = self.sources.get(key)
        hot = self.heat >= K * (self.end - self.head)
        if not found and (hot or found is None
                          and self._fingerprint(key) in _SEEN):
            # A run like one compiled before may find its code cached
            # from its first entry (False: not worth looking yet).
            found = source(sched, self, key)
        self.sources[key] = found or False
        if found:
            code = _CODE.pop(found[0], None)
            if code is None and hot:
                code = compile(found[0], "<repro.sim.blocks run>", "exec")
            if code is not None:
                _remember(_CODE, found[0], code)
                _remember(_SEEN, self._fingerprint(key), None)
                return self._bind(key, code, found[1])
        frep = self.frep
        self.heat += (self.end - self.head) if frep is None else (
            1 + (sched._iregs[frep.aux0] + 1) * frep.frep_n)
        return None

    def _fingerprint(self, key: int) -> tuple:
        return (self.head, key, *(op.mnemonic for op in self.ops))

    def _bind(self, key, code, names: dict):
        env = dict(names)
        exec(code, env)
        fn = self.fns[key] = env["run"]
        return fn


class RunTable:
    """Runs of the bound program by entry pc, built as control arrives."""

    __slots__ = ("sched", "runs", "hot")

    def __init__(self, sched) -> None:
        self.sched = sched
        self.runs: list = [None] * sched._n_ops
        self.hot = (sched._tcdm is None and sched._trace is None
                    and sched._obs is None)

    def new(self, pc: int) -> Run:
        sched = self.sched
        run = self.runs[pc] = Run(sched._ops, pc, sched.cfg, self.hot)
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


def _remember(cache: dict, key, value) -> None:
    """Insert *key* as the most recently used; drop the least recently
    used beyond :data:`CACHE_SIZE`."""
    cache[key] = value
    if len(cache) > CACHE_SIZE:
        del cache[next(iter(cache))]


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
    """

    def __init__(self, sched, run: Run, key: int) -> None:
        self.run = run
        self.lat = sched._lat
        self.int_hazard = sched._int_wb_hazard
        self.int_ports = sched._int_wb_ports
        self.fp_ports = sched._fp_wb_ports
        self.depth_q = sched._queue_depth
        self.fill = sched._ssr_fill_latency
        self.lat_fp_load = sched._lat_fp_load
        self.response = sched._fp_response_latency
        self.streams: dict[int, int] = {}
        code = key
        for i in reversed(run.sens):
            self.streams[i] = code % 4 if code else _OFF
            code //= 4
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
            if op.kind == K_FREP:
                per_rep = self.frep(op, op.index)
            elif op.kind == K_FP:
                self.dispatch(op, op.index)
            else:
                self.int_op(op, op.index)
                if op.is_branch or op.special == S_JUMP:
                    term = op
        return per_rep, term

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

    def wb_port(self, busy: str, ports: int, lat: int,
                stall: str) -> tuple[str, int]:
        """Reserve a writeback slot for an op issued at ``s``; returns
        the new issue time as (variable, offset)."""
        if ports != 1:
            self.put(f"{busy}.add(s + {lat})")
            return "s", 0
        self.put(f"w = s + {lat}")
        self.put(f"while w in {busy}: w += 1")
        self.put(f"{busy}.add(w)")
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
        lat = self.lat[pc]
        writes = op.int_write_idx
        start = ("s", 0)
        if writes and self.int_hazard:
            start = self.wb_port("ib", self.int_ports, lat, _WB)
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
        self.put("while q and q[0] < it: q.popleft()")
        self.put(f"if len(q) >= {self.depth_q} and "
                 f"(t := q.popleft() + 1) > it: "
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
                self.put(f"mem.write_f64(a, {result})")
                self.put(f"{ssr}.advance()")
                self.put(f"{ssr}.last_pop_time = s")
                self.count("ssr_writes")
                self.put(f"mr[a >> 2] = mr[(a >> 2) + 1] = s + {lat}")
            else:
                issued = self.wb_port("fb", self.fp_ports, lat, _FP_WB)
                self.put(f"F[{dest}] = {result}")
                self.put(f"fr[{dest}] = {_plus(issued, lat)}")
                self.settle(self.settled_fp, (dest,), lat)
                if issued[0] != "s":
                    self.put(f"s = {_plus(issued, 0)}")
        elif fp_op == F_LOAD:
            self.put(f"a = {self.address(op)}")
            self.probe8("a")
            self.put("if p > s: s = p")
            issued = self.wb_port("fb", self.fp_ports, lat, _FP_WB)
            if issued[0] != "s":
                self.put(f"s = {_plus(issued, 0)}")
            self.mark(fetched)
            read = "read_f64" if op.width == 8 else "read_f32"
            self.put(f"F[{dest}] = mem.{read}(a)")
            self.put(f"fr[{dest}] = s + {lat}")
            self.settle(self.settled_fp, (dest,), lat)
        else:                                       # F_STORE
            self.put(f"a = {self.address(op)}")
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
             ("RI", "S._read_index"))


def source(sched, run: Run, key: int) -> tuple[str, dict]:
    """The source of *run*'s function for SSR state *key*, and the
    per-program objects it reads as globals."""
    w = _Writer(sched, run, key)
    per_rep, term = w.write()
    head, last = run.head, run.end - 1
    fetches = last - head + 1
    stalls = sorted(w.stalls)
    stall_names = tuple(_STALLS[int(c[1:])] for c in stalls)
    epi = ["    except BaseException:",
           "        U(S, RUN, KEY, k, r, it, ft, "
           f"({''.join(c + ', ' for c in stalls)}))",
           "        raise",
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
    pro.append("    k = r = n = 0")
    if stalls:
        pro.append(f"    {' = '.join(stalls)} = 0")
    pro.append("    try:")
    return "\n".join(pro + body + epi) + "\n", w.names
