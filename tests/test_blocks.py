"""Compiled runs (``repro.sim.blocks``) equal the per-op reference path.

The per-op path of the ``Scheduler`` is the golden reference; a hot run
of straight-line code executes as generated Python instead.  Each test
here runs one program on a plain ``while machine.step(): pass`` loop and
through ``machine.run()`` and asserts that both leave the same state:
the ``RunResult``, the error type and message, registers, float bits,
memory bytes, SSR state and every piece of timing state the scheduler
keeps (issue times, counters, scoreboards, writeback reservations, the
dispatch queue, memory-RAW times, the L0 window, pc and steps) — also
when the run raises part-way through.  The last tests cover what is
kept per process: the micro-op memo, and the run pool's heat, bound and
key, which must make a run's result independent of what ran before.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from repro.api import VARIANTS, Workload, parse_backend
from repro.cluster import ClusterConfig, ClusterMachine
from repro.isa import ProgramBuilder
from repro.isa.instructions import OpClass
from repro.kernels import KERNELS
from repro.obs import ObsSink
from repro.sim import CoreConfig, DecodedProgram, Machine, Memory, blocks, \
    decode
from repro.sim import ssr as ssrdef
from repro.sim.config import DEFAULT_LATENCIES
from repro.sim.scheduler import Scheduler

from programs import DATA, MEM_SIZE, _cfg, _lane_state, cluster_state, \
    compiled, lane_programs, per_op_run, stream_programs


def _timing(machine):
    sched = machine.sched
    return (sched._pc, sched._steps, sched.int_time, sched.fp_time,
            dict(vars(sched.counters)), list(sched.int_ready),
            list(sched.fp_ready), dict(sched.mem_ready),
            list(sched.int_wb_busy), list(sched.fp_wb_busy),
            list(sched.fpss_queue), sched.l0._lo, sched.l0._hi,
            {name: (time, vars(counters)) for name, (time, counters)
             in sched._region_open.items()},
            {name: (r.cycles, vars(r.counters))
             for name, r in sched._regions.items()})


def _state(program, memory, config, max_steps, how, k=0, prepare=None):
    """Run *program* one way; returns everything it left behind.

    *prepare*, if given, edits the bound machine before it runs."""
    machine = Machine(config=config, memory=memory)
    if how == "obs":
        machine.attach_obs(ObsSink())
    elif how == "trace":
        machine.enable_trace()
    result = error = None
    with compiled(k) as entries:
        try:
            if how == "step" or prepare is not None:
                machine.bind(program, max_steps)
                if prepare is not None:
                    prepare(machine)
                if how == "step":
                    while machine.step():
                        pass
                else:
                    machine.sched.drain()
                result = machine.result()
            else:
                result = machine.run(program, max_steps=max_steps)
        except Exception as exc:
            error = exc
    state = _lane_state(result, error, machine) + (_timing(machine),)
    return state, entries, machine


def check_paths(build, config=None, max_steps=200_000_000, k=0,
                prepare=None):
    """Reference, compiled, obs-attached and traced runs agree; returns
    the compiled run's entries, machine and state."""
    config = config or CoreConfig()
    args = (config, max_steps)
    reference, _, traced_ref = _state(*build(), *args, "trace", 0, prepare)
    step, none, _ = _state(*build(), *args, "step", 0, prepare)
    run, entries, machine = _state(*build(), *args, "run", k, prepare)
    obs, by_obs, _ = _state(*build(), *args, "obs", k, prepare)
    assert run == step
    assert obs == step and not by_obs
    assert reference == step and not none
    # A traced machine never compiles: its events are the per-op ones.
    _, by_trace, traced = _state(*build(), *args, "trace", k, prepare)
    assert not by_trace and traced.trace == traced_ref.trace
    return entries, machine, run


# ----------------------------------------------------------------------
# Generated programs (shared with the batch engine's differential tests)
# ----------------------------------------------------------------------
@pytest.mark.filterwarnings(
    "ignore:overflow encountered in cast:RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(lane_programs())
def test_generated_programs_compile_exactly(case):
    _, config, max_steps, build = case
    entries, _, _ = check_paths(lambda: build(0), config, max_steps)
    assert entries


@pytest.mark.filterwarnings(
    "ignore:overflow encountered in cast:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(stream_programs())
def test_generated_stream_programs_compile_exactly(case):
    _, config, max_steps, build = case
    entries, _, _ = check_paths(lambda: build(0), config, max_steps)
    assert entries


# ----------------------------------------------------------------------
# Directed edge cases
# ----------------------------------------------------------------------
def _loop(body, trips: int, memory_size: int = MEM_SIZE, setup=()):
    """``trips`` iterations of *body* (builder calls) over ``a2``."""
    def build():
        b = ProgramBuilder()
        b.li("a0", DATA)
        b.li("a2", trips)
        for emit in setup:
            emit(b)
        b.mark("main_start")
        b.label("loop")
        for emit in body:
            emit(b)
        b.addi("a2", "a2", -1)
        b.bnez("a2", "loop")
        b.mark("main_end")
        b.ret()
        memory = Memory(memory_size)
        for k in range(0, min(memory_size, 0x2000) - DATA, 8):
            memory.write_f64(DATA + k, 0.25 * k + 1.0)
        return b.build(), memory
    return build


_WALK = (lambda b: b.lw("t0", 0, "a0"),
         lambda b: b.addi("t1", "t0", 3),
         lambda b: b.mul("t2", "t1", "t0"),
         lambda b: b.fld("fa0", 0, "a0"),
         lambda b: b.fmadd_d("fa1", "fa0", "fa0", "fa1"),
         lambda b: b.fsd("fa1", 8, "a0"),
         lambda b: b.sw("t2", 4, "a0"),
         lambda b: b.addi("a0", "a0", 8))


@pytest.mark.parametrize("limit", (7, 150 * 10 + 3, 150 * 10 + 7))
def test_max_steps_inside_a_hot_run(limit):
    """The budget runs out inside a compiled run: the per-op path takes
    that entry and raises the usual message at the usual pc."""
    entries, machine, _ = check_paths(_loop(_WALK, 300), max_steps=limit,
                                      k=blocks.K)
    assert machine.sched._steps == limit + 1
    if limit > 1000:
        assert entries


@pytest.mark.parametrize("k", (0, blocks.K))
@pytest.mark.parametrize("access", ("lw", "sw", "fld", "fsd", "flw"))
def test_fault_in_the_middle_of_a_compiled_run(access, k):
    """A load or store walks off the end of memory mid-run, after the
    run compiled: the same error leaves the same state."""
    emit = {"lw": lambda b: b.lw("t3", 16, "a0"),
            "sw": lambda b: b.sw("t1", 16, "a0"),
            "fld": lambda b: b.fld("fa2", 16, "a0"),
            "fsd": lambda b: b.fsd("fa1", 16, "a0"),
            "flw": lambda b: b.flw("fa2", 16, "a0")}[access]
    body = _WALK[:5] + (emit,) + _WALK[5:]
    entries, _, state = check_paths(_loop(body, 10_000, DATA + 8 * 200),
                                    k=k)
    assert entries and "outside memory" in state[2]


@pytest.mark.parametrize("access", ("lw", "fld"))
def test_misaligned_access_mid_run(access):
    """A pointer that drifts off alignment after 128 iterations faults
    inside a hot run."""
    body = (lambda b: b.addi("a3", "a3", 1),
            lambda b: b.srli("a4", "a3", 7),
            lambda b: b.slli("a4", "a4", 1),
            lambda b: b.add("a5", "a0", "a4"),
            lambda b: b.fmul_d("fa1", "fa1", "fa1"),
            lambda b: b.emit(access, "t0" if access == "lw" else "fa0", 0,
                             "a5"))
    entries, _, state = check_paths(_loop(body, 400), k=blocks.K)
    assert entries and "misaligned" in state[2]


@pytest.mark.parametrize("path", ("ssr", "fld"))
def test_unaligned_8_byte_access_probes_three_words(path):
    """An 8-byte access 2 bytes off alignment spans three words; a
    store to the third delays it (a stall for an SSR pop, a later
    writeback slot for ``fld``) before the access faults."""
    def build():
        b = ProgramBuilder()
        b.li("a0", DATA)
        b.li("t0", 7)
        if path == "ssr":
            _cfg(b, ssrdef.F_BOUND0, 0, 3)
            _cfg(b, ssrdef.F_STRIDE0, 0, 8)
            _cfg(b, ssrdef.F_RPTR, 0, DATA + 2)
            b.emit("ssr.enable")
        for _ in range(3):
            b.addi("t1", "t1", 1)
        b.sw("t0", 8, "a0")
        if path == "ssr":
            b.fadd_d("fa0", "ft0", "fa1")
        else:
            b.fld("fa0", 2, "a0")
        b.ret()
        return b.build(), Memory(MEM_SIZE)
    config = CoreConfig(latencies={**DEFAULT_LATENCIES, OpClass.STORE: 6})
    entries, machine, state = check_paths(build, config)
    assert entries and "misaligned" in state[2]
    if path == "ssr":
        assert machine.counters.fp_stall_ssr > 0


def _count_calls(monkeypatch, name: str) -> list:
    """Log the pc of every call of the per-op ``Scheduler.<name>``."""
    calls = []
    method = getattr(Scheduler, name)

    def counting(sched, *args):
        calls.append(sched._pc)
        return method(sched, *args)
    monkeypatch.setattr(Scheduler, name, counting)
    return calls


@pytest.mark.parametrize("kind", ("mixed", "replay"))
def test_long_replays_compile(kind, monkeypatch):
    """Entries that make more than 8192 writeback reservations each, a
    sequencer replay of 2 x 4201 FP writes or a loop of 22k integer and
    FP writes, compile at ``K`` = 0 and leave the per-op path's state:
    only the marks and ``ret`` step per-op."""
    if kind == "replay":
        body = (lambda b: b.li("t1", 4200),
                lambda b: b.frep_o("t1", 2),
                lambda b: b.fmul_d("fa0", "fa0", "fa1"),
                lambda b: b.fadd_d("fa2", "fa2", "fa1"))
        trips = 3
    else:
        body = (lambda b: b.addi("t0", "t0", 1),
                lambda b: b.fadd_d("fa0", "fa0", "fa1")) * 10
        trips = 1000
    build = _loop(body, trips)
    entries, machine, _ = check_paths(build)
    assert entries
    steps = _count_calls(monkeypatch, "step")
    with compiled(0):
        program, memory = build()
        assert Machine(memory=memory).run(program) == machine.result()
    assert len(steps) == 3


def test_warm_builds_replay_compiled(monkeypatch):
    """Builds of poly_lcg/copift at n=4096 in one process: the first
    replays its ``frep`` loops per-op until they are hot, and by the
    third (the tail loop, entered once per build with 64 x 14 replay
    issues, is hot after two) every entry of every loop, the hottest
    replays included, runs compiled."""
    freps = _count_calls(monkeypatch, "_exec_frep")
    per_op = []
    with compiled(blocks.K):
        for _ in range(3):
            freps.clear()
            instance = KERNELS["poly_lcg"].build_copift(4096)
            Machine(memory=instance.memory).run(instance.program)
            per_op.append(len(freps))
    assert per_op[0] and not per_op[-1]


def _window(lo: int, hi: int):
    def prepare(machine):
        machine.sched.l0.backward_branch(hi, lo)
    return prepare


@pytest.mark.parametrize("lo,hi", ((3, 30), (0, 4), (2, 6), (9, 40)))
def test_l0_window_starts_or_ends_inside_a_run(lo, hi):
    """A captured L0 window handed to ``drain()`` (as after ``step()``
    calls or a batch demotion) that covers only part of a run."""
    body = tuple(lambda b, k=k: b.addi(f"t{k % 3}", f"t{k % 3}", k)
                 for k in range(12))
    entries, machine, _ = check_paths(_loop(body, 3), prepare=_window(lo, hi))
    assert 0 in entries


def test_l0_window_over_nested_loops():
    """Inner and outer loops capture, evict and re-enter the window."""
    def build():
        b = ProgramBuilder()
        b.li("a2", 60)
        b.label("outer")
        for _ in range(3):
            b.addi("t0", "t0", 1)
        b.li("a3", 3)
        b.label("inner")
        b.addi("t1", "t1", 1)
        b.andi("t2", "t1", 1)
        b.beqz("t2", "skip")
        b.addi("t3", "t3", 1)
        b.label("skip")
        b.addi("a3", "a3", -1)
        b.bnez("a3", "inner")
        b.addi("a2", "a2", -1)
        b.bnez("a2", "outer")
        b.ret()
        return b.build(), Memory(MEM_SIZE)
    for size in (64, 8, 2):
        entries, machine, _ = check_paths(
            build, CoreConfig(l0_icache_entries=size))
        assert entries
        assert (machine.counters.icache_l0_hits > 0) == (size > 2)


@pytest.mark.parametrize("count", (0, 1, 5))
def test_frep_short_repeat_counts(count):
    """``frep`` whose count register holds 0 (one iteration, no
    replay), 1 or a few."""
    def build():
        b = ProgramBuilder()
        b.li("a2", 40)
        b.label("loop")
        b.li("t1", count)
        b.frep_o("t1", 2)
        b.fmadd_d("fa0", "fa1", "fa2", "fa0")
        b.fmul_d("fa1", "fa1", "fa2")
        b.addi("a2", "a2", -1)
        b.bnez("a2", "loop")
        b.ret()
        return b.build(), Memory(MEM_SIZE)
    entries, _, _ = check_paths(build)
    assert entries


@pytest.mark.parametrize("write", (False, True))
def test_ssr_runs_dry_mid_replay(write):
    """A stream of 6 elements feeds (or takes) a replay of 9: the
    SSRError leaves the same counters, times and mover state."""
    def build():
        b = ProgramBuilder()
        _cfg(b, ssrdef.F_BOUND0, 0, 5)
        _cfg(b, ssrdef.F_STRIDE0, 0, 8)
        _cfg(b, ssrdef.F_WPTR if write else ssrdef.F_RPTR, 0, DATA)
        b.emit("ssr.enable")
        b.li("t1", 8)
        b.frep_o("t1", 2)
        if write:
            b.fadd_d("fa0", "fa0", "fa1")
            b.fmul_d("ft0", "fa0", "fa1")
        else:
            b.fadd_d("fa0", "fa0", "ft0")
            b.fmul_d("fa1", "fa0", "fa0")
        b.emit("ssr.disable")
        b.ret()
        memory = Memory(MEM_SIZE)
        for k in range(8):
            memory.write_f64(DATA + 8 * k, k + 0.5)
        return b.build(), memory
    entries, machine, _ = check_paths(build)
    assert entries
    sched = machine.sched
    assert sched._ops[sched._pc].mnemonic == "frep.o"


_LATENCIES = {**DEFAULT_LATENCIES, OpClass.ALU: 2, OpClass.LOAD: 3,
              OpClass.FP_ADD: 2, OpClass.FP_FMA: 4, OpClass.FP_LOAD: 3,
              OpClass.FP_MUL: 2}
_CONFIGS = {
    "default": CoreConfig(),
    "wb_ports_2": CoreConfig(int_wb_ports=2, fp_wb_ports=2),
    "no_int_wb_hazard": CoreConfig(model_int_wb_hazard=False),
    "no_l0": CoreConfig(model_l0_icache=False),
    "queue_depth_1": CoreConfig(fpss_queue_depth=1),
    "latencies": CoreConfig(latencies=_LATENCIES, fp_response_latency=2,
                            ssr_fill_latency=5, taken_branch_penalty=2),
}


@pytest.mark.parametrize("config", sorted(_CONFIGS))
@pytest.mark.parametrize("kernel", ("expf", "poly_lcg",
                                    "pi_xoshiro128p", "logf"))
@pytest.mark.parametrize("variant", ("baseline", "copift"))
def test_kernels_under_each_config(kernel, variant, config):
    """Every ``CoreConfig`` field a template reads, on paper kernels."""
    kernel_def = KERNELS[kernel]
    make = kernel_def.build_baseline if variant == "baseline" \
        else kernel_def.build_copift

    def build():
        instance = make(256)
        return instance.program, instance.memory
    cfg = _CONFIGS[config]
    step, _, _ = _state(*build(), cfg, 200_000_000, "step")
    run, entries, _ = _state(*build(), cfg, 200_000_000, "run")
    assert run == step
    assert entries


def test_hot_runs_are_shared_process_wide_and_bounded(monkeypatch):
    """Heat and compiled code are per process: later builds of the
    same kernel (new ``Program`` objects) compile only runs their own
    entries made hot, until one compiles nothing, yet enters its hot
    runs compiled and steps fewer ops per-op; the pool stays within its
    bound, also when that bound is small."""
    counted = []
    step = Scheduler.step

    def counting(sched):
        counted.append(None)
        return step(sched)
    monkeypatch.setattr(Scheduler, "step", counting)

    def cell():
        counted.clear()
        instance = KERNELS["pi_lcg"].build_copift(512)
        return Machine().run(instance.program), len(counted)

    with compiled(blocks.K) as entries:
        first, cold = cell()
        for _ in range(5):
            bound = len(entries)
            again, warm = cell()
            assert again == first
            if len(entries) == bound:
                break
        assert bound and len(entries) == bound and warm < cold
        assert len(blocks._POOL) <= blocks.POOL_SIZE
    monkeypatch.setattr(blocks, "POOL_SIZE", 4)
    with compiled(blocks.K):
        assert cell()[0] == first and cell()[0] == first
        assert len(blocks._POOL) <= 4


def test_cold_runs_stay_per_op_until_hot_in_the_process():
    """Heat is counted per process: a loop entered ``K / 2`` times per
    cell stays per-op in the first two cells (``K`` entries, not past
    it) and compiles in the third, which leaves the same state."""
    build = _loop(_WALK, blocks.K // 2)
    reference, _, _ = _state(*build(), CoreConfig(), 200_000_000, "step")
    with compiled(blocks.K) as entries:
        for cell in range(3):
            program, memory = build()
            machine = Machine(memory=memory)
            result = machine.run(program)
            assert _lane_state(result, None, machine) \
                + (_timing(machine),) == reference
            assert bool(entries) == (cell == 2)


# ----------------------------------------------------------------------
# Process-wide state: the micro-op memo and the run pool
# ----------------------------------------------------------------------
def _signature_loop():
    """A loop whose timing reads every field of the run pool's timing
    signature: a multiply beside ALU writes (integer writeback port),
    an SSR read stream armed just before it (fill latency), FP ops of
    mixed latency (FP writeback port, loads), a divide chain (dispatch
    queue), an FP-to-integer compare read back at once (response
    latency), ``ft2`` as a plain register (SSR count), an ``frep`` of
    two (sequencer buffer) and a taken branch (penalty, L0)."""
    b = ProgramBuilder()
    b.li("a0", DATA)
    b.li("a2", 12)
    b.fld("fa1", 8, "a0")
    _cfg(b, ssrdef.F_BOUND0, 0, 11)
    _cfg(b, ssrdef.F_STRIDE0, 0, 8)
    _cfg(b, ssrdef.F_RPTR, 0, DATA)
    b.emit("ssr.enable")
    b.label("loop")
    b.lw("t0", 0, "a0")
    b.mul("t1", "t0", "t0")
    b.addi("t2", "t0", 1)
    b.addi("t6", "t0", 2)
    b.fadd_d("fa0", "ft0", "fa1")
    b.fmadd_d("fa2", "fa0", "fa1", "fa2")
    b.fmul_d("fa3", "fa1", "fa1")
    b.fsub_d("fa5", "fa1", "ft2")
    b.fdiv_d("fa4", "fa4", "fa1")
    b.flt_d("t3", "fa0", "fa1")
    b.add("t4", "t3", "t1")
    b.li("t5", 1)
    b.frep_o("t5", 2)
    b.fadd_d("fa6", "fa6", "fa1")
    b.fmul_d("fa7", "fa7", "fa1")
    b.addi("a0", "a0", 8)
    b.addi("a2", "a2", -1)
    b.bnez("a2", "loop")
    b.emit("ssr.disable")
    b.ret()
    memory = Memory(MEM_SIZE)
    for k in range(0, 0x200, 8):
        memory.write_f64(DATA + k, 0.25 * k + 1.0)
    return b.build(), memory


#: One config per field of the timing signature, each changing one.
_SIGNATURE_FIELDS = {
    "latencies": CoreConfig(latencies={
        **DEFAULT_LATENCIES, OpClass.MUL: 5, OpClass.FP_FMA: 5,
        OpClass.FP_LOAD: 4}),
    "model_int_wb_hazard": CoreConfig(model_int_wb_hazard=False),
    "int_wb_ports": CoreConfig(int_wb_ports=2),
    "fp_wb_ports": CoreConfig(fp_wb_ports=2),
    "fpss_queue_depth": CoreConfig(fpss_queue_depth=1),
    "taken_branch_penalty": CoreConfig(taken_branch_penalty=3),
    "ssr_fill_latency": CoreConfig(ssr_fill_latency=40),
    "fp_response_latency": CoreConfig(fp_response_latency=4),
    "model_l0_icache": CoreConfig(model_l0_icache=False),
    "ssr_count": CoreConfig(ssr_count=2),
    "frep_buffer_size": CoreConfig(frep_buffer_size=1),
}


def _outcomes(config, per_op: bool):
    """The loop on a bare core and on ``cluster:1``: the per-op
    reference or ``run()``, which takes its runs from the pool."""
    program, memory = _signature_loop()
    machine = Machine(config=config, memory=memory)
    result = error = None
    try:
        if per_op:
            machine.bind(program, 200_000_000)
            while machine.step():
                pass
            result = machine.result()
        else:
            result = machine.run(program)
    except Exception as exc:
        error = exc
    bare = _lane_state(result, error, machine) + (_timing(machine),)
    program, memory = _signature_loop()
    cluster = ClusterMachine(ClusterConfig(n_cores=1), core_config=config)
    cluster.add_core(program, memory)
    error = None
    try:
        if per_op:
            per_op_run(cluster, 200_000_000)
        else:
            cluster.run()
    except Exception as exc:
        error = exc
    return bare, cluster_state(cluster, error)


def test_run_pool_key_covers_the_timing_signature():
    """The loop compiled under one config, then run under another that
    differs in one signature field (either way round), on a bare core
    and on a ``cluster:1`` core (a TCDM): each run equals its per-op
    reference, so no pooled run compiled for other timing is reused."""
    default = (CoreConfig(), _outcomes(CoreConfig(), per_op=True))
    for name, config in _SIGNATURE_FIELDS.items():
        changed = (config, _outcomes(config, per_op=True))
        assert changed[1][0] != default[1][0], name
        for order in ((default, changed), (changed, default)):
            with compiled(0) as entries:
                for cfg, reference in order:
                    assert _outcomes(cfg, per_op=False) == reference, name
                assert entries


def test_observed_machines_stay_per_op_in_a_warm_pool():
    """Runs compiled for a plain machine are not entered by one with an
    obs sink or a trace: their events equal those of a cold pool."""
    def events(warm: bool):
        with compiled(0) as entries:
            if warm:
                _outcomes(CoreConfig(), per_op=False)
            bound = len(entries)
            (program, memory), (again, copy) = (_signature_loop(),
                                                _signature_loop())
            observed, traced = Machine(memory=memory), Machine(memory=copy)
            sink = ObsSink()
            observed.attach_obs(sink)
            trace = traced.enable_trace()
            observed.run(program)
            traced.run(again)
            assert len(entries) == bound and bool(bound) == warm
        return sink.events, trace
    assert events(warm=True) == events(warm=False)


def test_equal_instructions_at_equal_pcs_share_micro_ops(monkeypatch):
    """The memo shares a micro-op between programs whose instructions
    at a pc are equal and resolve to equal targets, and only then; it
    stays within its bound."""
    def build(skip: int):
        b = ProgramBuilder()
        b.li("t0", 3)
        b.beqz("t0", "out")
        for _ in range(skip):
            b.addi("t1", "t1", 1)
        b.label("out")
        b.ret()
        return b.build()
    with compiled():
        one, same, other = (DecodedProgram.of(build(skip)).ops
                            for skip in (1, 1, 2))
        assert all(a is b for a, b in zip(one, same))
        assert one[0] is other[0] and one[2] is other[2]
        assert one[1] is not other[1]
        assert (one[1].target, other[1].target) == (3, 4)
        monkeypatch.setattr(decode, "MEMO_SIZE", 2)
        assert len(DecodedProgram.of(build(3)).ops) == 6
        assert len(decode._MEMO) == 2


def test_serve_cells_are_independent_of_pool_history():
    """The 36 cells ``serve_replay`` misses on (six kernels, two
    variants, core, ``cluster:4`` and ``soc:2x4+wb``, n=512) give the
    same record bytes run in either order from one pool as each from an
    empty pool."""
    cells = [(Workload(kernel, variant, n=512), spec)
             for spec in ("core", "cluster:4", "soc:2x4+wb")
             for kernel in sorted(KERNELS) for variant in VARIANTS]

    def record(workload, spec):
        run = parse_backend(spec).run(workload, check=False)
        return json.dumps(run.to_json(), sort_keys=True)
    alone = []
    for cell in cells:
        with compiled(blocks.K):
            alone.append(record(*cell))
    with compiled(blocks.K):
        forward = [record(*cell) for cell in cells]
    with compiled(blocks.K):
        backward = [record(*cell) for cell in reversed(cells)]
    assert forward == alone and backward[::-1] == alone
