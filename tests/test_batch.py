"""Batch-engine equivalence tests: vector lockstep == scalar, always.

The contract of :mod:`repro.sim.batch` is *byte-for-byte* identity:
for any mix of kernels, variants, seeds and problem sizes, a lane's
``RunResult``/``RunRecord`` must match what the scalar ``Machine``
produces for the same instance — cycles, counters, regions, memory
writes and serialized payload bytes.  These tests lock that contract
across the interesting regimes: homogeneous fleets, cross-seed
cohorts (per-lane immediates), cohorts whose lanes would split (a
size sweep, data-dependent branches, a per-lane fault) and so demote
as a whole, COPIFT cohorts running SSR streams and FREP replays on the
shared timeline, generated programs (with and without SSR streams,
FREP and ``dma.copy``) checked against the scalar ``Machine``, and
every ``jobs``/``batch`` sharding combination of
:class:`repro.api.Sweep`.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import CoreBackend, Sweep, Workload
from repro.api.batchrun import (
    plan_batch,
    resolve_batch,
    run_batch_cells,
)
from repro.kernels.common import KernelInstance
from repro.kernels.registry import KERNELS
from repro.isa import ProgramBuilder
from repro.sim import CoreConfig, Machine, Memory
from repro.sim import ssr as ssrdef
from repro.sim.batch import BatchEngine, program_signature

N = 256
SEEDS = (None, 3, 17)


def payload(record) -> str:
    """The byte-level identity the acceptance criteria talk about."""
    return json.dumps(record.to_json(), sort_keys=True)


def scalar_records(workloads, check: bool = False):
    return Sweep(workloads).run(check=check)


def batch_records(workloads, batch, jobs: int = 1,
                  check: bool = False):
    return Sweep(workloads, batch=batch).run(jobs=jobs, check=check)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("variant", ("baseline", "copift"))
def test_batch_matches_scalar(kernel, variant):
    """Six kernels x both variants x three seeds: identical records.

    Both variants run vectorized end to end; the copift variants do so
    through the SSR, FREP and ``dma.copy`` plans.  Seeds only change
    ``li`` immediates and memory images, so all lanes share one cohort
    — the per-lane-immediate regime.
    """
    workloads = [Workload(kernel, variant, n=N, seed=seed)
                 for seed in SEEDS]
    scalar = scalar_records(workloads)
    batched = batch_records(workloads, batch=len(workloads))
    for s, b in zip(scalar, batched):
        assert payload(b) == payload(s)


def test_cross_seed_lanes_share_one_cohort():
    """Seeds bake into ``li`` immediates; the structural signature
    excludes immediate values, so a seed sweep forms a single cohort
    (no per-seed fragmentation, which would defeat vectorization)."""
    instances = [Workload("pi_lcg", n=128, seed=s).build()
                 for s in (1, 2, 3, 4)]
    signatures = {program_signature(i.program) for i in instances}
    assert len(signatures) == 1
    engine = BatchEngine(instances)
    assert len(engine._cohorts) == 1
    assert engine._cohorts[0].batch == 4


def test_cross_size_lanes_share_one_cohort_and_match():
    """Different problem sizes share a cohort but part ways at the
    first loop exit: the lanes would split there, so the whole cohort
    demotes to the scalar engine and still matches it exactly."""
    workloads = [Workload("poly_xoshiro128p", n=n)
                 for n in (64, 128, 192, 256)]
    instances = [w.build() for w in workloads]
    assert len({program_signature(i.program) for i in instances}) == 1
    assert BatchEngine(instances).run().demoted == [True] * 4
    scalar = scalar_records(workloads)
    batched = batch_records(workloads, batch=4)
    for s, b in zip(scalar, batched):
        assert payload(b) == payload(s)


def test_data_divergent_branches_match_scalar():
    """Seeds of one pi kernel share a cohort; should a branch outcome
    ever differ across lanes, the cohort demotes at that branch.
    Either way every lane matches the scalar engine."""
    workloads = [Workload("pi_xoshiro128p", n=N, seed=s)
                 for s in (5, 6, 7, 8, 9)]
    scalar = scalar_records(workloads)
    batched = batch_records(workloads, batch=5)
    for s, b in zip(scalar, batched):
        assert payload(b) == payload(s)


def test_copift_lanes_stay_vectorized():
    """COPIFT cohorts run SSR streams, FREP replays and ``dma.copy``
    on the shared timeline to the end, with scalar-identical
    results."""
    seeds = (1, 2, 99)
    for kernel in ("expf", "logf", "pi_lcg", "poly_xoshiro128p"):
        instances = [Workload(kernel, "copift", n=N, seed=seed).build()
                     for seed in seeds]
        engine = BatchEngine(instances).run()
        assert engine.demoted == [False] * 3, kernel
        for lane, seed in enumerate(seeds):
            ref, _ = Workload(kernel, "copift", n=N,
                              seed=seed).build().run(check=False)
            assert engine.results[lane] == ref, (kernel, lane)


def test_baseline_lanes_stay_vectorized():
    """The real seed-sweep cohorts run on one shared timeline to the
    end.  expf and logf look up tables at lane-varying addresses; they
    stay shared because every lane sees the same mem-RAW ready time."""
    for kernel in ("expf", "logf", "pi_lcg", "poly_xoshiro128p"):
        instances = [Workload(kernel, n=N, seed=seed).build()
                     for seed in (1, 2, 99)]
        engine = BatchEngine(instances).run()
        assert engine.demoted == [False] * 3, kernel
        assert all(e is None for e in engine.errors), kernel


def test_verify_sees_batch_memory_and_machine():
    """check=True runs each kernel's own verifier against the lane's
    memory image and flushed machine state."""
    workloads = [Workload(k, v, n=128)
                 for k in ("logf", "pi_lcg")
                 for v in ("baseline", "copift")]
    scalar = scalar_records(workloads, check=True)
    batched = batch_records(workloads, batch=4, check=True)
    for s, b in zip(scalar, batched):
        assert payload(b) == payload(s)


def _lane(program, memory: Memory) -> KernelInstance:
    """A hand-built lane with no verifier."""
    return KernelInstance(
        name="lane", variant="baseline", program=program,
        memory=memory, n=1, block=None, dma_active=False,
        dma_bytes=0, verify=lambda memory_, machine: None,
    )


def _mini_instance(addr: int) -> KernelInstance:
    """A tiny hand-built lane: load a word from *addr*, add, store.

    Lanes built with different *addr* values share a signature (only
    the ``li`` immediate differs) — a misaligned one faults mid-run
    while its siblings keep stepping.
    """
    memory = Memory()
    memory.write_u32(0x200, 41)
    b = ProgramBuilder()
    b.li("a0", addr)
    b.lw("a1", 0, "a0")
    b.addi("a1", "a1", 1)
    b.li("a2", 0x300)
    b.sw("a1", 0, "a2")
    return _lane(b.build(), memory)


def test_error_in_one_lane_does_not_poison_siblings():
    """A mid-run fault (misaligned load) in one lane demotes the cohort
    at that load: the fault surfaces as that lane's error, and the
    siblings finish with scalar-identical state."""
    good = _mini_instance(0x200)
    bad = _mini_instance(0x201)     # misaligned lw
    good2 = _mini_instance(0x200)
    engine = BatchEngine([good, bad, good2]).run()

    assert engine.errors[1] is not None
    assert engine.results[1] is None
    assert engine.errors[0] is None and engine.errors[2] is None

    ref_result, ref_machine = _mini_instance(0x200).run(check=False)
    for lane, instance in ((0, good), (2, good2)):
        assert engine.results[lane].cycles == ref_result.cycles
        assert instance.memory.read_u32(0x300) == 42
        machine = engine.machine(lane)
        assert machine.iregs[:] == ref_machine.iregs[:]
    with pytest.raises(type(engine.errors[1])):
        _mini_instance(0x201).run(check=False)


def test_fmv_x_w_beyond_float32_raises_like_scalar():
    """The scalar ``fmv.x.w`` raises on a finite double beyond the
    float32 range; a batch lane holding one must raise the same."""
    def instance(value: float) -> KernelInstance:
        memory = Memory(0x4000)
        memory.write_f64(0x1000, value)
        b = ProgramBuilder()
        b.li("a0", 0x1000)
        b.fld("fa0", 0, "a0")
        b.fmv_x_w("t0", "fa0")
        return _lane(b.build(), memory)

    values = (1.5, 1e300)
    engine = BatchEngine([instance(v) for v in values]).run()
    for lane, value in enumerate(values):
        try:
            ref, _ = instance(value).run(check=False)
        except OverflowError as exc:
            assert type(engine.errors[lane]) is OverflowError
            assert str(engine.errors[lane]) == str(exc)
        else:
            assert engine.results[lane] == ref
    assert engine.errors[0] is None and engine.errors[1] is not None


def _lookup_instance(slot: int) -> KernelInstance:
    """An FP store to a table, then an integer lookup at *slot*.

    The lookup of slot 0 reads the stored word and waits for the store;
    the lookup of any other slot does not wait.
    """
    b = ProgramBuilder()
    b.li("a3", 0x2000)
    b.li("a1", 0x2000 + 8 * slot)
    b.fsd("fa0", 0, "a3")
    b.lw("t0", 0, "a1")
    return _lane(b.build(), Memory(0x4000))


@pytest.mark.parametrize("slots, demoted", (((1, 2), False),
                                             ((0, 2), True)))
def test_lookup_stays_shared_only_on_equal_waits(slots, demoted):
    """A load at lane-varying addresses keeps the cohort on one
    timeline exactly when every lane waits equally long."""
    engine = BatchEngine([_lookup_instance(s) for s in slots]).run()
    assert engine.demoted == [demoted] * len(slots)
    for lane, slot in enumerate(slots):
        ref, _ = _lookup_instance(slot).run(check=False)
        assert engine.results[lane] == ref


def _cfg(b, field: int, ssr: int, value: int) -> None:
    """Write one SSR configuration word through ``t0``."""
    b.li("t0", value & 0xFFFF_FFFF)
    b.scfgwi("t0", ssrdef.encode_cfg_imm(field, ssr))


def _armed_split(lane: int):
    """Arm a read and a write stream, pop and push, then branch on a
    byte that differs between the two lanes; both streams keep going
    after the branch."""
    memory = Memory(MEM_SIZE)
    for k in range(8):
        memory.write_f64(DATA + 8 * k, 1.5 * k - 2.0)
    memory.write_u8(IDX, lane)
    b = ProgramBuilder()
    for ssr, pointer, base in ((0, ssrdef.F_RPTR, DATA),
                               (1, ssrdef.F_WPTR, OUT)):
        _cfg(b, ssrdef.F_BOUND0, ssr, 7)
        _cfg(b, ssrdef.F_STRIDE0, ssr, 8)
        _cfg(b, pointer, ssr, base)
    b.li("a1", IDX)
    b.emit("ssr.enable")
    b.mark("main_start")
    b.fadd_d("fa0", "ft0", "ft0")
    b.fmv_d("ft1", "fa0")
    b.lbu("s3", 0, "a1")
    b.beqz("s3", "skip")
    b.fadd_d("fa1", "fa1", "ft0")
    b.label("skip")
    b.fmul_d("ft1", "ft0", "fa0")
    b.mark("main_end")
    b.emit("ssr.disable")
    b.ret()
    return b.build(), memory


def test_demotion_hands_over_armed_streams():
    """A cohort that splits while streams are armed hands every SSR's
    configuration and position to the scalar engine, which then pops
    and pushes exactly where a scalar run would."""
    engine = _check_cohort(2, CoreConfig(), 10_000, _armed_split)
    assert engine.demoted == [True, True]


def _overlapping_copy(lane: int):
    """Copy 64 bytes of DATA 8 bytes up, over their own source."""
    memory = Memory(MEM_SIZE)
    for k in range(16):
        memory.write_f64(DATA + 8 * k, k + 0.25 * lane)
    b = ProgramBuilder()
    b.li("a5", DATA + 8)
    b.li("a6", DATA)
    b.li("a7", 64)
    b.emit("dma.copy", "a5", "a6", "a7")
    b.ret()
    return b.build(), memory


def test_overlapping_dma_copy_lands_once_per_lane():
    """A ``dma.copy`` over its own source shifts every lane's bytes
    once: the leader's step copies lane 0, the vector update the
    other lanes."""
    engine = _check_cohort(2, CoreConfig(), 100, _overlapping_copy)
    assert engine.demoted == [False, False]


def _store_over_pop(lane: int):
    """``fsw`` a popped double into its own upper half."""
    memory = Memory(MEM_SIZE)
    for k in range(8):
        memory.write_f64(DATA + 8 * k, 1.5 + k + lane)
    b = ProgramBuilder()
    _cfg(b, ssrdef.F_BOUND0, 0, 7)
    _cfg(b, ssrdef.F_STRIDE0, 0, 8)
    _cfg(b, ssrdef.F_RPTR, 0, DATA)
    b.li("a0", DATA)
    b.emit("ssr.enable")
    b.emit("fsw", "ft0", 4, "a0")
    b.emit("ssr.disable")
    b.ret()
    return b.build(), memory


def test_store_over_its_own_pop_reads_first():
    """The leader's step pops lane 0's element before its store
    overwrites part of it: the vector store's fault check must leave
    lane 0's memory as the op found it."""
    engine = _check_cohort(2, CoreConfig(), 100, _store_over_pop)
    assert engine.demoted == [False, False]


def test_sweep_jobs_batch_grid_identical():
    """The acceptance matrix: payloads identical for every jobs/batch
    combination, including batch groups as the per-task unit."""
    workloads = [Workload(k, v, n=192)
                 for k in ("pi_lcg", "expf", "logf")
                 for v in ("baseline", "copift")]
    reference = [payload(r) for r in scalar_records(workloads)]
    for jobs, batch in ((1, 2), (1, "auto"), (2, 3), (3, 2)):
        got = [payload(r) for r in
               batch_records(workloads, batch=batch, jobs=jobs)]
        assert got == reference, (jobs, batch)


def test_sweep_batch_composes_with_store_cache(tmp_path):
    """Cache keys are engine-agnostic: a batch run warms the store
    with records a scalar run then returns verbatim (and vice versa)."""
    from repro.serve import RunStore

    workloads = [Workload("pi_lcg", n=128, seed=s) for s in (1, 2)]
    store = RunStore(tmp_path / "cache")
    batched = Sweep(workloads, batch=2).run(cache=store)
    assert store.stats.stores == 2
    scalar = Sweep(workloads).run(cache=store)
    assert store.stats.hits == 2
    for s, b in zip(scalar, batched):
        assert payload(b) == payload(s)


def test_plan_batch_groups_and_leftovers():
    backend = CoreBackend()
    other = CoreBackend()
    pending = [(i, Workload("expf", n=64, seed=i), backend, False)
               for i in range(5)]
    pending.append((5, Workload("expf", n=64), other, False))
    tasks, scalar = plan_batch(pending, lanes=2)
    # 5 cells on one backend -> 2+2 batch groups + 1 leftover; the
    # lone cell of the second backend stays scalar.
    assert [len(items) for _, items in tasks] == [2, 2]
    assert [cell[0] for cell in scalar] == [4, 5]


def test_run_batch_cells_matches_backend_run():
    backend = CoreBackend()
    workloads = [Workload("poly_lcg", n=128, seed=s) for s in (1, 2)]
    items = [(i, w, True) for i, w in enumerate(workloads)]
    got = run_batch_cells(backend, items)
    for (index, record), w in zip(got, workloads):
        assert payload(record) == payload(backend.run(w, check=True))


def test_resolve_batch_values():
    assert resolve_batch(None) is None
    assert resolve_batch("auto") >= 2
    assert resolve_batch(7) == 7
    for bad in (0, -1, True, 1.5, "many"):
        with pytest.raises(ValueError):
            resolve_batch(bad)


def test_sweep_validates_batch_eagerly():
    with pytest.raises(ValueError, match="batch"):
        Sweep([Workload("expf", n=64)], batch=0)


def test_numpy_gate_is_actionable(monkeypatch):
    import repro.sim.batch as batch_mod

    monkeypatch.setattr(batch_mod, "np", None)
    with pytest.raises(RuntimeError, match="numpy"):
        batch_mod.require_numpy()
    with pytest.raises(RuntimeError, match="batch=None"):
        BatchEngine([Workload("expf", n=64).build()])


# ----------------------------------------------------------------------
# Differential test: generated programs, batch vs scalar
# ----------------------------------------------------------------------
#: Memory layout of a generated lane: ``a0`` walks DATA (uniform
#: addresses); ``a1`` points into TABLE at a per-lane offset (lane-
#: varying addresses) and ``a3`` at its start (uniform), so lane-
#: varying loads can see different mem-RAW ready times; ``a4`` is a
#: per-lane address that may be misaligned.
DATA, TABLE, MEM_SIZE = 0x1000, 0x2000, 0x4000
INT_DST = ("t0", "t1", "t2", "t3", "t4", "s2", "s3")
INT_SRC = INT_DST + ("zero", "a0", "a1")
FP_REGS = ("fa0", "fa1", "fa2", "ft0", "ft1")
RR = ("add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt",
      "sltu", "mul", "mulh", "mulhu", "mulhsu", "div", "remu")
RI = ("addi", "andi", "ori", "xori", "slti", "sltiu")
SHIFT_I = ("slli", "srli", "srai")
FP2 = ("fadd.d", "fsub.d", "fmul.d", "fdiv.d", "fmin.d", "fmax.d",
       "fsgnj.d", "fsgnjx.d", "fadd.s", "fmul.s")
FP1 = ("fmv.d", "fabs.d", "fneg.d", "fcvt.s.d", "fsqrt.d")
FP3 = ("fmadd.d", "fnmsub.d", "fmsub.s")
FP_TO_INT = ("feq.d", "flt.d", "fcvt.w.d", "fcvt.wu.d", "fmv.x.w")
INT_TO_FP = ("fcvt.d.w", "fcvt.d.wu", "fmv.w.x")
LOADS = (("lw", 4), ("lh", 2), ("lbu", 1))
STORES = (("sw", 4), ("sh", 2), ("sb", 1))
FP_WIDTH = {"fld": 8, "flw": 4, "fsd": 8, "fsw": 4}


def _regs_for(mnem):
    return FP_REGS if mnem in FP_WIDTH else INT_DST


@st.composite
def lane_programs(draw):
    """A small program plus per-lane ``li`` immediates and memories.

    Returns ``(lanes, config, max_steps, build)`` where
    ``build(lane)`` emits the program of one lane; lanes differ only in
    ``li`` immediates and in memory contents, so they share one cohort.
    """
    lanes = draw(st.integers(2, 4))
    reg = st.sampled_from
    per_lane_li = st.one_of(
        st.integers(-2 ** 31, 2 ** 32 - 1).map(lambda v: [v] * lanes),
        st.lists(st.integers(-2 ** 31, 2 ** 32 - 1),
                 min_size=lanes, max_size=lanes))

    def mem_op(loads):
        base = draw(reg(("a0", "a0", "a1", "a3")))
        if loads:
            mnem, width = draw(reg(LOADS + (("fld", 8), ("flw", 4))))
        else:
            mnem, width = draw(reg(STORES + (("fsd", 8), ("fsw", 4))))
        off = width * draw(st.integers(0, 3))
        if mnem in FP_WIDTH:
            return (mnem, draw(reg(FP_REGS)), off, base)
        return (mnem, draw(reg(INT_DST if loads else INT_SRC)), off,
                base)

    body = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.integers(0, 10))
        if kind == 0:
            body.append((draw(reg(RR)), draw(reg(INT_DST)),
                         draw(reg(INT_SRC)), draw(reg(INT_SRC))))
        elif kind == 1:
            if draw(st.booleans()):
                body.append((draw(reg(RI)), draw(reg(INT_DST)),
                             draw(reg(INT_SRC)),
                             draw(st.integers(-2048, 2047))))
            else:
                body.append((draw(reg(SHIFT_I)), draw(reg(INT_DST)),
                             draw(reg(INT_SRC)),
                             draw(st.integers(0, 31))))
        elif kind == 2:
            body.append(("li", draw(reg(INT_DST)), draw(per_lane_li)))
        elif kind in (3, 4):
            body.append(mem_op(loads=True))
        elif kind == 5:
            body.append(mem_op(loads=False))
        elif kind == 6:
            mnem = draw(reg(FP2 + FP1 + FP3))
            arity = 2 if mnem in FP2 else 1 if mnem in FP1 else 3
            body.append((mnem, *(draw(reg(FP_REGS))
                                 for _ in range(arity + 1))))
        elif kind == 7:
            mnem = draw(reg(FP_TO_INT))
            srcs = 2 if mnem in ("feq.d", "flt.d") else 1
            body.append((mnem, draw(reg(INT_DST)),
                         *(draw(reg(FP_REGS)) for _ in range(srcs))))
        elif kind == 8:
            body.append((draw(reg(INT_TO_FP)), draw(reg(FP_REGS)),
                         draw(reg(INT_SRC))))
        elif kind == 9:
            body.append((draw(reg(("mv", "not"))), draw(reg(INT_DST)),
                         draw(reg(INT_SRC))))
        else:
            # A uniform store, then a lookup in the same table: lanes
            # whose slot holds the stored word wait on it, others not.
            # An FP store then an integer load crosses timelines, so
            # the wait outlasts the load's own issue time.
            store, load = draw(reg((("sw", "lw"), ("fsd", "fld"),
                                    ("fsd", "lw"))))
            body.append((store, draw(reg(_regs_for(store))), 0, "a3"))
            body.append((load, draw(reg(_regs_for(load))), 0, "a1"))
    branch = None
    if draw(st.booleans()):
        # Tests one bit of lane data, so lanes disagree about half
        # the time.
        branch = (draw(st.integers(0, 63)),
                  draw(reg(("beq", "bne", "bltu", "bge"))),
                  draw(reg(("zero",) + INT_DST)))
    misaligned = None
    if draw(st.booleans()):
        access = draw(reg(("lw", "sw", "fld", "fsd")))
        misaligned = (access, [DATA + 8 * draw(st.integers(0, 7))
                               + draw(reg((0, 0, 1, 2, 4)))
                               for _ in range(lanes)])
    table_slot = draw(st.lists(st.integers(0, 3), min_size=lanes,
                               max_size=lanes))
    trips = draw(st.integers(1, 3))
    inner_region = draw(st.booleans())
    seeds = draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=lanes,
                          max_size=lanes))
    if draw(st.booleans()):
        seeds = [seeds[0]] * lanes
    max_steps = draw(st.sampled_from((200_000_000,) * 3 + (7, 25)))
    config = CoreConfig(
        fpss_queue_depth=draw(st.sampled_from((8, 2, 1))),
        int_wb_ports=draw(st.sampled_from((1, 2))),
        fp_wb_ports=draw(st.sampled_from((1, 2))),
        taken_branch_penalty=draw(st.sampled_from((1, 3))),
        model_int_wb_hazard=draw(st.booleans()),
        model_l0_icache=draw(st.booleans()),
        l0_icache_entries=draw(st.sampled_from((64, 4))))

    def build(lane):
        b = ProgramBuilder()
        b.li("a0", DATA)
        b.li("a1", TABLE + 8 * table_slot[lane])
        b.li("a2", trips)
        b.li("a3", TABLE)
        if misaligned is not None:
            b.li("a4", misaligned[1][lane])
        b.mark("main_start")
        b.label("loop")
        if inner_region:
            b.mark("body_start")
        for op in body:
            if op[0] == "li":
                b.li(op[1], op[2][lane])
            else:
                b.emit(*op)
        if branch is not None:
            offset, mnem, other = branch
            b.lbu("s3", offset, "a0")
            b.andi("s3", "s3", 1)
            b.emit(mnem, "s3", other, "skip")
            b.addi("t0", "t0", 1)
            b.label("skip")
        if misaligned is not None:
            access = misaligned[0]
            reg_ = "t1" if access in ("lw", "sw") else "fa0"
            b.emit(access, reg_, 0, "a4")
        if inner_region:
            b.mark("body_end")
        b.addi("a0", "a0", 8)
        b.addi("a2", "a2", -1)
        b.bnez("a2", "loop")
        b.mark("main_end")
        b.ret()
        memory = Memory(MEM_SIZE)
        rng = np.random.default_rng(seeds[lane])
        memory.data[DATA:MEM_SIZE] = rng.bytes(MEM_SIZE - DATA)
        return b.build(), memory

    return lanes, config, max_steps, build


def _lane_state(result, error, machine):
    fregs = [struct.pack("<d", v) for v in machine.fregs]
    ssrs = [tuple(getattr(ssr, name) for name in ssr.__slots__)
            for ssr in machine.ssrs]
    return (result, type(error), str(error) if error else None,
            list(machine.iregs), fregs, bytes(machine.memory.data),
            machine.ssr_enabled, ssrs)


def _check_cohort(lanes, config, max_steps, build):
    """Every lane of one generated cohort equals a scalar ``Machine``
    run: ``RunResult`` (cycles, counters, regions), final registers,
    SSR state, memory bytes and error type and message.

    The cohort's timing follows its leader, lane 0's own ``Machine``;
    a cohort that finishes vectorized must also leave the leader's
    registers equal to lane 0's row of the vector register files."""
    instances = [_lane(*build(lane)) for lane in range(lanes)]
    engine = BatchEngine(instances, config=config,
                         max_steps=max_steps).run()
    assert len(engine._cohorts) == 1
    cohort = engine._cohorts[0]
    if not any(engine.demoted):
        leader = cohort.leader
        assert leader.iregs == cohort.iregs[0].tolist()
        assert np.array(leader.fregs).view(np.int64).tolist() \
            == cohort.fregs[0].view(np.int64).tolist()
    for lane in range(lanes):
        program, memory = build(lane)
        machine = Machine(config=config, memory=memory)
        result = error = None
        try:
            result = machine.run(program, max_steps=max_steps)
        except Exception as exc:          # the golden per-lane error
            error = exc
        assert _lane_state(engine.results[lane], engine.errors[lane],
                           engine.machine(lane)) \
            == _lane_state(result, error, machine), lane
    return engine


# Random doubles overflow when the scalar engine rounds them to float32
# (``.s`` ops, ``fsw``); the result is the intended inf.
@pytest.mark.filterwarnings(
    "ignore:overflow encountered in cast:RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(lane_programs())
def test_generated_programs_match_scalar(case):
    """Generated cohorts match the scalar engine lane for lane, whether
    the cohort stays shared to the end or demotes at a split, a fault
    or ``max_steps``."""
    _check_cohort(*case)


#: Stream layout: read streams and indirect gathers start in DATA,
#: write streams in OUT (or, to overlap a read, in DATA); a stream
#: starting at END runs off the end of memory.  IDX holds each lane's
#: own ISSR index array.
OUT, IDX, END = 0x2800, 0x3800, MEM_SIZE - 0x40
STREAM_FP = ("ft0", "ft1", "ft2", "fa0", "fa1")
FREP_OPS = ("fadd.d", "fmul.d", "fsub.d", "fmax.d", "fmadd.d",
            "fmv.d", "fneg.d", "fadd.s")


def _arity(mnem):
    if mnem == "fmadd.d":
        return 3
    return 1 if mnem in ("fmv.d", "fneg.d", "fsqrt.d") else 2


@st.composite
def stream_programs(draw):
    """Like :func:`lane_programs`, for SSR streams, FREP and dma.copy.

    Up to three SSRs are configured as affine read or write streams of
    1-2 dimensions or as indirect gathers over per-lane index arrays,
    then a loop pops and pushes them through plain FP ops and FREP
    bodies, re-arms streams, toggles ``ssr.enable``, copies with
    ``dma.copy`` and branches on lane data.  Bases, repeat counts and
    DMA ranges may differ across lanes (the cohort must demote), and
    streams may run dry or fault (every lane must raise the golden
    error).
    """
    lanes = draw(st.integers(2, 4))
    reg = st.sampled_from

    def rarely():
        return draw(reg((False,) * 7 + (True,)))

    def lane_vals(values):
        """Mostly one value for every lane, rarely one per lane."""
        if rarely():
            return draw(st.lists(values, min_size=lanes,
                                 max_size=lanes))
        return [draw(values)] * lanes

    streams = []
    for ssr in range(3):
        kind = draw(reg(("none", "read", "write", "indirect")))
        if kind == "none":
            continue
        dims = draw(reg((1,) * 5 + (2,) * 5 + (5,)))   # 5: SSRError
        shape = [(draw(st.integers(0, 15 if dim == 0 else 3)),
                  draw(reg((8,) * 6 + (16, -8, 0, 4))))   # 4: faults
                 for dim in range(min(dims, 2))]
        # A write stream in DATA may overwrite what a read pops.
        region = END if rarely() else DATA if kind != "write" \
            else draw(reg((OUT, OUT, DATA)))
        base = lane_vals(st.integers(0, 7).map(
            lambda k, r=region: r + 8 * k))
        repeat = draw(reg((0, 0, 0, 1)))
        index_bytes = draw(reg((2, 4)))
        streams.append((ssr, kind, dims, shape, base, repeat,
                        index_bytes))
    # Narrow index ranges make lanes gather from the same words.
    index_values = st.integers(0, draw(reg((3, 31))))
    indices = draw(st.lists(
        st.lists(index_values, min_size=32, max_size=32),
        min_size=lanes, max_size=lanes))
    if draw(st.booleans()):
        indices = [indices[0]] * lanes
    if rarely():
        # One lane's gather runs out of memory.
        indices[-1] = indices[-1][:-1] + [0xFFFF]

    def fp_op(pool):
        mnem = draw(reg(pool))
        return (mnem, *(draw(reg(STREAM_FP))
                        for _ in range(_arity(mnem) + 1)))

    steps = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(reg(("frep",) * 3 + ("fsqrt", "op", "op", "mem",
                                         "rearm", "rearm", "ssr", "dma",
                                         "branch")))
        if kind in ("frep", "fsqrt"):
            # fsqrt.d has no vector form: its FREP demotes.
            pool = FREP_OPS + ("fsqrt.d",) * (kind == "fsqrt")
            body = [fp_op(pool) for _ in range(draw(st.integers(1, 4)))]
            steps.append(("frep", lane_vals(st.integers(0, 4)),
                          body))
        elif kind == "op":
            steps.append(("op", fp_op(FREP_OPS)))
        elif kind == "mem":
            steps.append(("op", draw(reg((
                ("fsd", "ft0", 0, "a0"), ("fsd", "ft2", 8, "a0"),
                ("fld", "ft1", 0, "a0"), ("feq.d", "t2", "ft0", "fa0"),
                ("fcvt.d.w", "ft2", "t2"))))))
        elif kind == "rearm":
            if streams:
                steps.append(("rearm", draw(reg(streams))))
        elif kind == "ssr":
            steps.append(("ssr", draw(reg(("ssr.enable",
                                            "ssr.disable")))))
        elif kind == "dma":
            # A copy within DATA mostly overlaps its source: applied
            # twice, it shifts the bytes twice.
            dst = draw(reg((OUT, DATA)))
            size = 64 if dst == DATA \
                else draw(reg((8, 16, 64) * 3 + (0x10000,)))
            steps.append(("dma", lane_vals(st.integers(0, 7).map(
                lambda k, d=dst: d + 8 * k)), DATA, size))
        else:
            steps.append(("branch", draw(st.integers(0, 63))))
    trips = draw(st.integers(1, 2))
    seeds = draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=lanes,
                          max_size=lanes))
    if draw(st.booleans()):
        seeds = [seeds[0]] * lanes
    max_steps = draw(st.sampled_from((200_000_000,) * 7 + (60,)))
    config = CoreConfig(
        fpss_queue_depth=draw(st.sampled_from((8, 2))),
        fp_wb_ports=draw(st.sampled_from((1, 2))),
        frep_buffer_size=draw(st.sampled_from((16,) * 4 + (2,))),
        ssr_fill_latency=draw(st.sampled_from((2, 0, 7))),
        model_l0_icache=draw(st.booleans()))

    def build(lane):
        b = ProgramBuilder()

        def arm(stream):
            ssr, kind, _, _, base, _, _ = stream
            if kind == "indirect":
                _cfg(b, ssrdef.F_IDX_BASE, ssr, IDX)
            pointer = ssrdef.F_WPTR if kind == "write" \
                else ssrdef.F_RPTR
            _cfg(b, pointer, ssr, base[lane])

        b.li("a0", DATA)
        for stream in streams:
            ssr, kind, dims, shape, _, repeat, index_bytes = stream
            _cfg(b, ssrdef.F_STATUS, ssr, dims)
            for dim, (bound, stride) in enumerate(shape):
                _cfg(b, ssrdef.F_BOUND0 + dim, ssr, bound)
                _cfg(b, ssrdef.F_STRIDE0 + dim, ssr, stride)
            if repeat:
                _cfg(b, ssrdef.F_REPEAT, ssr, repeat)
            if kind == "indirect":
                _cfg(b, ssrdef.F_IDX_CFG, ssr, index_bytes | (3 << 3))
            arm(stream)
        b.emit("ssr.enable")
        b.li("a2", trips)
        b.mark("main_start")
        b.label("loop")
        for step in steps:
            if step[0] == "frep":
                b.li("t1", step[1][lane])
                b.frep_o("t1", len(step[2]))
                for op in step[2]:
                    b.emit(*op)
            elif step[0] == "op":
                b.emit(*step[1])
            elif step[0] == "rearm":
                arm(step[1])
            elif step[0] == "ssr":
                b.emit(step[1])
            elif step[0] == "dma":
                b.li("a5", step[1][lane])
                b.li("a6", step[2])
                b.li("a7", step[3])
                b.emit("dma.copy", "a5", "a6", "a7")
            else:
                skip = b.fresh_label("skip")
                b.lbu("s3", step[1], "a0")
                b.andi("s3", "s3", 1)
                b.beqz("s3", skip)
                b.fadd_d("fa0", "fa0", "fa1")
                b.label(skip)
        b.addi("a0", "a0", 8)
        b.addi("a2", "a2", -1)
        b.bnez("a2", "loop")
        b.mark("main_end")
        b.emit("ssr.disable")
        b.ret()
        memory = Memory(MEM_SIZE)
        rng = np.random.default_rng(seeds[lane])
        memory.data[DATA:MEM_SIZE] = rng.bytes(MEM_SIZE - DATA)
        for k, index in enumerate(indices[lane]):
            memory.write_u32(IDX + 4 * k, index)
        return b.build(), memory

    return lanes, config, max_steps, build


@pytest.mark.filterwarnings(
    "ignore:overflow encountered in cast:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(stream_programs())
def test_generated_stream_programs_match_scalar(case):
    """SSR configuration, stream pops and pushes, FREP replays and
    ``dma.copy`` match the scalar engine lane for lane — including
    cohorts that demote at a lane-varying config value, repeat count or
    DMA range, and lanes whose streams run dry or fault."""
    _check_cohort(*case)


def _frep_case(case: str):
    """Two-lane cohorts whose ``frep`` proof must refuse the replay.

    ``overlap``: each push overwrites the element the next iteration
    pops.  ``gather``: lanes gather from words a store just published
    and from words it did not.  ``off_end``: a read stream runs off
    the end of memory.  ``dry``: a stream holds fewer elements than
    the replay pops.  ``reps``: lanes disagree on the repeat count.
    """
    def build(lane):
        memory = Memory(MEM_SIZE)
        for k in range(16):
            memory.write_f64(DATA + 8 * k, 0.5 * k + lane)
        memory.write_u32(IDX, 5 * lane)
        b = ProgramBuilder()

        read_base = MEM_SIZE - 16 if case == "off_end" else DATA
        _cfg(b, ssrdef.F_BOUND0, 0, 1 if case == "dry" else 7)
        _cfg(b, ssrdef.F_STRIDE0, 0, 8)
        if case == "gather":
            _cfg(b, ssrdef.F_IDX_CFG, 0, 4 | (3 << 3))
            _cfg(b, ssrdef.F_IDX_BASE, 0, IDX)
            _cfg(b, ssrdef.F_STRIDE0, 0, 0)
        _cfg(b, ssrdef.F_RPTR, 0, read_base)
        if case == "overlap":
            _cfg(b, ssrdef.F_BOUND0, 1, 7)
            _cfg(b, ssrdef.F_STRIDE0, 1, 8)
            _cfg(b, ssrdef.F_WPTR, 1, DATA + 8)
        b.li("a0", DATA)
        b.fsd("fa1", 0, "a0")
        b.emit("ssr.enable")
        b.li("t1", 3 + lane if case == "reps" else 3)
        b.mark("main_start")
        b.frep_o("t1", 1)
        b.fadd_d("ft1" if case == "overlap" else "fa0", "ft0", "fa0")
        b.mark("main_end")
        b.emit("ssr.disable")
        b.ret()
        return b.build(), memory

    return build


@pytest.mark.parametrize("case", ("overlap", "gather", "off_end", "dry",
                                  "reps"))
def test_frep_proof_refusals_demote_at_frep(case):
    """A replay that would split, fault or read its own pushes demotes
    the cohort at the ``frep`` pc, and the scalar engine finishes every
    lane exactly as a scalar run."""
    engine = _check_cohort(2, CoreConfig(), 10_000, _frep_case(case))
    assert engine.demoted == [True, True]
    cohort = engine._cohorts[0]
    assert cohort.ops[cohort.pc].mnemonic == "frep.o"
