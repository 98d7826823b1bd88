"""Batch-engine equivalence tests: vector lockstep == scalar, always.

The contract of :mod:`repro.sim.batch` is *byte-for-byte* identity:
for any mix of kernels, variants, seeds and problem sizes, a lane's
``RunResult``/``RunRecord`` must match what the scalar ``Machine``
produces for the same instance — cycles, counters, regions, memory
writes and serialized payload bytes.  These tests lock that contract
across the interesting regimes: homogeneous fleets, cross-seed
cohorts (per-lane immediates), cohorts whose lanes would split (a
size sweep, data-dependent branches, a per-lane fault) and so demote
as a whole, the scalar-fallback demotion path (FREP/SSR kernels),
generated programs checked against the scalar ``Machine``, and every
``jobs``/``batch`` sharding combination of :class:`repro.api.Sweep`.
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

    The copift variants exercise the demotion path (FREP/SSR micro-ops
    have no vector plan); the baselines run vectorized end to end.
    Seeds only change ``li`` immediates and memory images, so all
    lanes share one cohort — the per-lane-immediate regime.
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


def test_copift_lanes_demote_to_scalar_engine():
    """FREP/SSR micro-ops have no vector plan: the engine must hand
    those lanes to the golden scalar Scheduler transparently."""
    instances = [Workload("logf", "copift", n=N, seed=s).build()
                 for s in (1, 2)]
    engine = BatchEngine(instances).run()
    assert engine.demoted == [True, True]
    for lane, seed in enumerate((1, 2)):
        ref, _ = Workload("logf", "copift", n=N,
                          seed=seed).build().run(check=False)
        assert engine.results[lane].cycles == ref.cycles
        assert vars(engine.results[lane].counters) \
            == vars(ref.counters)


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
    return (result, type(error), str(error) if error else None,
            list(machine.iregs), fregs, bytes(machine.memory.data))


# Random doubles overflow when the scalar engine rounds them to float32
# (``.s`` ops, ``fsw``); the result is the intended inf.
@pytest.mark.filterwarnings(
    "ignore:overflow encountered in cast:RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(lane_programs())
def test_generated_programs_match_scalar(case):
    """Every lane of a generated cohort equals a scalar ``Machine`` run:
    ``RunResult`` (cycles, counters, regions), final registers, memory
    bytes and error type and message — whether the cohort stays shared
    to the end or demotes at a split, a fault or ``max_steps``."""
    lanes, config, max_steps, build = case
    instances = [_lane(*build(lane)) for lane in range(lanes)]
    engine = BatchEngine(instances, config=config,
                         max_steps=max_steps).run()
    assert len(engine._cohorts) == 1
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
