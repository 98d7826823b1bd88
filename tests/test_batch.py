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

import gc
import json

import numpy as np
import pytest
from hypothesis import given, settings

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

from programs import (
    DATA,
    IDX,
    MEM_SIZE,
    OUT,
    _cfg,
    _lane_state,
    compiled,
    lane_programs,
    stream_programs,
)

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


def test_finished_sweep_leaves_no_lane_memory_live():
    """With the collector off, no lane ``Memory`` of a finished
    ``Sweep(batch=...)``, its check pass included, stays live: no
    reference cycle (cohort and engine, cohort and its plan closures)
    holds one until a collection."""
    workloads = [Workload(k, v, n=128, seed=s)
                 for k in ("logf", "pi_lcg")
                 for v in ("baseline", "copift") for s in (1, 2)]

    def live() -> int:
        return sum(1 for obj in gc.get_objects() if type(obj) is Memory)
    gc.collect()
    gc.disable()
    try:
        before = live()
        batch_records(workloads, batch="auto", check=True)
        after = live()
    finally:
        gc.enable()
    assert after == before


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
# (the generators live in tests/programs.py)
# ----------------------------------------------------------------------
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


@pytest.mark.filterwarnings(
    "ignore:overflow encountered in cast:RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(lane_programs())
def test_generated_programs_match_scalar_through_compiled_spans(case):
    """As above, with every stretch of register-only plans taken by the
    leader's compiled run from its first entry."""
    with compiled(0):
        _check_cohort(*case)


@pytest.mark.parametrize("kernel", ("pi_xoshiro128p", "poly_lcg"))
@pytest.mark.parametrize("variant", ("baseline", "copift"))
def test_batch_matches_scalar_through_compiled_spans(kernel, variant):
    """Paper kernels whose PRNG stretches the leader runs compiled:
    records equal the scalar engine's."""
    workloads = [Workload(kernel, variant, n=N, seed=seed)
                 for seed in SEEDS]
    scalar = scalar_records(workloads)
    with compiled(0) as entries:
        batched = batch_records(workloads, batch=len(workloads))
    assert entries
    for s_rec, b_rec in zip(scalar, batched):
        assert payload(b_rec) == payload(s_rec)


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
