"""Generated programs shared by the differential tests.

:func:`lane_programs` draws small integer/FP loops, :func:`stream_programs`
SSR streams, FREP bodies and ``dma.copy``; both return ``(lanes, config,
max_steps, build)`` where ``build(lane)`` emits one lane's program and
memory.  :func:`_lane_state` is everything a run leaves behind that two
execution paths must agree on; :func:`compiled` makes the scheduler's
runs (``repro.sim.blocks``) compile as soon as they are entered, in a
run pool and micro-op memo of their own.
"""

from __future__ import annotations

import contextlib
import heapq
import struct

import numpy as np
from hypothesis import strategies as st

from repro.cluster import ClusterMachine
from repro.cluster.tcdm import BankedTcdm
from repro.isa import ProgramBuilder
from repro.mem import TransferEngine
from repro.sim import CoreConfig, Memory, blocks, decode
from repro.sim import ssr as ssrdef


@contextlib.contextmanager
def compiled(k: int = 0):
    """Compile runs once hot by threshold *k* (0: at first entry), from
    a fresh run pool and micro-op memo (the process's own are restored
    on exit); yields a list that collects every compiled run's entry
    pc."""
    saved = blocks.K, blocks.Run._bind, blocks._POOL, decode._MEMO
    entries = []

    def bind(run, key, code, names):
        entries.append(run.head)
        return saved[1](run, key, code, names)

    blocks.K, blocks.Run._bind, blocks._POOL, decode._MEMO = k, bind, {}, {}
    try:
        yield entries
    finally:
        blocks.K, blocks.Run._bind, blocks._POOL, decode._MEMO = saved

@contextlib.contextmanager
def shared_calls():
    """Log every call the simulation makes on a shared resource, in
    order: each TCDM claim (through any claim port, DMA beats included)
    and its grant, each DMA start and fence, and each barrier release
    with every parked core's arrival.  TCDMs and DMA engines are
    labelled in order of first use.  Only ports taken inside the
    context are logged, so build and bind machines inside it;
    :func:`assert_claims_logged` checks that nothing was missed."""
    log, labels = [], {}
    port, start = BankedTcdm.port, TransferEngine.start
    fence, release = (TransferEngine.core_drain_time,
                      ClusterMachine._release_barrier)

    def label(obj):
        return labels.setdefault(id(obj), len(labels))

    def logged_port(tcdm, core_id, requestor=None):
        claim = port(tcdm, core_id, requestor)

        def logged_claim(addr, nbytes, cycle):
            grant = claim(addr, nbytes, cycle)
            log.append(("tcdm", label(tcdm), core_id, addr, nbytes,
                        cycle, requestor, grant))
            return grant
        return logged_claim

    def logged_start(dma, core_id, dst, src, nbytes, now):
        done = start(dma, core_id, dst, src, nbytes, now)
        log.append(("dma.start", label(dma), core_id, dst, src, nbytes,
                    now, done))
        return done

    def logged_fence(dma, core_id):
        done = fence(dma, core_id)
        log.append(("dma.wait", label(dma), core_id, done))
        return done

    def logged_release(cluster, waiting, finished):
        log.append(("release", cluster.cluster_id, sorted(
            (m.core_id, m.barrier_arrival) for m in waiting)))
        return release(cluster, waiting, finished)

    BankedTcdm.port, TransferEngine.start = logged_port, logged_start
    TransferEngine.core_drain_time = logged_fence
    ClusterMachine._release_barrier = logged_release
    try:
        yield log
    finally:
        BankedTcdm.port, TransferEngine.start = port, start
        TransferEngine.core_drain_time = fence
        ClusterMachine._release_barrier = release


def assert_claims_logged(log, machine) -> None:
    """Guard for :func:`shared_calls`: the TCDM claims in *log* account
    for every bank grant of *machine*'s TCDMs (a claim of bytes
    ``addr..addr+nbytes-1`` is one grant per touched word), so a claim
    path the log cannot see fails here instead of passing vacuously."""
    clusters = getattr(machine, "clusters", [machine])
    grants = sum(cluster.tcdm.total_accesses for cluster in clusters)
    claims = [entry for entry in log if entry[0] == "tcdm"]
    words = sum(((addr + nbytes - 1) >> 2) - (addr >> 2) + 1
                for _, _, _, addr, nbytes, *_ in claims)
    assert words == grants, (len(claims), words, grants)


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


def _cfg(b, field: int, ssr: int, value: int) -> None:
    """Write one SSR configuration word through ``t0``."""
    b.li("t0", value & 0xFFFF_FFFF)
    b.scfgwi("t0", ssrdef.encode_cfg_imm(field, ssr))


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


#: Multi-core layout, one memory per cluster: core ``c`` keeps its
#: words at ``PRIVATE + c * STRIDE`` (the same banks for every core, so
#: their accesses conflict) and copies them to ``COPY + c * STRIDE``;
#: every core adds to and reads the words at SHARED.
PRIVATE, COPY, SHARED, STRIDE, CLUSTER_MEM = (0x400, 0x1400, 0x3F00,
                                              0x100, 0x4000)
PRIVATE_OPS = (("add", "t0", "t0", "t1"), ("xor", "t1", "t1", "t0"),
               ("mul", "t2", "t0", "t6"), ("addi", "t3", "t3", 5),
               ("srli", "t4", "t0", 3), ("fadd.d", "fa0", "fa0", "fa1"),
               ("fmul.d", "fa1", "fa1", "fa0"),
               ("fmadd.d", "fa2", "fa0", "fa1", "fa2"),
               ("fcvt.d.w", "fa3", "t0"), ("feq.d", "t5", "fa0", "fa1"))


@st.composite
def cluster_programs(draw):
    """Programs for the cores of a cluster or SoC that share TCDM banks.

    A loop of drawn steps: private stretches of a per-core random
    length, loads and stores (integer and FP) on banks every core
    uses, ``amoadd.w`` on and loads of shared words, ``dma.start``
    with or without ``dma.wait``, and ``cluster.barrier``; sometimes
    ``fsqrt.d`` of a negative value faults inside a private stretch on
    two cores.  Returns ``(max_steps, build)`` where ``build(core)``
    emits core ``core``'s program.
    """
    reg = st.sampled_from
    steps = []
    for _ in range(draw(st.integers(2, 8))):
        kind = draw(reg(("private",) * 4 + ("load", "store", "fld",
                                             "fsd", "amo", "shared",
                                             "dma", "barrier")))
        if kind == "private":
            steps.append((kind, draw(st.lists(reg(PRIVATE_OPS),
                                              min_size=8, max_size=8)),
                          draw(st.lists(st.integers(0, 8), min_size=8,
                                        max_size=8))))
        elif kind == "dma":
            steps.append((kind, draw(reg((8, 24, 64))), draw(st.booleans())))
        else:
            steps.append((kind, 8 * draw(st.integers(0, 3))))
    faults = None
    if draw(reg((False, False, True))):
        faults = {draw(st.integers(0, 7)): draw(st.integers(0, 8)),
                  draw(st.integers(0, 7)): draw(st.integers(0, 8))}
        steps.insert(draw(st.integers(0, len(steps))), ("fault",))
    trips = draw(st.integers(1, 3))
    max_steps = draw(reg((200_000_000,) * 5 + (40, 150)))

    def build(core):
        b = ProgramBuilder()
        b.li("a0", PRIVATE + core * STRIDE)
        b.li("a1", SHARED)
        b.li("a3", COPY + core * STRIDE)
        b.li("t6", core + 1)
        b.li("t0", 3 * core + 1)
        b.li("t1", 7)
        b.fcvt_d_w("fa0", "t6")
        b.fcvt_d_w("fa1", "t1")
        b.li("t5", -1 - core)
        b.fcvt_d_w("fa7", "t5")
        b.li("a2", trips)
        b.label("loop")
        for step in steps:
            kind = step[0]
            if kind == "private":
                for op in step[1][:step[2][core % 8]]:
                    b.emit(*op)
            elif kind == "fault":
                if core in faults:
                    for op in PRIVATE_OPS[:faults[core]]:
                        b.emit(*op)
                    b.fsqrt_d("fa4", "fa7")
            elif kind == "load":
                b.lw("t0", step[1], "a0")
            elif kind == "store":
                b.sw("t1", step[1], "a0")
            elif kind == "fld":
                b.fld("fa2", step[1], "a0")
            elif kind == "fsd":
                b.fsd("fa0", step[1], "a0")
            elif kind == "amo":
                b.emit("amoadd.w", "t2", step[1], "a1", "t6")
            elif kind == "shared":
                b.lw("t3", step[1], "a1")
            elif kind == "dma":
                b.li("a4", step[1])
                b.emit("dma.start", "a3", "a0", "a4")
                if step[2]:
                    b.emit("dma.wait")
            else:
                b.cluster_barrier()
        b.addi("a2", "a2", -1)
        b.bnez("a2", "loop")
        b.emit("dma.wait")
        b.ret()
        return b.build()

    return max_steps, build


def per_op_run(machine, max_steps: int) -> None:
    """Run a ClusterMachine or SocMachine one op at a time: the per-op
    reference order (:meth:`ClusterMachine.step`), clusters picked by
    ``(laggard_time, cluster_id)``."""
    clusters = getattr(machine, "clusters", [machine])
    for cluster in clusters:
        cluster.bind(max_steps)
    heap = [(c.laggard_time, c.cluster_id) for c in clusters]
    heapq.heapify(heap)
    while heap:
        c = heap[0][1]
        if clusters[c].step():
            heapq.heapreplace(heap, (clusters[c].laggard_time, c))
        else:
            heapq.heappop(heap)


def cluster_state(machine, error) -> tuple[list, list]:
    """What a cluster or SoC run leaves behind that the run-ahead and
    per-op drivers must agree on: the error, memory and the shared
    resources' statistics; then every core's registers, counters, issue
    times, pc and steps (which, after an error, may differ by private
    steps run ahead)."""
    clusters = getattr(machine, "clusters", [machine])
    shared = [type(error), str(error) if error else None]
    cores = []
    memories = {}
    for cluster in clusters:
        dma = cluster.dma
        shared.append((cluster.barrier_count,
                       [(s.grants, s.stall_cycles)
                        for s in cluster.tcdm.stats],
                       dma.bytes_moved, dma.busy_cycles, dma.transfers,
                       dma._core_done))
        for core in cluster.cores:
            sched = core.sched
            cores.append((list(core.iregs),
                          [struct.pack("<d", v) for v in core.fregs],
                          dict(vars(sched.counters)), sched.int_time,
                          sched.fp_time, sched._pc, sched._steps,
                          sched.barrier_wait))
            memories[id(core.memory)] = core.memory
    shared += [bytes(memory.data) for memory in memories.values()]
    if hasattr(machine, "interconnect"):
        shared.append([(s.grants, s.stall_cycles)
                       for s in machine.interconnect.stats])
        shared.append((machine.l2.bytes_read, machine.l2.bytes_written))
    return shared, cores
