"""Hit-and-miss Monte Carlo integration kernels (paper §III-A).

Four kernels = {pi, poly} × {LCG, xoshiro128+}:

* **pi**: sample (x, y) ∈ [-1, 1)²; hit iff x² + y² < 1 (area of the
  unit circle: hits/N → π/4).
* **poly**: sample x ∈ [-1, 1), y ∈ [0, 1); hit iff y < P(x) for a
  degree-8 polynomial (hits/N → ∫ P / 2); the longer FP evaluation
  shifts the thread balance toward FP, which is exactly why the paper
  evaluates both variants.

Pseudo-random numbers are generated by the *integer* thread (the PRNG is
pure integer code); coordinate conversion, the geometric test and the
hit accumulation run on the *FP* thread.  In the baseline the two
threads interleave in one loop, with `fcvt.d.wu` reading coordinates
straight from the integer RF and `flt.d` returning the hit flag to it
(both Type 3 dependencies).  The COPIFT variants spill coordinates
through double-buffered streamed columns, convert in place with
``cfcvt.d.wu``, compare with ``cflt.d`` (both custom-1 re-encodings,
Table I footnotes * and †) and accumulate hits entirely in the FP
register file — zero per-sample cross-RF traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..copift.transform import TwoPhaseSpec, generate_two_phase
from ..isa.program import ProgramBuilder
from ..sim import Allocator, Memory
from . import lcg, xoshiro
from .common import KernelInstance, load_f64_constants

TWO_M31 = 2.0 ** -31
TWO_M32 = 2.0 ** -32

#: Degree-6 test polynomial, c0..c6 (maps [-1, 1] into [0, 1)).
#: Evaluated in Estrin form so the FREP body's dependence chain stays
#: short (a straight Horner chain would serialize the FP thread).
POLY_COEFFS = (0.35, 0.25, 0.2, 0.15, -0.1, 0.05, 0.04)


# ---------------------------------------------------------------------------
# PRNG plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrngSpec:
    """How a kernel draws one (x, y) coordinate pair per sample."""

    name: str
    emit_init: Callable[[ProgramBuilder, int], None]
    #: Emits integer code leaving the pair in (x_reg, y_reg).
    emit_pair: Callable[[ProgramBuilder], tuple[str, str]]
    #: Python mirror returning n (x, y) u32 pairs.
    reference_pairs: Callable[[int, int], list[tuple[int, int]]]


def _lcg_pair(b: ProgramBuilder) -> tuple[str, str]:
    lcg.emit_step(b, "s1", "s0")
    return "s1", "s0"


def _xoshiro_pair(b: ProgramBuilder) -> tuple[str, str]:
    xoshiro.emit_step(b, "a2")
    xoshiro.emit_step(b, "a3")
    return "a2", "a3"


def _xoshiro_pairs_ref(seed: int, n: int) -> list[tuple[int, int]]:
    outs = xoshiro.reference_sequence(seed, 2 * n)
    return list(zip(outs[0::2], outs[1::2]))


LCG_SPEC = PrngSpec("lcg", lcg.emit_init, _lcg_pair,
                    lcg.reference_sequence)
XOSHIRO_SPEC = PrngSpec("xoshiro128p", xoshiro.emit_init, _xoshiro_pair,
                        _xoshiro_pairs_ref)


# ---------------------------------------------------------------------------
# Integrands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegrandSpec:
    """The FP-side test applied to each coordinate pair."""

    name: str
    fp_consts: dict[str, float]
    #: Baseline: emit FP test for (x_reg, y_reg), hit flag -> hit_reg
    #: (integer register, via flt.d).
    emit_baseline: Callable[[ProgramBuilder, str, str, str], None]
    #: COPIFT: emit the FREP body (pops ft0 twice, accumulates fs0).
    emit_copift: Callable[[ProgramBuilder], None]
    #: Python mirror: hit predicate on a u32 pair.
    reference_hit: Callable[[int, int], bool]


def _pi_consts() -> dict[str, float]:
    return {"fs8": TWO_M31, "fs9": -1.0, "fs10": 1.0}


def _pi_baseline(b: ProgramBuilder, x_reg: str, y_reg: str,
                 hit_reg: str) -> None:
    b.fcvt_d_wu("fa0", x_reg)
    b.fcvt_d_wu("fa1", y_reg)
    b.fmadd_d("fa0", "fa0", "fs8", "fs9")     # x' = u*2^-31 - 1
    b.fmadd_d("fa1", "fa1", "fs8", "fs9")
    b.fmul_d("fa2", "fa0", "fa0")
    b.fmadd_d("fa2", "fa1", "fa1", "fa2")
    b.flt_d(hit_reg, "fa2", "fs10")           # Type 3: FP -> int RF


def _pi_copift(b: ProgramBuilder) -> None:
    b.cfcvt_d_wu("fa0", "ft0")                # pop x
    b.cfcvt_d_wu("fa1", "ft0")                # pop y
    b.fmadd_d("fa0", "fa0", "fs8", "fs9")
    b.fmadd_d("fa1", "fa1", "fs8", "fs9")
    b.fmul_d("fa2", "fa0", "fa0")
    b.fmadd_d("fa2", "fa1", "fa1", "fa2")
    b.cflt_d("fa3", "fa2", "fs10")            # hit as 0.0 / 1.0
    b.fadd_d("fs0", "fs0", "fa3")             # FP-side accumulation


def _pi_hit(x: int, y: int) -> bool:
    fx = float(x) * TWO_M31 + -1.0
    fy = float(y) * TWO_M31 + -1.0
    d = fx * fx
    d = fy * fy + d
    return d < 1.0


def _poly_consts() -> dict[str, float]:
    consts = {"fs8": TWO_M31, "fs9": -1.0, "fs11": TWO_M32}
    # c0..c6 in ft3..ft9.
    for i, name in enumerate(
            ("ft3", "ft4", "ft5", "ft6", "ft7", "ft8", "ft9")):
        consts[name] = POLY_COEFFS[i]
    return consts


def _emit_poly_estrin(b: ProgramBuilder, x: str, dst: str) -> None:
    """P(x) into *dst*, Estrin form: 8 FP ops, ~3-FMA-deep chain.

    q0 = c1 x + c0; q1 = c3 x + c2; q2 = c5 x + c4
    x2 = x^2;  r0 = q1 x2 + q0;  t = c6 x2 + q2;  x4 = x2^2
    P  = t x4 + r0
    """
    b.fmadd_d("fa4", "ft4", x, "ft3")         # q0
    b.fmadd_d("fa5", "ft6", x, "ft5")         # q1
    b.fmadd_d("fa6", "ft8", x, "ft7")         # q2
    b.fmul_d("fa7", x, x)                     # x2
    b.fmadd_d("fa4", "fa5", "fa7", "fa4")     # r0
    b.fmadd_d("fa6", "ft9", "fa7", "fa6")     # t
    b.fmul_d("fa7", "fa7", "fa7")             # x4
    b.fmadd_d(dst, "fa6", "fa7", "fa4")       # P


def _poly_baseline(b: ProgramBuilder, x_reg: str, y_reg: str,
                   hit_reg: str) -> None:
    b.fcvt_d_wu("fa0", x_reg)
    b.fcvt_d_wu("fa1", y_reg)
    b.fmadd_d("fa0", "fa0", "fs8", "fs9")     # x in [-1, 1)
    b.fmul_d("fa1", "fa1", "fs11")            # y in [0, 1)
    _emit_poly_estrin(b, "fa0", "fa2")
    b.flt_d(hit_reg, "fa1", "fa2")            # y < P(x)


def _poly_copift(b: ProgramBuilder) -> None:
    b.cfcvt_d_wu("fa0", "ft0")
    b.cfcvt_d_wu("fa1", "ft0")
    b.fmadd_d("fa0", "fa0", "fs8", "fs9")
    b.fmul_d("fa1", "fa1", "fs11")
    _emit_poly_estrin(b, "fa0", "fa2")
    b.cflt_d("fa3", "fa1", "fa2")
    b.fadd_d("fs0", "fs0", "fa3")


def _poly_eval(fx: float) -> float:
    """Mirror of _emit_poly_estrin, operation for operation."""
    c0, c1, c2, c3, c4, c5, c6 = POLY_COEFFS
    q0 = c1 * fx + c0
    q1 = c3 * fx + c2
    q2 = c5 * fx + c4
    x2 = fx * fx
    r0 = q1 * x2 + q0
    t = c6 * x2 + q2
    x4 = x2 * x2
    return t * x4 + r0


def _poly_hit(x: int, y: int) -> bool:
    fx = float(x) * TWO_M31 + -1.0
    fy = float(y) * TWO_M32
    return fy < _poly_eval(fx)


PI_SPEC = IntegrandSpec("pi", _pi_consts(), _pi_baseline, _pi_copift,
                        _pi_hit)
POLY_SPEC = IntegrandSpec("poly", _poly_consts(), _poly_baseline,
                          _poly_copift, _poly_hit)


def reference_hits(prng: PrngSpec, integrand: IntegrandSpec,
                   n: int, seed: int) -> int:
    """Exact expected hit count (bit-exact PRNG + FP replication)."""
    return sum(
        1 for x, y in prng.reference_pairs(seed, n)
        if integrand.reference_hit(x, y)
    )


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_baseline(prng: PrngSpec, integrand: IntegrandSpec, n: int,
                   seed: int = 42) -> KernelInstance:
    """RV32G baseline: PRNG + FP test interleaved, 4-way unrolled."""
    if n % 4 != 0:
        raise ValueError("n must be a multiple of 4")
    memory = Memory()
    alloc = Allocator(memory)
    result = alloc.alloc("hits", 8)

    b = ProgramBuilder(f"{integrand.name}_{prng.name}_baseline")
    load_f64_constants(b, alloc, integrand.fp_consts)
    prng.emit_init(b, seed)
    b.li("a4", 0)                       # hit counter
    b.li("a0", 0)                       # sample counter
    b.li("a1", n)
    hit_regs = ("a6", "a7", "t1", "t2")

    b.mark("main_start")
    b.label("loop")
    for u in range(4):
        x_reg, y_reg = prng.emit_pair(b)
        integrand.emit_baseline(b, x_reg, y_reg, hit_regs[u])
    for u in range(4):
        b.add("a4", "a4", hit_regs[u])
    b.addi("a0", "a0", 4)
    b.bne("a0", "a1", "loop")
    b.mark("main_end")

    b.li("t0", result)
    b.sw("a4", 0, "t0")

    def verify(mem: Memory, machine) -> None:
        measured = mem.read_u32(result)
        expected = reference_hits(prng, integrand, n, seed)
        assert measured == expected, (
            f"hits mismatch: {measured} != {expected}"
        )

    return KernelInstance(
        name=f"{integrand.name}_{prng.name}", variant="baseline",
        program=b.build(), memory=memory, n=n, block=None,
        dma_active=False, dma_bytes=0, verify=verify,
    )


def build_copift(prng: PrngSpec, integrand: IntegrandSpec, n: int,
                 block: int = 64, seed: int = 42) -> KernelInstance:
    """COPIFT variant via :func:`~repro.copift.transform.generate_two_phase`.

    The integer phase, unrolled 8x, writes each (x, y) pair as two u32
    stream slots; like the paper's MC integer loops it overflows the
    64-entry L0 loop buffer (§III-B).  Hits accumulate in ``fs0``.
    """
    memory = Memory()
    alloc = Allocator(memory)
    result = alloc.alloc("hits", 8)

    def emit_setup(b: ProgramBuilder) -> None:
        load_f64_constants(b, alloc, integrand.fp_consts)
        prng.emit_init(b, seed)
        b.fcvt_d_w("fs0", "zero")           # hit accumulator = 0.0

    def emit_int_element(b: ProgramBuilder, u: int) -> None:
        x_reg, y_reg = prng.emit_pair(b)
        b.sw(x_reg, 16 * u, "a7")
        b.sw(y_reg, 16 * u + 8, "a7")

    def emit_finalize(b: ProgramBuilder) -> None:
        b.li("t0", result)
        b.fsd("fs0", 0, "t0")

    spec = TwoPhaseSpec(
        name=f"{integrand.name}_{prng.name}",
        emit_setup=emit_setup,
        emit_int_element=emit_int_element,
        emit_fp_body=integrand.emit_copift,
        pops_per_element=2,
        pushes_per_element=0,
        unroll=8,
        emit_finalize=emit_finalize,
    )
    program = generate_two_phase(spec, n, block, alloc).program

    def verify(mem: Memory, machine) -> None:
        measured = int(mem.read_f64(result))
        expected = reference_hits(prng, integrand, n, seed)
        assert measured == expected, (
            f"hits mismatch: {measured} != {expected}"
        )

    return KernelInstance(
        name=f"{integrand.name}_{prng.name}", variant="copift",
        program=program, memory=memory, n=n, block=block,
        dma_active=False, dma_bytes=0, verify=verify,
    )
