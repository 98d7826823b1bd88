"""Functional (architectural) semantics of every supported instruction.

Split by execution engine:

* :data:`INT_BINDERS` — integer-core instructions as micro-ops: a
  binder ``(instr) -> (machine) -> taken`` that extracts the operand
  register indices and immediate *once*, at decode time, and returns a
  closure the hot loop calls with zero per-step operand resolution
  (see :mod:`repro.sim.decode`); branches return whether they were
  taken.
* :data:`FP_COMPUTE` — pure value functions for FP-thread instructions
  that write an FP register.  Operand values arrive in role order (FP
  sources first, then integer sources for cross-RF conversions).
* :data:`FP_TO_INT` — FP-thread instructions producing an integer-RF
  result (comparisons, ``fcvt.w.d``, ``fclass.d``, ``fmv.x.w``).

Doubles are modelled with native Python floats (IEEE binary64 on all
supported platforms); raw-bit views use ``struct`` so the paper's
bit-manipulation tricks (e.g. glibc ``expf``'s shift-and-extract through
an ``fsd``/``lw`` pair) behave exactly as on hardware.  ``fmadd``-family
results are computed unfused (two roundings); kernel verification uses
tolerances accordingly.
"""

from __future__ import annotations

import math
import struct

import numpy as np

_MASK32 = 0xFFFFFFFF
_INT32_MIN = -(1 << 31)
_INT32_MAX = (1 << 31) - 1


def s32(value: int) -> int:
    """Interpret a 32-bit unsigned value as signed."""
    return value - (1 << 32) if value >= (1 << 31) else value


def u32(value: int) -> int:
    """Truncate a Python int to 32-bit unsigned."""
    return value & _MASK32


def f64_to_bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def bits_to_f64(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q",
                                           bits & (1 << 64) - 1))[0]


def f32_to_bits(value: float) -> int:
    return struct.unpack("<I", struct.pack("<f", value))[0]


def _to_f32(value: float) -> float:
    """Round a double to the nearest binary32, returned as a double."""
    return float(np.float32(value))


# ---------------------------------------------------------------------------
# Integer-core operations
# ---------------------------------------------------------------------------
#
# The pure operation tables (_RR_OPS/_RI_OPS/_BRANCH_OPS) are the single
# source of truth for the register-register/-immediate/branch semantics.
# ``INT_BINDERS`` below compiles them into micro-ops: operand indices and
# immediates are extracted once per static instruction and baked into
# the returned closure, so the simulator's hot loop does no per-step
# operand resolution at all.

def _div(a: int, b: int) -> int:
    if b == 0:
        return _MASK32
    sa, sb = s32(a), s32(b)
    if sa == _INT32_MIN and sb == -1:
        return u32(_INT32_MIN)
    return u32(int(math.trunc(sa / sb)))


def _rem(a: int, b: int) -> int:
    if b == 0:
        return a
    sa, sb = s32(a), s32(b)
    if sa == _INT32_MIN and sb == -1:
        return 0
    return u32(sa - sb * int(math.trunc(sa / sb)))


#: Register-register ops: pure (a, b) -> int (result masked on write).
_RR_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "sll": lambda a, b: a << (b & 31),
    "srl": lambda a, b: a >> (b & 31),
    "sra": lambda a, b: s32(a) >> (b & 31),
    "slt": lambda a, b: int(s32(a) < s32(b)),
    "sltu": lambda a, b: int(a < b),
    "mul": lambda a, b: a * b,
    "mulh": lambda a, b: (s32(a) * s32(b)) >> 32,
    "mulhu": lambda a, b: (a * b) >> 32,
    "mulhsu": lambda a, b: (s32(a) * b) >> 32,
    "div": _div,
    "divu": lambda a, b: _MASK32 if b == 0 else a // b,
    "rem": _rem,
    "remu": lambda a, b: a if b == 0 else a % b,
}

#: Register-immediate ops: pure (a, imm) -> int.
_RI_OPS = {
    "addi": lambda a, i: a + i,
    "andi": lambda a, i: a & u32(i),
    "ori": lambda a, i: a | u32(i),
    "xori": lambda a, i: a ^ u32(i),
    "slli": lambda a, i: a << (i & 31),
    "srli": lambda a, i: a >> (i & 31),
    "srai": lambda a, i: s32(a) >> (i & 31),
    "slti": lambda a, i: int(s32(a) < i),
    "sltiu": lambda a, i: int(a < u32(i)),
}

#: Two-source branches: pure (a, b) -> taken.
_BRANCH_OPS = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: s32(a) < s32(b),
    "bge": lambda a, b: s32(a) >= s32(b),
    "bltu": lambda a, b: a < b,
    "bgeu": lambda a, b: a >= b,
}


# ---------------------------------------------------------------------------
# Micro-op binders (decode-time operand extraction)
# ---------------------------------------------------------------------------

def _bind_rr(op):
    def bind(instr):
        d = instr.operands[0].index
        a = instr.operands[1].index
        b = instr.operands[2].index

        def run(m):
            iregs = m.iregs
            value = op(iregs[a], iregs[b]) & _MASK32
            if d:
                iregs[d] = value
            return None
        return run
    return bind


def _bind_ri(op):
    def bind(instr):
        d = instr.operands[0].index
        a = instr.operands[1].index
        imm = instr.imm

        def run(m):
            iregs = m.iregs
            value = op(iregs[a], imm) & _MASK32
            if d:
                iregs[d] = value
            return None
        return run
    return bind


def _bind_branch(cond):
    def bind(instr):
        a = instr.operands[0].index
        b = instr.operands[1].index

        def run(m):
            iregs = m.iregs
            return cond(iregs[a], iregs[b])
        return run
    return bind


def _bind_const(value_of):
    """Destination <- compile-time constant (lui / li)."""
    def bind(instr):
        d = instr.operands[0].index
        value = value_of(instr.imm) & _MASK32

        def run(m):
            if d:
                m.iregs[d] = value
            return None
        return run
    return bind


def _bind_unary(op):
    """Destination <- pure function of one source register (mv / not)."""
    def bind(instr):
        d = instr.operands[0].index
        a = instr.operands[1].index

        def run(m):
            iregs = m.iregs
            value = op(iregs[a]) & _MASK32
            if d:
                iregs[d] = value
            return None
        return run
    return bind


def _bind_nop(instr):
    def run(m):
        return None
    return run


def _bind_branchz(cond):
    def bind(instr):
        a = instr.operands[0].index

        def run(m):
            return cond(m.iregs[a])
        return run
    return bind


def _bind_load(read):
    """rd <- read(memory, addr); read returns a 32-bit-clean value."""
    def bind(instr):
        d = instr.operands[0].index
        base = instr.operands[2].index
        imm = instr.imm

        def run(m):
            value = read(m.memory, (m.iregs[base] + imm) & _MASK32)
            if d:
                m.iregs[d] = value & _MASK32
            return None
        return run
    return bind


def _bind_store(write):
    def bind(instr):
        src = instr.operands[0].index
        base = instr.operands[2].index
        imm = instr.imm

        def run(m):
            iregs = m.iregs
            write(m.memory, (iregs[base] + imm) & _MASK32, iregs[src])
            return None
        return run
    return bind


def _read_lh(memory, addr):
    value = memory.read_u16(addr)
    if value >= 1 << 15:
        value -= 1 << 16
    return value


def _bind_amoadd_w(instr):
    """Atomic fetch-and-add on a TCDM word (cluster atomics).

    Atomic by construction: the cluster driver steps one core at a
    time, so the read-modify-write never interleaves with another
    core's access to the same word.
    """
    d = instr.operands[0].index
    base = instr.operands[2].index
    src = instr.operands[3].index
    imm = instr.imm

    def run(m):
        iregs = m.iregs
        memory = m.memory
        addr = (iregs[base] + imm) & _MASK32
        old = memory.read_u32(addr)
        memory.write_u32(addr, (old + iregs[src]) & _MASK32)
        if d:
            iregs[d] = old
        m.sched.counters.amo_ops += 1
        return None
    return run


def _bind_dma_copy(instr):
    dst = instr.operands[0].index
    src = instr.operands[1].index
    length = instr.operands[2].index

    def run(m):
        iregs = m.iregs
        nbytes = iregs[length]
        m.memory.copy_within(iregs[dst], iregs[src], nbytes)
        m.sched.counters.dma_bytes_moved += nbytes
        return None
    return run


#: Micro-op binders: mnemonic -> binder(instr) -> callable(machine).
INT_BINDERS = {}
INT_BINDERS.update({m: _bind_rr(op) for m, op in _RR_OPS.items()})
INT_BINDERS.update({m: _bind_ri(op) for m, op in _RI_OPS.items()})
INT_BINDERS.update({m: _bind_branch(op) for m, op in _BRANCH_OPS.items()})
INT_BINDERS.update({
    "lui": _bind_const(lambda imm: imm << 12),
    "li": _bind_const(lambda imm: imm),
    "mv": _bind_unary(lambda a: a),
    "not": _bind_unary(lambda a: ~a),
    "nop": _bind_nop,
    "beqz": _bind_branchz(lambda a: a == 0),
    "bnez": _bind_branchz(lambda a: a != 0),
    "lw": _bind_load(lambda memory, addr: memory.read_u32(addr)),
    "lh": _bind_load(_read_lh),
    "lbu": _bind_load(lambda memory, addr: memory.read_u8(addr)),
    "sw": _bind_store(lambda memory, addr, v: memory.write_u32(addr, v)),
    "sh": _bind_store(lambda memory, addr, v: memory.write_u16(addr, v)),
    "sb": _bind_store(lambda memory, addr, v: memory.write_u8(addr, v)),
    "amoadd.w": _bind_amoadd_w,
    "dma.copy": _bind_dma_copy,
})


# ---------------------------------------------------------------------------
# FP value functions
# ---------------------------------------------------------------------------

def _fsgnjx(a: float, b: float) -> float:
    sign = math.copysign(1.0, a) * math.copysign(1.0, b)
    return math.copysign(a, sign)


def _fcvt_w_d(x: float) -> int:
    """RISC-V fcvt.w.d with round-toward-zero, saturating."""
    if math.isnan(x):
        return u32(_INT32_MAX)
    if x <= _INT32_MIN:
        return u32(_INT32_MIN)
    if x >= _INT32_MAX:
        return u32(_INT32_MAX)
    return u32(int(x))


def _fcvt_wu_d(x: float) -> int:
    if math.isnan(x):
        return _MASK32
    if x <= 0:
        return 0
    if x >= _MASK32:
        return _MASK32
    return int(x)


def fclass_d(x: float) -> int:
    """RISC-V fclass.d classification mask."""
    if math.isnan(x):
        return 1 << 9  # we model all NaNs as quiet
    bits = f64_to_bits(x)
    negative = bits >> 63
    exponent = (bits >> 52) & 0x7FF
    mantissa = bits & ((1 << 52) - 1)
    if math.isinf(x):
        return 1 << (0 if negative else 7)
    if exponent == 0 and mantissa == 0:
        return 1 << (3 if negative else 4)
    if exponent == 0:
        return 1 << (2 if negative else 5)
    return 1 << (1 if negative else 6)


#: FP instructions writing an FP register: mnemonic -> pure value function.
#: Operand order matches spec roles (FP sources, then integer sources).
FP_COMPUTE = {
    "fadd.d": lambda a, b: a + b,
    "fsub.d": lambda a, b: a - b,
    "fmul.d": lambda a, b: a * b,
    "fdiv.d": lambda a, b: a / b if b != 0 else math.copysign(
        math.inf, a) * math.copysign(1.0, b),
    "fsqrt.d": math.sqrt,
    "fmadd.d": lambda a, b, c: a * b + c,
    "fmsub.d": lambda a, b, c: a * b - c,
    "fnmadd.d": lambda a, b, c: -(a * b) - c,
    "fnmsub.d": lambda a, b, c: -(a * b) + c,
    "fadd.s": lambda a, b: _to_f32(a + b),
    "fsub.s": lambda a, b: _to_f32(a - b),
    "fmul.s": lambda a, b: _to_f32(a * b),
    "fmadd.s": lambda a, b, c: _to_f32(a * b + c),
    "fmsub.s": lambda a, b, c: _to_f32(a * b - c),
    "fmin.d": min,
    "fmax.d": max,
    "fsgnj.d": lambda a, b: math.copysign(a, b),
    "fsgnjn.d": lambda a, b: math.copysign(a, -b),
    "fsgnjx.d": _fsgnjx,
    "fmv.d": lambda a: a,
    "fabs.d": abs,
    "fneg.d": lambda a: -a,
    "fcvt.d.s": lambda a: a,            # register already holds a double
    "fcvt.s.d": _to_f32,
    # Cross-RF conversions consuming an *integer* source value:
    "fcvt.d.w": lambda i: float(s32(i)),
    "fcvt.d.wu": lambda i: float(i),
    "fmv.w.x": lambda i: struct.unpack("<f", struct.pack("<I", u32(i)))[0],
    # COPIFT custom-1: same conversions, sourced from the FP RF.  The
    # integer payload is the low 32 bits of the register's raw pattern
    # (how an integer-thread `sw` into a streamed buffer arrives here).
    "cfcvt.d.w": lambda a: float(s32(f64_to_bits(a) & _MASK32)),
    "cfcvt.d.wu": lambda a: float(f64_to_bits(a) & _MASK32),
    # COPIFT custom-1 conversions *to* integer leave the int32 bit
    # pattern in the low word of the FP destination (for spilling to the
    # integer thread through memory).
    "cfcvt.w.d": lambda a: bits_to_f64(_fcvt_w_d(a)),
    "cfcvt.wu.d": lambda a: bits_to_f64(_fcvt_wu_d(a)),
    # COPIFT custom-1 comparisons produce 0.0 / 1.0 in the FP RF so the
    # FP thread can accumulate them directly (hit-or-miss Monte Carlo).
    "cfeq.d": lambda a, b: 1.0 if a == b else 0.0,
    "cflt.d": lambda a, b: 1.0 if a < b else 0.0,
    "cfle.d": lambda a, b: 1.0 if a <= b else 0.0,
    "cfclass.d": lambda a: float(fclass_d(a)),
}

#: FP instructions producing an integer-RF result (Type 3 dependencies).
FP_TO_INT = {
    "feq.d": lambda a, b: int(a == b),
    "flt.d": lambda a, b: int(a < b),
    "fle.d": lambda a, b: int(a <= b),
    "fcvt.w.d": _fcvt_w_d,
    "fcvt.wu.d": _fcvt_wu_d,
    "fclass.d": fclass_d,
    "fmv.x.w": f32_to_bits,
}
