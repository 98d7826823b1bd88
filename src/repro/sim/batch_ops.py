"""Vectorized operation tables for the batch simulation engine.

Every entry mirrors one scalar binder/compute function from
:mod:`repro.sim.exec_ops`, lifted to operate on numpy arrays — one
element per batch lane.  The contract is **bit-exactness**: for every
input a scalar handler accepts, the vector form must produce the same
32-bit integer (or the same float64 down to the last ulp and NaN
payload).  Opcodes whose scalar semantics cannot be reproduced exactly
with array primitives (``div``/``rem`` raise on zero per-lane,
``fsqrt.d`` raises on negative operands, ``fmv.x.w`` on doubles beyond
the float32 range, ``fclass.d`` is table-driven)
are deliberately **absent** from these tables — the engine demotes any
lane that reaches them to the scalar :class:`~repro.sim.scheduler.
Scheduler`, which stays the golden reference.

Integer convention: register values live in ``int64`` arrays holding
canonical unsigned words (``0 <= v <= 2**32 - 1``).  Table entries may
return values outside that range; the engine masks results with
``& 0xFFFF_FFFF`` exactly where the scalar binders do (``UNMASKED``
ops map canonical words to canonical words and skip the mask).  All
intermediates provably fit in int64 (the widest, ``mulhu``, wraps mod
2**64 in numpy — and ``((a*b) mod 2**64 as signed) >> 32 & MASK``
equals ``(a*b) >> 32 & MASK`` for 32-bit inputs, so wraparound is
harmless).

Float convention: ``float64`` arrays.  The scalar FP pipeline is
unfused (``fmadd`` rounds ``a*b`` then the add, matching the two-op
Python expression), so numpy elementwise arithmetic reproduces it
exactly; ``.s`` ops round through ``float32`` just like the scalar
``struct``-based helpers.
"""

from __future__ import annotations

import numpy as np

MASK32 = 0xFFFF_FFFF
_INT32_MIN = -(2 ** 31)
_INT32_MAX = 2 ** 31 - 1
#: Unsigned encodings of the saturation bounds (what u32() yields).
_U32_INT32_MIN = _INT32_MIN & MASK32
_U32_INT32_MAX = _INT32_MAX & MASK32


def s32v(a):
    """Signed interpretation of canonical unsigned words (vector s32)."""
    return np.where(a >= 2 ** 31, a - 2 ** 32, a)


def _f32r(a):
    """Round float64 lanes through IEEE float32 (vector _to_f32)."""
    return a.astype(np.float32).astype(np.float64)


def _u32i(imm: int) -> int:
    return imm & MASK32


# ----------------------------------------------------------------------
# integer register-register / register-immediate ops
# ----------------------------------------------------------------------
# div/divu/rem/remu are absent on purpose: their scalar binders raise
# SimulationError on a zero divisor, a per-lane control-flow effect the
# engine handles by demotion instead.

VEC_RR = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "and": np.bitwise_and,
    "or": np.bitwise_or,
    "xor": np.bitwise_xor,
    "sll": lambda a, b: a << (b & 31),
    "srl": lambda a, b: a >> (b & 31),
    "sra": lambda a, b: s32v(a) >> (b & 31),
    "slt": lambda a, b: (s32v(a) < s32v(b)).astype(np.int64),
    "sltu": lambda a, b: (a < b).astype(np.int64),
    "mul": lambda a, b: a * b,
    "mulh": lambda a, b: (s32v(a) * s32v(b)) >> 32,
    "mulhu": lambda a, b: (a * b) >> 32,
    "mulhsu": lambda a, b: (s32v(a) * b) >> 32,
}

#: The VEC_RR ufuncs whose result on canonical words is canonical: the
#: engine applies them straight into the destination column, unmasked.
UNMASKED = frozenset({"and", "or", "xor"})

VEC_RI = {
    "addi": lambda a, imm: a + imm,
    "andi": lambda a, imm: a & _u32i(imm),
    "ori": lambda a, imm: a | _u32i(imm),
    "xori": lambda a, imm: a ^ _u32i(imm),
    "slli": lambda a, imm: a << (imm & 31),
    "srli": lambda a, imm: a >> (imm & 31),
    "srai": lambda a, imm: s32v(a) >> (imm & 31),
    "slti": lambda a, imm: (s32v(a) < imm).astype(np.int64),
    "sltiu": lambda a, imm: (a < _u32i(imm)).astype(np.int64),
}

#: No register operands; the result is a compile-time constant.
VEC_CONST = {
    "lui": lambda imm: (imm << 12) & MASK32,
    "li": lambda imm: imm & MASK32,
}

VEC_UNARY = {
    "mv": lambda a: a,
    "not": lambda a: ~a,
}

VEC_BRANCH = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: s32v(a) < s32v(b),
    "bge": lambda a, b: s32v(a) >= s32v(b),
    "bltu": lambda a, b: a < b,
    "bgeu": lambda a, b: a >= b,
}

VEC_BRANCHZ = {
    "beqz": lambda a: a == 0,
    "bnez": lambda a: a != 0,
}

# ----------------------------------------------------------------------
# memory access (per-lane scalar helpers; addresses diverge by lane)
# ----------------------------------------------------------------------


def _read_lh(memory, addr: int) -> int:
    value = memory.read_u16(addr)
    return value - 0x1_0000 if value & 0x8000 else value


#: mnemonic -> (memory, addr) -> canonical unsigned word.
LOAD_READERS = {
    "lw": lambda memory, addr: memory.read_u32(addr),
    "lh": lambda memory, addr: _read_lh(memory, addr) & MASK32,
    "lbu": lambda memory, addr: memory.read_u8(addr),
}

#: mnemonic -> (memory, addr, value) writer.  The value is the full
#: canonical word, exactly as the scalar binders pass it — a too-wide
#: value must raise the same error the scalar path raises.
STORE_WRITERS = {
    "sw": lambda memory, addr, value: memory.write_u32(addr, value),
    "sh": lambda memory, addr, value: memory.write_u16(addr, value),
    "sb": lambda memory, addr, value: memory.write_u8(addr, value),
}


# ----------------------------------------------------------------------
# floating point
# ----------------------------------------------------------------------


def _vfdiv(a, b):
    # Scalar: a / b if b != 0.0 else copysign(inf, a) * copysign(1, b).
    safe = np.where(b != 0.0, b, 1.0)
    quotient = a / safe
    signed_inf = np.copysign(np.inf, a) * np.copysign(1.0, b)
    return np.where(b != 0.0, quotient, signed_inf)


def _vfmin(a, b):
    # Python min(a, b): returns a unless b < a (NaN comparisons false).
    return np.where(b < a, b, a)


def _vfmax(a, b):
    return np.where(b > a, b, a)


def _vfsgnjx(a, b):
    sign = np.copysign(1.0, a) * np.copysign(1.0, b)
    return np.copysign(a, sign)


def _bits_of(a):
    """Raw IEEE-754 bit pattern of float64 lanes, as uint64."""
    return a.view(np.uint64) if a.flags.c_contiguous \
        else np.ascontiguousarray(a).view(np.uint64)


def _vbits_to_f64(u):
    """int64 lanes holding u64 bit patterns -> float64 values."""
    return u.astype(np.uint64).view(np.float64)


def _vfcvt_w_d(x):
    """fcvt.w.d: truncate to i32, saturating; NaN -> INT32_MAX (u32)."""
    nan = np.isnan(x)
    lo = x <= _INT32_MIN
    hi = x >= _INT32_MAX
    safe = np.where(nan | lo | hi, 0.0, x)
    result = safe.astype(np.int64) & MASK32     # trunc toward zero
    result = np.where(lo, _U32_INT32_MIN, result)
    result = np.where(hi, _U32_INT32_MAX, result)
    return np.where(nan, _U32_INT32_MAX, result)


def _vfcvt_wu_d(x):
    """fcvt.wu.d: truncate to u32, saturating; NaN -> UINT32_MAX."""
    nan = np.isnan(x)
    lo = x <= 0.0
    hi = x >= MASK32
    safe = np.where(nan | lo | hi, 0.0, x)
    result = safe.astype(np.int64)
    result = np.where(lo, 0, result)
    result = np.where(hi, MASK32, result)
    return np.where(nan, MASK32, result)


def _vfcvt_d_w_bits(a):
    """cfcvt.d.w: reinterpret f64 bits as i32, convert to double."""
    word = (_bits_of(a) & np.uint64(MASK32)).astype(np.int64)
    return s32v(word).astype(np.float64)


def _vfcvt_d_wu_bits(a):
    word = (_bits_of(a) & np.uint64(MASK32)).astype(np.int64)
    return word.astype(np.float64)


def _vfmv_w_x(i):
    """fmv.w.x: i32 bit pattern -> float32 value, widened to f64."""
    return (i & MASK32).astype(np.uint32).view(np.float32) \
        .astype(np.float64)


#: mnemonic -> vector compute over gathered operand columns (float64
#: for FP operands, int64 canonical words for integer operands); the
#: result is written to the FP destination register.  fsqrt.d,
#: fclass.d and cfclass.d are absent (demotion — see module docstring).
VEC_FP_COMPUTE = {
    "fadd.d": lambda a, b: a + b,
    "fsub.d": lambda a, b: a - b,
    "fmul.d": lambda a, b: a * b,
    "fdiv.d": _vfdiv,
    "fmadd.d": lambda a, b, c: a * b + c,
    "fmsub.d": lambda a, b, c: a * b - c,
    "fnmadd.d": lambda a, b, c: -(a * b) - c,
    "fnmsub.d": lambda a, b, c: -(a * b) + c,
    "fadd.s": lambda a, b: _f32r(a + b),
    "fsub.s": lambda a, b: _f32r(a - b),
    "fmul.s": lambda a, b: _f32r(a * b),
    "fmadd.s": lambda a, b, c: _f32r(a * b + c),
    "fmsub.s": lambda a, b, c: _f32r(a * b - c),
    "fmin.d": _vfmin,
    "fmax.d": _vfmax,
    "fsgnj.d": lambda a, b: np.copysign(a, b),
    "fsgnjn.d": lambda a, b: np.copysign(a, -b),
    "fsgnjx.d": _vfsgnjx,
    "fmv.d": lambda a: a,
    "fabs.d": lambda a: np.abs(a),
    "fneg.d": lambda a: -a,
    "fcvt.d.s": lambda a: a,
    "fcvt.s.d": _f32r,
    "fcvt.d.w": lambda i: s32v(i).astype(np.float64),
    "fcvt.d.wu": lambda i: i.astype(np.float64),
    "fmv.w.x": _vfmv_w_x,
    "cfcvt.d.w": _vfcvt_d_w_bits,
    "cfcvt.d.wu": _vfcvt_d_wu_bits,
    "cfcvt.w.d": lambda a: _vbits_to_f64(_vfcvt_w_d(a)),
    "cfcvt.wu.d": lambda a: _vbits_to_f64(_vfcvt_wu_d(a)),
    "cfeq.d": lambda a, b: (a == b).astype(np.float64),
    "cflt.d": lambda a, b: (a < b).astype(np.float64),
    "cfle.d": lambda a, b: (a <= b).astype(np.float64),
}

#: mnemonic -> vector compute whose int64 result lands in the integer
#: RF (masked by the engine).  fclass.d is absent (demotion), and so is
#: fmv.x.w: its scalar form raises on a finite double beyond the
#: float32 range, where a numpy cast would yield inf.
VEC_FP_TO_INT = {
    "feq.d": lambda a, b: (a == b).astype(np.int64),
    "flt.d": lambda a, b: (a < b).astype(np.int64),
    "fle.d": lambda a, b: (a <= b).astype(np.int64),
    "fcvt.w.d": _vfcvt_w_d,
    "fcvt.wu.d": _vfcvt_wu_d,
}

#: Per-lane float readers/writers for the FP load/store paths.
FP_LOAD_READERS = {
    8: lambda memory, addr: memory.read_f64(addr),
    4: lambda memory, addr: memory.read_f32(addr),
}

FP_STORE_WRITERS = {
    8: lambda memory, addr, value: memory.write_f64(addr, value),
    4: lambda memory, addr, value: memory.write_f32(addr, value),
}
