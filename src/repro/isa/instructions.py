"""Instruction-set specification for the RV32G subset Snitch executes.

Every mnemonic the simulator understands is described by an
:class:`InstrSpec` entry in :data:`SPECS`.  The spec captures the three
properties COPIFT and the timing model care about:

* **thread** — whether the instruction issues on the integer core
  (:attr:`Thread.INT`) or is offloaded to the FP subsystem
  (:attr:`Thread.FP`).  This is the partitioning axis of the whole paper.
* **operand roles** — which operands are integer/FP sources/destinations,
  from which per-instruction register reads/writes are derived.  FP
  instructions with integer-register operands (loads, stores, conversions,
  comparisons, moves) are exactly the cross-thread dependencies COPIFT has
  to eliminate.
* **latency class** — lookup key into the core's latency table.

Includes the COPIFT custom-1 extension instructions (``cfcvt.d.w`` & co.)
that re-encode conversion/comparison semantics to operate entirely on the
FP register file, plus Snitch's ``frep``/SSR control instructions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Thread(enum.Enum):
    """Issue engine an instruction executes on."""

    INT = "int"
    FP = "fp"


class OpClass(enum.Enum):
    """Coarse operation class, used for latency and energy lookup."""

    ALU = "alu"                # integer ALU op
    MUL = "mul"                # integer multiply (shared muldiv unit)
    LOAD = "load"              # integer load
    STORE = "store"            # integer store
    BRANCH = "branch"          # conditional branch
    JUMP = "jump"              # jal/jalr
    CSR = "csr"                # CSR access (SSR enable/config)
    FP_ADD = "fp_add"          # FP add/sub
    FP_MUL = "fp_mul"          # FP multiply
    FP_FMA = "fp_fma"          # fused multiply-add family
    FP_DIV = "fp_div"          # FP divide / sqrt
    FP_CMP = "fp_cmp"          # FP compare (writes int or FP RF)
    FP_CVT = "fp_cvt"          # FP conversion / classify
    FP_MV = "fp_mv"            # FP sign-inject / register move
    FP_LOAD = "fp_load"        # FP load
    FP_STORE = "fp_store"      # FP store
    FREP = "frep"              # FREP loop marker
    META = "meta"              # zero-cost simulator directives


#: Operand role vocabulary.  ``rd``/``rs*`` are integer registers,
#: ``frd``/``frs*`` are FP registers; ``imm`` is an integer literal and
#: ``label`` a branch/jump target resolved by the assembler.
Role = str

_INT_DST_ROLES = frozenset({"rd"})
_INT_SRC_ROLES = frozenset({"rs1", "rs2", "rs3"})
_FP_DST_ROLES = frozenset({"frd"})
_FP_SRC_ROLES = frozenset({"frs1", "frs2", "frs3"})


@dataclass(frozen=True)
class InstrSpec:
    """Static description of one mnemonic."""

    mnemonic: str
    thread: Thread
    opclass: OpClass
    roles: tuple[Role, ...]
    #: True when the instruction reads memory.
    is_load: bool = False
    #: True when the instruction writes memory.
    is_store: bool = False
    #: Extension the mnemonic belongs to (rv32i, rv32m, rv32d, xfrep,
    #: xssr, xcopift, meta) — documentation and statistics only.
    extension: str = "rv32i"
    #: Operand index carrying a memory base register, if any.
    mem_base_role: str | None = None

    @property
    def is_cross_rf(self) -> bool:
        """True when an FP-thread instruction touches the integer RF.

        These are the instructions that break the independent-thread
        abstraction (paper §II-A): FP loads/stores (integer address
        operand), conversions/moves between the files, and comparisons
        writing integer flags.
        """
        if self.thread is not Thread.FP:
            return False
        touches_int = any(
            r in _INT_DST_ROLES or r in _INT_SRC_ROLES for r in self.roles
        )
        return touches_int


def _spec(
    mnemonic: str,
    thread: Thread,
    opclass: OpClass,
    roles: tuple[Role, ...],
    **kwargs,
) -> InstrSpec:
    return InstrSpec(mnemonic, thread, opclass, roles, **kwargs)


_I = Thread.INT
_F = Thread.FP

#: All instruction specs, keyed by mnemonic.
SPECS: dict[str, InstrSpec] = {}


def _add(spec: InstrSpec) -> None:
    if spec.mnemonic in SPECS:
        raise ValueError(f"duplicate mnemonic {spec.mnemonic}")
    SPECS[spec.mnemonic] = spec


# --- RV32I integer computational --------------------------------------
for _m in ("add", "sub", "and", "or", "xor", "sll", "srl", "sra",
           "slt", "sltu"):
    _add(_spec(_m, _I, OpClass.ALU, ("rd", "rs1", "rs2")))
for _m in ("addi", "andi", "ori", "xori", "slli", "srli", "srai",
           "slti", "sltiu"):
    _add(_spec(_m, _I, OpClass.ALU, ("rd", "rs1", "imm")))
_add(_spec("lui", _I, OpClass.ALU, ("rd", "imm")))
_add(_spec("li", _I, OpClass.ALU, ("rd", "imm")))      # pseudo
_add(_spec("mv", _I, OpClass.ALU, ("rd", "rs1")))      # pseudo
_add(_spec("not", _I, OpClass.ALU, ("rd", "rs1")))     # pseudo
_add(_spec("nop", _I, OpClass.ALU, ()))

# --- RV32I loads / stores ---------------------------------------------
_add(_spec("lw", _I, OpClass.LOAD, ("rd", "imm", "rs1"),
           is_load=True, mem_base_role="rs1"))
_add(_spec("lh", _I, OpClass.LOAD, ("rd", "imm", "rs1"),
           is_load=True, mem_base_role="rs1"))
_add(_spec("lbu", _I, OpClass.LOAD, ("rd", "imm", "rs1"),
           is_load=True, mem_base_role="rs1"))
_add(_spec("sw", _I, OpClass.STORE, ("rs2", "imm", "rs1"),
           is_store=True, mem_base_role="rs1"))
_add(_spec("sh", _I, OpClass.STORE, ("rs2", "imm", "rs1"),
           is_store=True, mem_base_role="rs1"))
_add(_spec("sb", _I, OpClass.STORE, ("rs2", "imm", "rs1"),
           is_store=True, mem_base_role="rs1"))

# --- RV32I control flow -------------------------------------------------
for _m in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
    _add(_spec(_m, _I, OpClass.BRANCH, ("rs1", "rs2", "label")))
_add(_spec("beqz", _I, OpClass.BRANCH, ("rs1", "label")))  # pseudo
_add(_spec("bnez", _I, OpClass.BRANCH, ("rs1", "label")))  # pseudo
_add(_spec("j", _I, OpClass.JUMP, ("label",)))             # pseudo
_add(_spec("jal", _I, OpClass.JUMP, ("rd", "label")))
_add(_spec("jalr", _I, OpClass.JUMP, ("rd", "rs1", "imm")))
_add(_spec("ret", _I, OpClass.JUMP, ()))                   # pseudo

# --- RV32M ---------------------------------------------------------------
for _m in ("mul", "mulh", "mulhu", "mulhsu", "div", "divu", "rem", "remu"):
    _add(_spec(_m, _I, OpClass.MUL, ("rd", "rs1", "rs2"), extension="rv32m"))

# --- F/D loads & stores (FP thread, integer address: cross-RF Type 1/2) --
for _m, _ext in (("fld", "rv32d"), ("flw", "rv32f")):
    _add(_spec(_m, _F, OpClass.FP_LOAD, ("frd", "imm", "rs1"),
               is_load=True, extension=_ext, mem_base_role="rs1"))
for _m, _ext in (("fsd", "rv32d"), ("fsw", "rv32f")):
    _add(_spec(_m, _F, OpClass.FP_STORE, ("frs2", "imm", "rs1"),
               is_store=True, extension=_ext, mem_base_role="rs1"))

# --- D-extension arithmetic (pure FP thread) ----------------------------
for _m in ("fadd.d", "fsub.d", "fadd.s", "fsub.s"):
    _add(_spec(_m, _F, OpClass.FP_ADD, ("frd", "frs1", "frs2"),
               extension="rv32d"))
for _m in ("fmul.d", "fmul.s"):
    _add(_spec(_m, _F, OpClass.FP_MUL, ("frd", "frs1", "frs2"),
               extension="rv32d"))
for _m in ("fdiv.d", "fsqrt.d"):
    _roles = ("frd", "frs1", "frs2") if _m == "fdiv.d" else ("frd", "frs1")
    _add(_spec(_m, _F, OpClass.FP_DIV, _roles, extension="rv32d"))
for _m in ("fmadd.d", "fmsub.d", "fnmadd.d", "fnmsub.d",
           "fmadd.s", "fmsub.s"):
    _add(_spec(_m, _F, OpClass.FP_FMA, ("frd", "frs1", "frs2", "frs3"),
               extension="rv32d"))
for _m in ("fmin.d", "fmax.d"):
    _add(_spec(_m, _F, OpClass.FP_CMP, ("frd", "frs1", "frs2"),
               extension="rv32d"))
for _m in ("fsgnj.d", "fsgnjn.d", "fsgnjx.d"):
    _add(_spec(_m, _F, OpClass.FP_MV, ("frd", "frs1", "frs2"),
               extension="rv32d"))
_add(_spec("fmv.d", _F, OpClass.FP_MV, ("frd", "frs1"),
           extension="rv32d"))  # pseudo for fsgnj.d f,f,f
_add(_spec("fabs.d", _F, OpClass.FP_MV, ("frd", "frs1"), extension="rv32d"))
_add(_spec("fneg.d", _F, OpClass.FP_MV, ("frd", "frs1"), extension="rv32d"))

# --- D-extension cross-RF conversions / compares / moves (Type 3) -------
_add(_spec("fcvt.d.w", _F, OpClass.FP_CVT, ("frd", "rs1"), extension="rv32d"))
_add(_spec("fcvt.d.wu", _F, OpClass.FP_CVT, ("frd", "rs1"),
           extension="rv32d"))
_add(_spec("fcvt.w.d", _F, OpClass.FP_CVT, ("rd", "frs1"), extension="rv32d"))
_add(_spec("fcvt.wu.d", _F, OpClass.FP_CVT, ("rd", "frs1"),
           extension="rv32d"))
_add(_spec("fcvt.d.s", _F, OpClass.FP_CVT, ("frd", "frs1"),
           extension="rv32d"))
_add(_spec("fcvt.s.d", _F, OpClass.FP_CVT, ("frd", "frs1"),
           extension="rv32d"))
for _m in ("feq.d", "flt.d", "fle.d"):
    _add(_spec(_m, _F, OpClass.FP_CMP, ("rd", "frs1", "frs2"),
               extension="rv32d"))
_add(_spec("fclass.d", _F, OpClass.FP_CVT, ("rd", "frs1"),
           extension="rv32d"))
_add(_spec("fmv.x.w", _F, OpClass.FP_MV, ("rd", "frs1"), extension="rv32f"))
_add(_spec("fmv.w.x", _F, OpClass.FP_MV, ("frd", "rs1"), extension="rv32f"))

# --- COPIFT custom-1 extension ------------------------------------------
# FREP-compatible re-encodings of the cross-RF conversion / comparison
# instructions.  Sources previously in the integer RF arrive through the
# FP RF (typically streamed in by an SSR); results previously written to
# the integer RF land in the FP RF (as 0.0 / 1.0 for comparisons, or the
# integer bit pattern in the low word for fcvt.w-class results).
_add(_spec("cfcvt.d.w", _F, OpClass.FP_CVT, ("frd", "frs1"),
           extension="xcopift"))
_add(_spec("cfcvt.d.wu", _F, OpClass.FP_CVT, ("frd", "frs1"),
           extension="xcopift"))
_add(_spec("cfcvt.w.d", _F, OpClass.FP_CVT, ("frd", "frs1"),
           extension="xcopift"))
_add(_spec("cfcvt.wu.d", _F, OpClass.FP_CVT, ("frd", "frs1"),
           extension="xcopift"))
for _m in ("cfeq.d", "cflt.d", "cfle.d"):
    _add(_spec(_m, _F, OpClass.FP_CMP, ("frd", "frs1", "frs2"),
               extension="xcopift"))
_add(_spec("cfclass.d", _F, OpClass.FP_CVT, ("frd", "frs1"),
           extension="xcopift"))

# --- Snitch Xfrep / Xssr ---------------------------------------------------
# frep.o rs1, n_instrs: repeat the next n_instrs FP instructions
# (rs1) + 1 times; iterations after the first are issued by the FPSS
# sequencer, concurrently with the integer core.
_add(_spec("frep.o", _I, OpClass.FREP, ("rs1", "imm"), extension="xfrep"))
# scfgwi rs1, imm: write SSR configuration word (imm encodes ssr + field).
_add(_spec("scfgwi", _I, OpClass.CSR, ("rs1", "imm"), extension="xssr"))
# csrsi/csrci on the SSR enable CSR, modelled as dedicated mnemonics.
_add(_spec("ssr.enable", _I, OpClass.CSR, (), extension="xssr"))
_add(_spec("ssr.disable", _I, OpClass.CSR, (), extension="xssr"))

# --- DMA engine -----------------------------------------------------------
# dma.copy rs1(dst), rs2(src), rs3(len): program a background DMA
# transfer.  The engine runs concurrently with both threads; in this
# model the copy is applied immediately (program order) and costs one
# issue cycle — the timing approximation is documented in DESIGN.md §2
# (TCDM bandwidth is ample for the evaluated kernels).  Bytes moved are
# counted for the energy model.
_add(_spec("dma.copy", _I, OpClass.CSR, ("rs1", "rs2", "rs3"),
           extension="xdma"))
# dma.start rs1(dst), rs2(src), rs3(len): asynchronous tile transfer on
# the cluster DMA engine.  Functionally the copy lands immediately (in
# program order); its *timing* completion is modelled by the cluster's
# bandwidth/latency engine, and consumers of the destination range stall
# through the memory-RAW machinery until the transfer drains.  Without a
# cluster DMA engine attached it degrades to dma.copy semantics.
_add(_spec("dma.start", _I, OpClass.CSR, ("rs1", "rs2", "rs3"),
           extension="xdma"))
# dma.wait: stall the integer core until every transfer this core has
# started on the cluster DMA engine has completed (a DMA fence).
_add(_spec("dma.wait", _I, OpClass.CSR, (), extension="xdma"))

# --- Cluster synchronization (Xcluster) -----------------------------------
# cluster.barrier: hardware barrier across all cores of a cluster.  The
# core arrives once its FP subsystem has drained (implicit FPU fence)
# and resumes when every active core in the cluster has arrived.  On a
# single Machine (no cluster attached) it costs one issue cycle.
_add(_spec("cluster.barrier", _I, OpClass.CSR, (), extension="xcluster"))
# amoadd.w rd, imm(rs1), rs2: atomic fetch-and-add on a TCDM word
# (cluster atomics, serviced by the TCDM interconnect).  rd receives
# the old value; memory receives old + rs2.  Atomicity across cores
# holds by construction in the cluster model (one core steps at a
# time); timing is a load-class TCDM round trip.
_add(_spec("amoadd.w", _I, OpClass.LOAD, ("rd", "imm", "rs1", "rs2"),
           is_load=True, is_store=True, extension="xcluster",
           mem_base_role="rs1"))

# --- Simulator meta directives -----------------------------------------
# mark <label>: zero-cost region marker for performance counters.
_add(_spec("mark", _I, OpClass.META, ("label",), extension="meta"))


def spec(mnemonic: str) -> InstrSpec:
    """Look up the spec for *mnemonic*.

    Raises:
        KeyError: for unknown mnemonics.
    """
    try:
        return SPECS[mnemonic]
    except KeyError:
        raise KeyError(f"unknown mnemonic: {mnemonic!r}") from None


#: Mnemonics whose cross-RF semantics COPIFT re-encodes (paper §II-B),
#: mapping the original "D" instruction to its custom-1 replacement.
COPIFT_REENCODINGS: dict[str, str] = {
    "fcvt.w.d": "cfcvt.w.d",
    "fcvt.wu.d": "cfcvt.wu.d",
    "fcvt.d.w": "cfcvt.d.w",
    "fcvt.d.wu": "cfcvt.d.wu",
    "feq.d": "cfeq.d",
    "flt.d": "cflt.d",
    "fle.d": "cfle.d",
    "fclass.d": "cfclass.d",
}
