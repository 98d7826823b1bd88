"""Pre-decoded micro-op programs.

The simulator used to re-derive everything about an instruction on every
dynamic execution: dict lookups into the handler tables, ``zip`` walks
over operand roles, attribute chains through ``instr.spec``.  A
:class:`DecodedProgram` does all of that exactly once per *static*
instruction, producing a flat list of :class:`MicroOp` records the hot
loop consumes with plain list indexing:

* the functional handler is resolved and *bound* — operand register
  indices and immediates are baked into a closure
  (:data:`~repro.sim.exec_ops.INT_BINDERS`);
* operand read/write register index tuples are pre-extracted;
* branch/jump targets are resolved to instruction indices;
* FP operand gathering is compiled to a ``(is_fp, index)`` plan;
* FREP bodies are pre-sliced and statically validated;
* the activity-counter field name for the op's class is attached.

Decoding is done once per instruction per process: a bounded memo keyed
by pc, (interned) instruction and branch target gives the programs of
every core, cell and sweep variant the same micro-ops for equal code.
A decoded program is config-independent: per-config latencies are
resolved by the scheduler at bind time.  Programs and micro-ops are
treated as immutable after decode (nothing in the repo mutates them).

Bit-for-bit timing compatibility with the original interpreter is a hard
requirement (locked in by ``tests/test_golden.py``); every precomputed
field mirrors the expression the interpreter used to evaluate in-line.
"""

from __future__ import annotations

from ..isa.instructions import OpClass, Thread
from ..isa.program import Instruction, Program
from .exec_ops import FP_COMPUTE, FP_TO_INT, INT_BINDERS
from .ssr import F_RPTR, F_WPTR, decode_cfg_imm

# -- micro-op kinds (MicroOp.kind) ------------------------------------------
K_INT = 0     # integer-core instruction
K_FP = 1      # FP-subsystem instruction
K_FREP = 2    # FREP loop marker
K_META = 3    # zero-cost simulator directive (mark)

# -- integer specials (MicroOp.special) -------------------------------------
S_HANDLER = 0   # plain functional handler (the common case)
S_SCFGWI = 1    # SSR configuration write
S_SSR_EN = 2    # ssr.enable
S_SSR_DIS = 3   # ssr.disable
S_DMA_START = 4  # asynchronous cluster DMA transfer
S_DMA_WAIT = 5  # DMA fence
S_BARRIER = 6   # cluster hardware barrier
S_RET = 7       # halt
S_JUMP = 8      # j / jal / jalr

# -- FP dispatch (MicroOp.fp_op) --------------------------------------------
F_LOAD = 0    # FP load (fld/flw)
F_STORE = 1   # FP store (fsd/fsw)
F_COMPUTE = 2  # writes the FP RF through FP_COMPUTE
F_TO_INT = 3   # writes the integer RF through FP_TO_INT
F_BAD = 4      # decode error, raised on execution

#: Activity counter incremented per issued instruction of each class.
ACTIVITY_COUNTER = {
    OpClass.ALU: "int_alu_ops",
    OpClass.MUL: "int_mul_ops",
    OpClass.LOAD: "int_loads",
    OpClass.STORE: "int_stores",
    OpClass.BRANCH: "branches",
    OpClass.JUMP: "branches",
    OpClass.CSR: "csr_ops",
    OpClass.FREP: "csr_ops",
    OpClass.FP_ADD: "fp_adds",
    OpClass.FP_MUL: "fp_muls",
    OpClass.FP_FMA: "fp_fmas",
    OpClass.FP_DIV: "fp_divs",
    OpClass.FP_CMP: "fp_cmps",
    OpClass.FP_CVT: "fp_cvts",
    OpClass.FP_MV: "fp_mvs",
    OpClass.FP_LOAD: "fp_loads",
    OpClass.FP_STORE: "fp_stores",
}


class MicroOp:
    """One pre-decoded instruction (flat record, no per-step derivation)."""

    __slots__ = (
        "index", "instr", "mnemonic", "kind", "opclass", "counter",
        # integer side
        "special", "handler", "int_read_idx", "int_write_idx",
        "is_load", "is_store", "is_branch", "mem_base_idx", "imm",
        "target", "jump_direct", "error",
        # scfgwi / dma.start / frep scalar operands
        "aux0", "aux1", "aux2", "cfg_arm",
        # FP side
        "gather", "fp_op", "compute", "dest_idx", "width",
        # FREP
        "frep_n", "frep_body", "frep_error", "ident",
    )

    def __init__(self, index: int, instr: Instruction,
                 target: int | None = None) -> None:
        spec = instr.spec
        self.index = index
        self.instr = instr
        #: What the op's compiled code depends on (a label by target).
        self.ident = (spec.mnemonic, target, *(
            None if isinstance(o, str) else getattr(o, "index", o)
            for o in instr.operands))
        self.mnemonic = spec.mnemonic
        self.opclass = spec.opclass
        self.counter = ACTIVITY_COUNTER.get(spec.opclass)
        self.special = S_HANDLER
        self.handler = None
        self.int_read_idx = tuple(r.index for r in instr.int_reads)
        self.int_write_idx = tuple(r.index for r in instr.int_writes)
        self.is_load = spec.is_load
        self.is_store = spec.is_store
        self.is_branch = spec.opclass is OpClass.BRANCH
        self.mem_base_idx = (instr.mem_base.index
                             if instr.mem_base is not None else 0)
        self.imm = instr.imm
        self.target = target
        self.jump_direct = False
        self.error = None
        self.aux0 = self.aux1 = self.aux2 = 0
        self.cfg_arm = False
        self.gather = ()
        self.fp_op = F_BAD
        self.compute = None
        self.dest_idx = 0
        self.width = 8
        self.frep_n = 0
        self.frep_body = ()
        self.frep_error = None

        opclass = spec.opclass
        if opclass is OpClass.META:
            self.kind = K_META
        elif opclass is OpClass.FREP:
            self.kind = K_FREP
            self.aux0 = instr.operands[0].index      # rs1 (repeat count)
            self.frep_n = instr.imm
        elif spec.thread is Thread.INT:
            self.kind = K_INT
            self._decode_int(instr)
        else:
            self.kind = K_FP
            self._decode_fp(instr)

    # ------------------------------------------------------------------
    def _decode_int(self, instr: Instruction) -> None:
        mnemonic = self.mnemonic
        if mnemonic == "scfgwi":
            self.special = S_SCFGWI
            field_code, ssr_index = decode_cfg_imm(instr.imm)
            self.aux0 = field_code
            self.aux1 = ssr_index
            self.aux2 = instr.operands[0].index      # value source
            self.cfg_arm = field_code in (F_RPTR, F_WPTR)
        elif mnemonic == "ssr.enable":
            self.special = S_SSR_EN
        elif mnemonic == "ssr.disable":
            self.special = S_SSR_DIS
        elif mnemonic == "dma.start":
            self.special = S_DMA_START
            self.aux0 = instr.operands[0].index
            self.aux1 = instr.operands[1].index
            self.aux2 = instr.operands[2].index
        elif mnemonic == "dma.wait":
            self.special = S_DMA_WAIT
        elif mnemonic == "cluster.barrier":
            self.special = S_BARRIER
        elif mnemonic == "ret":
            self.special = S_RET
        elif self.opclass is OpClass.JUMP:
            self.special = S_JUMP
            self.jump_direct = mnemonic in ("j", "jal")
        else:
            binder = INT_BINDERS.get(mnemonic)
            if binder is None:
                self.error = (
                    f"unsupported instruction {instr.render()!r}"
                )
            else:
                self.handler = binder(instr)

    # ------------------------------------------------------------------
    def _decode_fp(self, instr: Instruction) -> None:
        spec = instr.spec
        gather = []
        for role, operand in zip(spec.roles, instr.operands):
            if role.startswith("frs"):
                gather.append((True, operand.index))
            elif role.startswith("rs") and role != spec.mem_base_role:
                gather.append((False, operand.index))
        self.gather = tuple(gather)

        mnemonic = self.mnemonic
        opclass = self.opclass
        if opclass is OpClass.FP_LOAD:
            self.fp_op = F_LOAD
            self.dest_idx = instr.operands[0].index
            self.width = 8 if mnemonic == "fld" else 4
        elif opclass is OpClass.FP_STORE:
            self.fp_op = F_STORE
            self.width = 8 if mnemonic == "fsd" else 4
        elif instr.fp_writes:
            compute = FP_COMPUTE.get(mnemonic)
            if compute is None:
                self.error = (
                    f"unsupported FP instruction {instr.render()!r}"
                )
            else:
                self.fp_op = F_COMPUTE
                self.compute = compute
                self.dest_idx = instr.operands[0].index
        elif instr.int_writes:
            to_int = FP_TO_INT.get(mnemonic)
            if to_int is None:
                self.error = (
                    f"unsupported FP instruction {instr.render()!r}"
                )
            else:
                self.fp_op = F_TO_INT
                self.compute = to_int
                self.dest_idx = instr.operands[0].index
        else:
            self.error = (
                f"FP instruction with no destination: {instr.render()!r}"
            )


#: Micro-ops decoded so far, by ``(pc, id(instr), target)``, least
#: recently used first.  An entry holds its instruction (interned by
#: ``make_instruction``), so an id is not reused while it lives.
_MEMO: dict[tuple, MicroOp] = {}
#: Entries kept: the twelve Figure-2 programs, the ``soc_ladder`` rungs,
#: the 36 ``serve_replay`` cells (whose cores differ in their ``li``
#: constants) and the ``seed_fleet`` sweep decode 4.4k.
MEMO_SIZE = 8192


class DecodedProgram:
    """A program resolved to micro-ops, cached on the Program object."""

    __slots__ = ("program", "ops")

    def __init__(self, program: Program) -> None:
        self.program = program
        memo = _MEMO
        ops = []
        for i, instr in enumerate(program.instructions):
            # Branch/jump targets (the interpreter resolved these on
            # every bind; undefined labels raise the same KeyError).
            target = program.target(instr.label) \
                if instr.label is not None and instr.spec.opclass in (
                    OpClass.BRANCH, OpClass.JUMP) else None
            key = (i, id(instr), target)
            op = memo.pop(key, None) or MicroOp(i, instr, target)
            if op.kind != K_FREP:       # an frep's body is per program
                memo[key] = op
            ops.append(op)
        while len(memo) > MEMO_SIZE:
            del memo[next(iter(memo))]
        self.ops = ops
        n_ops = len(ops)
        for op in ops:
            # FREP bodies: pre-slice and statically validate.  The
            # config-dependent buffer-size check stays with the
            # scheduler; error precedence there matches the original
            # interpreter (n <= 0, buffer size, then these).
            if op.kind == K_FREP:
                n = op.frep_n
                if n <= 0:
                    continue
                if op.index + 1 + n > n_ops:
                    op.frep_error = "frep body runs past the program end"
                    continue
                body = ops[op.index + 1:op.index + 1 + n]
                for bop in body:
                    binstr = bop.instr
                    if binstr.spec.thread is not Thread.FP \
                            or bop.kind != K_FP:
                        op.frep_error = (
                            f"non-FP instruction in frep body: "
                            f"{binstr.render()!r}"
                        )
                        break
                    if binstr.int_reads or binstr.int_writes:
                        op.frep_error = (
                            f"frep body instruction touches the integer "
                            f"RF (use SSRs / the COPIFT custom "
                            f"extension): {binstr.render()!r}"
                        )
                        break
                else:
                    op.frep_body = tuple(body)

    @classmethod
    def of(cls, program: Program) -> "DecodedProgram":
        """Decode *program*, reusing a previous decode when available.

        The cache rides on the Program instance itself, so its lifetime
        is exactly the program's; equal instructions of other programs
        share their micro-ops through the process-wide memo.
        """
        cached = program.__dict__.get("_decoded_cache")
        if cached is None:
            cached = cls(program)
            program.__dict__["_decoded_cache"] = cached
        return cached
