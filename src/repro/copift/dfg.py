"""COPIFT Step 1: data-flow graph construction and dependency typing.

Builds a DFG over one loop body (a basic block of RISC-V instructions)
and classifies every dependency crossing the integer/FP thread boundary
into the paper's three types (§II-A):

* **Type 1** — dynamic memory dependencies: FP loads/stores whose address
  register is computed inside the block (loop-varying address).
* **Type 2** — static memory dependencies: FP loads/stores with a
  loop-invariant (statically determined) address, communicating with the
  integer thread through memory.
* **Type 3** — register dependencies: FP conversion, move and comparison
  instructions reading or writing the integer register file directly.

Memory disambiguation uses base-register versioning: two accesses alias
iff they use the same base register *version* (no intervening write to
the base) and the same offset.  This is exact for the paper's kernels and
examples, where inter-thread memory traffic goes through named buffers;
a ``conservative_memory`` switch treats every store→load pair as
potentially aliasing instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..isa.instructions import OpClass, Thread
from ..isa.program import Instruction
from ..isa.registers import Register


class DepKind(enum.Enum):
    """Dependency edge classification."""

    INT_REG = "int_reg"        # through an integer register (same thread)
    FP_REG = "fp_reg"          # through an FP register (same thread)
    TYPE1 = "type1"            # dynamic memory dependency (cross-thread)
    TYPE2 = "type2"            # static memory dependency (cross-thread)
    TYPE3 = "type3"            # cross-RF register dependency
    MEM = "mem"                # same-thread memory dependency


@dataclass(frozen=True)
class Dependency:
    """One DFG edge: *src* produces a value consumed by *dst*."""

    src: int
    dst: int
    kind: DepKind
    #: The register or (base, version, offset) token carrying the value.
    token: object = None

    @property
    def is_cross_thread(self) -> bool:
        return self.kind in (DepKind.TYPE1, DepKind.TYPE2, DepKind.TYPE3)


@dataclass
class DataFlowGraph:
    """DFG of one loop body.

    Attributes:
        instructions: The analysed block, in program order.
        deps: All dependency edges, each pointing forward in program
            order (``src < dst``), so program order is a topological
            order of the graph.
    """

    instructions: list[Instruction]
    deps: list[Dependency]

    def thread_of(self, node: int) -> Thread:
        return self.instructions[node].thread

    @property
    def cross_thread_deps(self) -> list[Dependency]:
        return [d for d in self.deps if d.is_cross_thread]


def _classify_reg_dep(producer: Instruction, consumer: Instruction,
                      register: Register) -> DepKind:
    if producer.thread is consumer.thread:
        if producer.thread is Thread.INT:
            return DepKind.INT_REG
        return DepKind.FP_REG
    # Cross-thread register edges.  An integer register feeding the
    # *address* of an FP load/store is a memory-addressing dependency,
    # refined to Type 1 by the caller; a value operand of a conversion /
    # move / comparison is Type 3.
    fp_side = consumer if consumer.thread is Thread.FP else producer
    if fp_side.spec.opclass in (OpClass.FP_LOAD, OpClass.FP_STORE):
        if register.cls.value == "int":
            return DepKind.TYPE1
    return DepKind.TYPE3


def build_dfg(instructions: list[Instruction],
              conservative_memory: bool = False) -> DataFlowGraph:
    """Construct the DFG of a straight-line block.

    Branches/jumps and META directives are excluded from the analysis
    (the paper analyses the loop body as a basic block); passing them in
    is allowed and they become isolated nodes.

    Args:
        instructions: Block instructions, in program order.
        conservative_memory: Treat every store as potentially aliasing
            every later load (no base-register disambiguation).
    """
    deps: list[Dependency] = []
    #: last writer index per register
    reg_writer: dict[Register, int] = {}
    #: register version (write count), for memory disambiguation
    reg_version: dict[Register, int] = {}
    #: (base, version, word_offset) -> last store index
    mem_writer: dict[tuple, int] = {}
    all_stores: list[int] = []

    _WIDE = {"fld", "fsd"}

    def mem_tokens(instr: Instruction) -> list[tuple]:
        """Word-granule alias tokens covered by a memory access.

        An 8-byte access covers two 4-byte words, so e.g. an ``fld``
        aliases both ``sw`` instructions that assembled its halves
        (the paper's 12→18 and 14→18 edges in Figure 1c).
        """
        base = instr.mem_base
        if base is None:
            return []
        width = 8 if instr.mnemonic in _WIDE else 4
        version = reg_version.get(base, 0)
        return [
            (base, version, instr.imm + word * 4)
            for word in range(width // 4)
        ]

    for i, instr in enumerate(instructions):
        opclass = instr.spec.opclass
        if opclass in (OpClass.BRANCH, OpClass.JUMP, OpClass.META,
                       OpClass.FREP):
            continue

        # Register RAW edges.
        for register in (*instr.int_reads, *instr.fp_reads):
            writer = reg_writer.get(register)
            if writer is not None:
                kind = _classify_reg_dep(instructions[writer], instr,
                                         register)
                deps.append(Dependency(writer, i, kind, register))

        # Memory RAW edges.
        if instr.spec.is_load:
            if conservative_memory:
                for store in all_stores:
                    deps.append(_mem_dep(instructions, store, i, None))
            else:
                sources = {
                    mem_writer[token]
                    for token in mem_tokens(instr)
                    if token in mem_writer
                }
                for store in sorted(sources):
                    deps.append(_mem_dep(instructions, store, i,
                                         instr.mem_base))

        if instr.spec.is_store:
            for token in mem_tokens(instr):
                mem_writer[token] = i
            all_stores.append(i)

        # Record writes last (an instruction cannot feed itself).
        for register in (*instr.int_writes, *instr.fp_writes):
            reg_writer[register] = i
            reg_version[register] = reg_version.get(register, 0) + 1

    return DataFlowGraph(list(instructions), deps)


def _address_is_dynamic(instructions: list[Instruction],
                        node: int) -> bool:
    """True when the memory instruction's base register is written
    anywhere inside the block (loop-varying address → Type 1)."""
    base = instructions[node].mem_base
    if base is None:
        return False
    return any(
        base in other.int_writes
        for j, other in enumerate(instructions) if j != node
    )


def _mem_dep(instructions: list[Instruction], src: int, dst: int,
             token: tuple | None) -> Dependency:
    producer = instructions[src]
    consumer = instructions[dst]
    if producer.thread is consumer.thread:
        return Dependency(src, dst, DepKind.MEM, token)
    fp_node = src if producer.thread is Thread.FP else dst
    if _address_is_dynamic(instructions, fp_node):
        return Dependency(src, dst, DepKind.TYPE1, token)
    return Dependency(src, dst, DepKind.TYPE2, token)
