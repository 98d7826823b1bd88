"""Program representation: instructions, labels and the builder DSL.

An :class:`Instruction` binds an :class:`~repro.isa.instructions.InstrSpec`
to concrete operands and precomputes the register read/write sets the
simulator and the COPIFT data-flow analysis need, so the per-instruction
hot path does no string processing.

:class:`ProgramBuilder` is the assembler DSL the kernel generators use::

    b = ProgramBuilder()
    b.label("loop")
    b.fld("fa3", 0, "a3")
    b.fmul_d("fa3", "fa3", "fa4")
    b.addi("a3", "a3", 8)
    b.bne("a3", "a1", "loop")
    program = b.build()

Mnemonic methods are derived from the ISA spec table (``.`` becomes ``_``),
with :meth:`ProgramBuilder.emit` as the explicit underlying entry point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .instructions import InstrSpec, OpClass, SPECS, Thread, spec as get_spec
from .registers import Register, fp_reg, int_reg


@dataclass(frozen=True)
class Instruction:
    """One assembled instruction with resolved operands.

    Operand values are stored aligned with ``spec.roles``:  register roles
    hold :class:`Register`, ``imm`` holds ``int`` and ``label`` holds
    ``str``.
    """

    spec: InstrSpec
    operands: tuple

    # Precomputed accessors (derived in __post_init__, cached as object
    # attributes despite the frozen dataclass, via object.__setattr__).
    int_reads: tuple[Register, ...] = field(init=False, repr=False)
    int_writes: tuple[Register, ...] = field(init=False, repr=False)
    fp_reads: tuple[Register, ...] = field(init=False, repr=False)
    fp_writes: tuple[Register, ...] = field(init=False, repr=False)
    imm: int | None = field(init=False, repr=False)
    label: str | None = field(init=False, repr=False)
    mem_base: Register | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        int_reads: list[Register] = []
        int_writes: list[Register] = []
        fp_reads: list[Register] = []
        fp_writes: list[Register] = []
        imm: int | None = None
        label: str | None = None
        mem_base: Register | None = None
        for role, value in zip(self.spec.roles, self.operands):
            if role == "imm":
                imm = value
            elif role == "label":
                label = value
            elif role == "rd":
                if not value.is_zero:
                    int_writes.append(value)
            elif role.startswith("rs"):
                if not value.is_zero:
                    int_reads.append(value)
                if role == self.spec.mem_base_role:
                    mem_base = value
            elif role == "frd":
                fp_writes.append(value)
            elif role.startswith("frs"):
                fp_reads.append(value)
            else:  # pragma: no cover - guarded by spec construction
                raise ValueError(f"unknown operand role {role!r}")
        object.__setattr__(self, "int_reads", tuple(int_reads))
        object.__setattr__(self, "int_writes", tuple(int_writes))
        object.__setattr__(self, "fp_reads", tuple(fp_reads))
        object.__setattr__(self, "fp_writes", tuple(fp_writes))
        object.__setattr__(self, "imm", imm)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "mem_base", mem_base)

    @property
    def mnemonic(self) -> str:
        return self.spec.mnemonic

    @property
    def thread(self) -> Thread:
        return self.spec.thread

    @property
    def reads(self) -> tuple[Register, ...]:
        return self.int_reads + self.fp_reads

    @property
    def writes(self) -> tuple[Register, ...]:
        return self.int_writes + self.fp_writes

    def operand(self, role: str):
        """Return the operand bound to *role*.

        Raises:
            KeyError: if the spec has no such role.
        """
        for r, value in zip(self.spec.roles, self.operands):
            if r == role:
                return value
        raise KeyError(f"{self.mnemonic} has no operand role {role!r}")

    def render(self) -> str:
        """Render to assembly text (inverse of :func:`repro.isa.asm.parse`)."""
        spec = self.spec
        if not spec.roles:
            return spec.mnemonic
        if spec.mem_base_role is not None:
            # Memory format: op reg, imm(base)[, extra...] — the extra
            # tail covers AMO-style value operands (amoadd.w).
            reg_role = spec.roles[0]
            reg = self.operand(reg_role)
            text = f"{spec.mnemonic} {reg}, {self.imm}({self.mem_base})"
            extras = [
                str(value)
                for role, value in zip(spec.roles[1:], self.operands[1:])
                if role not in ("imm", spec.mem_base_role)
            ]
            if extras:
                text += ", " + ", ".join(extras)
            return text
        parts = []
        for role, value in zip(spec.roles, self.operands):
            parts.append(str(value))
        return f"{spec.mnemonic} " + ", ".join(parts)

    def __str__(self) -> str:
        return self.render()


@functools.lru_cache(maxsize=4096, typed=True)
def make_instruction(mnemonic: str, *operands) -> Instruction:
    """Build an :class:`Instruction`, validating operand kinds.

    Register operands may be given as names or :class:`Register` objects.
    Equal calls share one instruction: instructions are immutable
    values, and kernels emit the same ones for every seed, size and
    core, so building each once per process saves most of a program
    build.
    """
    spec = get_spec(mnemonic)
    if len(operands) != len(spec.roles):
        raise ValueError(
            f"{mnemonic} expects {len(spec.roles)} operands "
            f"{spec.roles}, got {len(operands)}"
        )
    resolved = []
    for role, value in zip(spec.roles, operands):
        if role == "imm":
            if not isinstance(value, int):
                raise TypeError(f"{mnemonic}: imm must be int, got {value!r}")
            resolved.append(value)
        elif role == "label":
            if not isinstance(value, str):
                raise TypeError(
                    f"{mnemonic}: label must be str, got {value!r}"
                )
            resolved.append(value)
        elif role in ("rd", "rs1", "rs2", "rs3"):
            resolved.append(int_reg(value))
        elif role in ("frd", "frs1", "frs2", "frs3"):
            resolved.append(fp_reg(value))
        else:  # pragma: no cover
            raise ValueError(f"unknown role {role!r}")
    return Instruction(spec, tuple(resolved))


@dataclass
class Program:
    """A sequence of instructions with resolved label positions.

    Attributes:
        instructions: The instruction sequence.
        labels: Mapping from label name to instruction index (the index of
            the instruction the label precedes; may equal
            ``len(instructions)`` for an end label).
        name: Optional program name for reports.
    """

    instructions: list[Instruction]
    labels: dict[str, int]
    name: str = ""

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def target(self, label: str) -> int:
        """Instruction index a label resolves to."""
        try:
            return self.labels[label]
        except KeyError:
            raise KeyError(f"undefined label: {label!r}") from None

    def render(self) -> str:
        """Render the whole program as assembly text."""
        by_index: dict[int, list[str]] = {}
        for label, index in self.labels.items():
            by_index.setdefault(index, []).append(label)
        lines: list[str] = []
        for i, instr in enumerate(self.instructions):
            for label in sorted(by_index.get(i, [])):
                lines.append(f"{label}:")
            lines.append(f"    {instr.render()}")
        for label in sorted(by_index.get(len(self.instructions), [])):
            lines.append(f"{label}:")
        return "\n".join(lines)

    def count_by_thread(self) -> dict[Thread, int]:
        """Static instruction count per issue thread (META excluded)."""
        counts = {Thread.INT: 0, Thread.FP: 0}
        for instr in self.instructions:
            if instr.spec.opclass is OpClass.META:
                continue
            counts[instr.thread] += 1
        return counts


class ProgramBuilder:
    """Incremental program construction with label support.

    Besides :meth:`emit`, every mnemonic in the ISA table is available as a
    method (``.`` replaced by ``_``): ``b.fadd_d("fa0", "fa1", "fa2")``.
    """

    def __init__(self, name: str = "") -> None:
        self._instructions: list[Instruction] = []
        self._labels: dict[str, int] = {}
        self._name = name
        self._auto_label = 0

    def emit(self, mnemonic: str, *operands) -> Instruction:
        """Append one instruction and return it."""
        instr = make_instruction(mnemonic, *operands)
        self._instructions.append(instr)
        return instr

    def append(self, instr: Instruction) -> Instruction:
        """Append an already-built instruction."""
        self._instructions.append(instr)
        return instr

    def extend(self, instrs: Iterable[Instruction]) -> None:
        for instr in instrs:
            self._instructions.append(instr)

    def label(self, name: str) -> str:
        """Define *name* at the current position and return it."""
        if name in self._labels:
            raise ValueError(f"label {name!r} defined twice")
        self._labels[name] = len(self._instructions)
        return name

    def fresh_label(self, stem: str = "L") -> str:
        """Return a unique label name (not yet placed)."""
        self._auto_label += 1
        return f"{stem}_{self._auto_label}"

    @property
    def position(self) -> int:
        """Index the next instruction will occupy."""
        return len(self._instructions)

    def build(self) -> Program:
        """Finalize into a :class:`Program`, checking label references."""
        program = Program(
            list(self._instructions), dict(self._labels), self._name
        )
        for instr in program.instructions:
            if instr.label is not None and instr.spec.opclass in (
                OpClass.BRANCH,
                OpClass.JUMP,
            ):
                if instr.label not in program.labels:
                    raise ValueError(
                        f"undefined label {instr.label!r} in "
                        f"'{instr.render()}'"
                    )
        return program

    def __getattr__(self, name: str):
        mnemonic = name.replace("_", ".")
        if mnemonic in SPECS:
            def emitter(*operands, _m=mnemonic):
                return self.emit(_m, *operands)
            return emitter
        if name in SPECS:  # mnemonics without dots (add, lw, ...)
            def emitter(*operands, _m=name):
                return self.emit(_m, *operands)
            return emitter
        raise AttributeError(
            f"{type(self).__name__!s} has no attribute or mnemonic {name!r}"
        )
