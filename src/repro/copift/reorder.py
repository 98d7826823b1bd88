"""COPIFT Step 3: reorder instructions by phase.

Given a Step-2 partition, emit the block's instructions as consecutive
groups of integer-only / FP-only instructions, respecting every
dependency inside each loop iteration.  Within a phase the original
program order is kept (it is a valid topological order of the phase's
subgraph, because DFG edges always point forward in program order).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..isa.program import Instruction

if TYPE_CHECKING:
    from .partition import Partition


def reorder(partition: Partition) -> list[Instruction]:
    """Return the block's instructions grouped by phase (Step 3)."""
    ordered: list[Instruction] = []
    for phase in partition.phases:
        for node in phase.nodes:
            ordered.append(partition.dfg.instructions[node])
    return ordered


def phase_slices(partition: Partition) -> list[tuple[int, int]]:
    """(start, end) index ranges of each phase in the reordered list."""
    slices = []
    position = 0
    for phase in partition.phases:
        slices.append((position, position + len(phase.nodes)))
        position += len(phase.nodes)
    return slices
