"""COPIFT Step 2: partition the DFG into ordered single-thread phases.

The goal (paper §II-A): split the loop body into subgraphs ("phases")
such that

* every phase contains instructions of a single thread (integer or FP),
* an acyclic precedence relation exists among phases — i.e. every DFG
  edge goes from a phase to the same or a later phase,
* the number of edges *between* phases is minimized (each cut edge
  becomes a value spilled to a memory buffer in Step 4).

Finding the minimum cut under these constraints is NP-hard in general;
like the paper (which partitions by hand), we use an exact-enough
heuristic: ASAP/ALAP phase ranges from alternation depth, followed by
greedy hill-climbing on cut count.  On the paper's Figure 1 expf block it
recovers the published 3-phase partition with 4 cut edges (verified in
tests).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.instructions import OpClass, Thread
from .dfg import DataFlowGraph, Dependency


@dataclass
class Phase:
    """One partition subgraph: a set of same-thread instructions."""

    index: int
    thread: Thread
    nodes: list[int]


@dataclass
class Partition:
    """Result of Step 2.

    Attributes:
        phases: Ordered phases; edges only go to equal-or-later phases.
        phase_of: node index -> phase index.
        cut_edges: DFG edges crossing phase boundaries (future spills).
    """

    dfg: DataFlowGraph
    phases: list[Phase]
    phase_of: dict[int, int]
    cut_edges: list[Dependency]

    @property
    def n_cut_edges(self) -> int:
        return len(self.cut_edges)

    def validate(self) -> None:
        """Check the partition invariants; raise ValueError on violation."""
        for phase in self.phases:
            for node in phase.nodes:
                if self.dfg.thread_of(node) is not phase.thread:
                    raise ValueError(
                        f"node {node} of thread "
                        f"{self.dfg.thread_of(node)} in "
                        f"{phase.thread} phase {phase.index}"
                    )
        for dep in self.dfg.deps:
            if self.phase_of[dep.src] > self.phase_of[dep.dst]:
                raise ValueError(
                    f"edge {dep.src}->{dep.dst} goes backwards "
                    f"({self.phase_of[dep.src]} -> "
                    f"{self.phase_of[dep.dst]})"
                )


def _thread_for_parity(phase0: Thread, index: int) -> Thread:
    if index % 2 == 0:
        return phase0
    return Thread.FP if phase0 is Thread.INT else Thread.INT


def _partition_with_parity(dfg: DataFlowGraph,
                           phase0: Thread,
                           analysable: list[int],
                           sweeps: int) -> Partition | None:
    """Partition with phase 0 fixed to *phase0*'s thread type."""
    threads = {i: dfg.thread_of(i) for i in analysable}
    preds: dict[int, list[int]] = {i: [] for i in analysable}
    succs: dict[int, list[int]] = {i: [] for i in analysable}
    for dep in dfg.deps:
        preds[dep.dst].append(dep.src)
        succs[dep.src].append(dep.dst)

    def parity_floor(level: int, thread: Thread) -> int:
        """Smallest phase ≥ level whose parity matches *thread*."""
        if _thread_for_parity(phase0, level) is thread:
            return level
        return level + 1

    # ASAP pass (analysable is already in topological/program order).
    asap: dict[int, int] = {}
    for i in analysable:
        level = 0
        for p in preds[i]:
            step = 0 if threads[p] is threads[i] else 1
            level = max(level, asap[p] + step)
        asap[i] = parity_floor(level, threads[i])

    n_phases = max(asap.values(), default=0) + 1

    # ALAP pass.
    alap: dict[int, int] = {}
    for i in reversed(analysable):
        level = n_phases - 1
        for s in succs[i]:
            step = 0 if threads[s] is threads[i] else 1
            level = min(level, alap[s] - step)
        # Largest phase ≤ level with the right parity.
        if _thread_for_parity(phase0, level) is not threads[i]:
            level -= 1
        if level < asap[i]:
            return None  # parity infeasible for this phase0 choice
        alap[i] = level

    assignment = dict(asap)

    def cut_cost(node: int, phase: int) -> int:
        cost = 0
        for p in preds[node]:
            if assignment[p] != phase:
                cost += 1
        for s in succs[node]:
            if assignment[s] != phase:
                cost += 1
        return cost

    # Greedy improvement sweeps: slide each node within its feasible
    # window to the position minimizing incident cut edges.
    for _ in range(sweeps):
        changed = False
        for i in analysable:
            lo = asap[i]
            hi = alap[i]
            for p in preds[i]:
                step = 0 if threads[p] is threads[i] else 1
                lo = max(lo, assignment[p] + step)
            for s in succs[i]:
                step = 0 if threads[s] is threads[i] else 1
                hi = min(hi, assignment[s] - step)
            best = assignment[i]
            best_cost = cut_cost(i, best)
            for candidate in range(lo, hi + 1):
                if _thread_for_parity(phase0, candidate) \
                        is not threads[i]:
                    continue
                cost = cut_cost(i, candidate)
                if cost < best_cost or (cost == best_cost
                                        and candidate < best):
                    best, best_cost = candidate, cost
            if best != assignment[i]:
                assignment[i] = best
                changed = True
        if not changed:
            break

    # Compact away empty phases while keeping relative order and
    # alternation (an empty middle phase collapses its neighbours only
    # if they have different threads... they cannot: parity guarantees
    # alternation, so an empty phase means its neighbours share a
    # boundary of opposite threads and renumbering is safe only at the
    # ends).  We renumber defensively and rebuild threads per phase.
    used = sorted(set(assignment.values()))
    renumber = {old: new for new, old in enumerate(used)}
    phase_of = {i: renumber[assignment[i]] for i in analysable}

    phases: list[Phase] = []
    for new_index, old_index in enumerate(used):
        nodes = sorted(i for i in analysable
                       if assignment[i] == old_index)
        phases.append(Phase(new_index,
                            _thread_for_parity(phase0, old_index),
                            nodes))
    cut_edges = [d for d in dfg.deps
                 if phase_of[d.src] != phase_of[d.dst]]
    result = Partition(dfg, phases, phase_of, cut_edges)
    result.validate()
    return result


def partition_dfg(dfg: DataFlowGraph,
                  phase0_thread: Thread | None = None,
                  sweeps: int = 4) -> Partition:
    """Partition *dfg* into ordered single-thread phases (Step 2).

    Args:
        dfg: The Step-1 data-flow graph.
        phase0_thread: Force the thread type of the first phase; by
            default both options are tried and the better partition
            (fewer phases, then fewer cut edges) is returned.
        sweeps: Hill-climbing improvement sweeps.
    """
    # Exclude control-flow/meta nodes that carry no dependencies and no
    # thread-specific work (they were skipped by the DFG builder).
    analysable = [
        i for i in range(len(dfg.instructions))
        if dfg.instructions[i].spec.opclass not in (
            OpClass.BRANCH, OpClass.JUMP, OpClass.META, OpClass.FREP)
    ]

    candidates = []
    options = ([phase0_thread] if phase0_thread is not None
               else [Thread.FP, Thread.INT])
    for option in options:
        result = _partition_with_parity(dfg, option, analysable, sweeps)
        if result is not None:
            candidates.append(result)
    if not candidates:
        raise ValueError("no feasible phase partition found")
    return min(candidates,
               key=lambda r: (len(r.phases), r.n_cut_edges))
