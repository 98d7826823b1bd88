"""One-shot COPIFT analysis: assembly in, transformation plan out.

:func:`analyze` runs Steps 1-5 of the methodology over a loop body
(given as assembly text or a :class:`~repro.isa.program.Program`) and
returns everything a developer needs before writing the transformed
kernel: the typed cross-thread dependencies, the phase partition, the
buffer/replication plan, the maximum block size, and the Eqs. 1-3
estimates.  This is the programmatic form of the walkthrough in
``examples/custom_kernel_copift.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..isa.asm import parse
from ..isa.instructions import Thread
from ..isa.program import Program
from .dfg import DataFlowGraph, DepKind, build_dfg
from .model import InstructionMix, expected_speedup_from_baseline

if TYPE_CHECKING:
    from .partition import Partition
    from .tiling import TilingPlan


@dataclass(frozen=True)
class CopiftAnalysis:
    """Everything Steps 1-5 derive from one loop body."""

    program: Program
    dfg: DataFlowGraph
    partition: Partition
    plan: TilingPlan
    baseline_mix: InstructionMix

    @property
    def n_phases(self) -> int:
        return len(self.partition.phases)

    @property
    def cross_dependency_counts(self) -> dict[DepKind, int]:
        """How many Type 1/2/3 dependencies the block contains."""
        counts = {DepKind.TYPE1: 0, DepKind.TYPE2: 0, DepKind.TYPE3: 0}
        for dep in self.dfg.cross_thread_deps:
            counts[dep.kind] += 1
        return counts

    @property
    def expected_speedup(self) -> float:
        """S'' (Eq. 3) from the baseline mix alone."""
        return expected_speedup_from_baseline(self.baseline_mix)

    @property
    def needs_issr(self) -> bool:
        """True when Type 1 dependencies exist: map them to ISSRs or
        convert to Type 2 by integer-side prefetching (paper Fig. 1h)."""
        return self.cross_dependency_counts[DepKind.TYPE1] > 0

    @property
    def needs_custom_extension(self) -> bool:
        """True when Type 3 dependencies exist: the FREP body will need
        the custom-1 re-encodings (paper §II-B)."""
        return self.cross_dependency_counts[DepKind.TYPE3] > 0

    def max_block(self, l1_budget: int = 16 * 1024,
                  multiple_of: int = 4) -> int:
        return self.plan.max_block(l1_budget, multiple_of=multiple_of)

    def summary(self) -> str:
        """Human-readable digest of the analysis."""
        counts = self.cross_dependency_counts
        mix = self.baseline_mix
        lines = [
            f"block: {len(self.dfg.instructions)} instructions "
            f"({mix.n_int} int, {mix.n_fp} fp, TI "
            f"{mix.thread_imbalance:.2f})",
            f"cross-thread deps: {counts[DepKind.TYPE1]} type-1, "
            f"{counts[DepKind.TYPE2]} type-2, "
            f"{counts[DepKind.TYPE3]} type-3",
            f"phases: {self.n_phases} "
            f"({', '.join(p.thread.value for p in self.partition.phases)})"
            f", {self.partition.n_cut_edges} cut edges",
            f"buffers: {self.plan.buffers_step4} "
            f"(-> {self.plan.buffers_step5} after replication)",
            f"expected speedup S'': {self.expected_speedup:.2f}x",
        ]
        if self.needs_issr:
            lines.append("note: type-1 deps -> use ISSRs or prefetch")
        if self.needs_custom_extension:
            lines.append("note: type-3 deps -> use the custom-1 "
                         "extension in FREP bodies")
        return "\n".join(lines)


def analyze(source: str | Program,
            input_buffers: dict[str, int] | None = None,
            output_buffers: dict[str, int] | None = None) -> CopiftAnalysis:
    """Run COPIFT Steps 1-5 over a loop body.

    Args:
        source: Assembly text or an already-built program (one basic
            block; control flow is ignored, as in the paper's analysis).
        input_buffers: name -> element bytes of DMA-staged inputs.
        output_buffers: name -> element bytes of outputs.
    """
    # Steps 2-5 load here, not at import: ``repro.copift`` binds this
    # function eagerly, and the kernels never run the analysis.
    from .partition import partition_dfg
    from .tiling import plan_from_partition

    program = parse(source) if isinstance(source, str) else source
    dfg = build_dfg(program.instructions)
    partition = partition_dfg(dfg)
    plan = plan_from_partition(
        partition,
        input_buffers=input_buffers,
        output_buffers=output_buffers,
    )
    counts = program.count_by_thread()
    mix = InstructionMix(counts[Thread.INT], counts[Thread.FP])
    return CopiftAnalysis(program, dfg, partition, plan, mix)
