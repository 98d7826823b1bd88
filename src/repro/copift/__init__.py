"""The COPIFT methodology: analysis, planning and codegen helpers.

The seven steps of the paper's §II-A map onto this package as:

========  =======================================  =====================
Step      What it does                             Module
========  =======================================  =====================
Step 1    DFG construction + dependency typing     :mod:`.dfg`
Step 2    Phase partitioning (min-cut heuristic)   :mod:`.partition`
Step 3    Instruction reordering by phase          :mod:`.reorder`
Step 4    Loop tiling/fission + spill buffers      :mod:`.tiling`
Step 5    Software pipelining + replication        :mod:`.pipeline`,
                                                   :mod:`.tiling`
Step 6    SSR mapping + stream fusion + ISSR       :mod:`.ssr_mapping`
Step 7    FREP wrapping and loop ordering          :mod:`.frep_mapping`
Eqs. 1-3  Analytical speedup/IPC model             :mod:`.model`
========  =======================================  =====================
"""

from .._lazy import lazy_exports

# ``analyze`` and ``reorder`` name both a function and its submodule,
# so they bind eagerly (importing the submodule later would otherwise
# rebind the package attribute to the module).  The rest resolves on
# first use: the kernels import only the emitters and the model.
from .analyze import CopiftAnalysis, analyze
from .reorder import phase_slices, reorder

__getattr__, __dir__ = lazy_exports(__name__, {
    "dfg": ("DataFlowGraph", "DepKind", "Dependency", "build_dfg"),
    "frep_mapping": ("FrepBodyError", "emit_frep"),
    "model": ("InstructionMix", "KernelModel", "expected_ipc_gain",
              "expected_speedup", "expected_speedup_from_baseline"),
    "partition": ("Partition", "Phase", "partition_dfg"),
    "pipeline": ("PhaseWork", "buffer_rotation", "pipelined_schedule",
                 "steady_state_range"),
    "ssr_mapping": ("AffineStream", "IndirectStream", "SSRAssignment",
                    "assign_ssrs", "emit_indirect_base",
                    "emit_stream_base", "emit_stream_shape",
                    "fuse_streams"),
    "tiling": ("BufferSpec", "TilingPlan", "plan_from_partition"),
    "transform": ("TwoPhaseBuild", "TwoPhaseSpec", "generate_two_phase"),
})

__all__ = [
    "AffineStream",
    "CopiftAnalysis",
    "analyze",
    "BufferSpec",
    "DataFlowGraph",
    "DepKind",
    "Dependency",
    "FrepBodyError",
    "IndirectStream",
    "InstructionMix",
    "KernelModel",
    "Partition",
    "Phase",
    "PhaseWork",
    "SSRAssignment",
    "TilingPlan",
    "TwoPhaseBuild",
    "TwoPhaseSpec",
    "assign_ssrs",
    "generate_two_phase",
    "buffer_rotation",
    "build_dfg",
    "emit_frep",
    "emit_indirect_base",
    "emit_stream_base",
    "emit_stream_shape",
    "expected_ipc_gain",
    "expected_speedup",
    "expected_speedup_from_baseline",
    "fuse_streams",
    "partition_dfg",
    "phase_slices",
    "pipelined_schedule",
    "plan_from_partition",
    "reorder",
    "steady_state_range",
]
