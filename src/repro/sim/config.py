"""Microarchitectural configuration of the simulated Snitch-like core.

All timing parameters live here so experiments (and ablations) can vary
them without touching the model.  Defaults approximate the Snitch cluster
evaluated in the paper: a single-issue in-order RV32 integer core with a
shared-writeback-port register file, an FP subsystem (FPSS) with its own
issue port fed by a small dispatch queue, a 16-entry FREP sequencer buffer,
three SSR data movers, and a 64-entry L0 instruction loop buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.instructions import OpClass

#: Default result latencies (issue → writeback) per operation class,
#: in cycles.  Integer ALU results forward in 1 cycle; the shared muldiv
#: unit takes 3, which is what makes multiply-heavy PRNGs (LCG) collide
#: with ALU writebacks on the single integer-RF write port (paper §III-A).
DEFAULT_LATENCIES: dict[OpClass, int] = {
    OpClass.ALU: 1,
    OpClass.MUL: 3,
    OpClass.LOAD: 2,
    OpClass.STORE: 1,
    OpClass.BRANCH: 1,
    OpClass.JUMP: 1,
    OpClass.CSR: 1,
    OpClass.FP_ADD: 1,
    OpClass.FP_MUL: 1,
    OpClass.FP_FMA: 3,
    OpClass.FP_DIV: 14,
    OpClass.FP_CMP: 1,
    OpClass.FP_CVT: 1,
    OpClass.FP_MV: 1,
    OpClass.FP_LOAD: 2,
    OpClass.FP_STORE: 1,
    OpClass.FREP: 1,
    OpClass.META: 0,
}


@dataclass
class CoreConfig:
    """Tunable microarchitecture parameters.

    Attributes:
        latencies: Result latency per operation class.
        fpss_queue_depth: Core→FPSS dispatch FIFO depth.  Backpressure on
            this queue is what bounds the skew between the integer and FP
            threads.
        frep_buffer_size: Maximum FREP loop body length, in instructions.
        taken_branch_penalty: Extra cycles after a taken branch.
        int_wb_ports: Write ports into the integer RF.  1 reproduces the
            paper's structural-hazard stalls on multiply-heavy code;
            ablations can raise it.
        fp_wb_ports: Write ports into the FP RF.
        ssr_count: Number of SSR data movers.
        ssr_fill_latency: Cycles from stream configuration to first
            element available (prefetch pipeline depth).
        ssr_index_width: Bytes per index element in ISSR mode.
        l0_icache_entries: L0 loop-buffer capacity in instructions.
        fp_response_latency: Extra cycles for an FPSS result to travel
            back to the integer RF (cross-RF writes such as ``flt.d``).
        model_int_wb_hazard: Enable the integer writeback-port structural
            hazard (ablation switch, paper §III-A).
        model_l0_icache: Enable the L0 loop-buffer model (ablation switch,
            paper §III-B).

    Construction raises :class:`ValueError` naming the field for a
    negative latency or a depth, port count or buffer size below 1.
    """

    latencies: dict[OpClass, int] = field(
        default_factory=lambda: dict(DEFAULT_LATENCIES)
    )
    fpss_queue_depth: int = 8
    frep_buffer_size: int = 16
    taken_branch_penalty: int = 1
    int_wb_ports: int = 1
    fp_wb_ports: int = 1
    ssr_count: int = 3
    ssr_fill_latency: int = 3
    ssr_index_width: int = 4
    l0_icache_entries: int = 64
    fp_response_latency: int = 1
    model_int_wb_hazard: bool = True
    model_l0_icache: bool = True

    def __post_init__(self) -> None:
        for opclass, latency in self.latencies.items():
            if latency < 0:
                raise ValueError(f"latencies[{opclass.name}] must be >= 0, "
                                 f"got {latency}")
        for name in ("fpss_queue_depth", "int_wb_ports", "fp_wb_ports",
                     "frep_buffer_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, "
                                 f"got {getattr(self, name)}")

    def latency(self, opclass: OpClass) -> int:
        return self.latencies[opclass]
