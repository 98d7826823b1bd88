"""Table I regeneration: kernel characteristics and model expectations.

For each kernel we measure the dynamic instruction mix of the main
region (normalized to the paper's 4-element loop iterations), derive
the analytical columns (TI, I′, S″, S′ — Eqs. 1-3) and the maximum
block size from the buffer plan, and print them next to the paper's
values.  Measurements flow through the unified experiment API: one
:class:`~repro.api.Sweep` of every kernel pair on the ``core`` backend.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from ..api import (
    ArtifactRequest,
    ArtifactResult,
    CoreBackend,
    RunRecord,
    Sweep,
    Workload,
    artifact,
)
from ..copift.model import InstructionMix, KernelModel
from ..kernels.registry import KERNELS, KernelDef
from ..sim import CoreConfig

#: Scratchpad budget for COPIFT buffers, matching the scale implied by
#: the paper's Max-Block column (341 blocks × 6 buffers × 8 B ≈ 16 KiB).
L1_BUFFER_BUDGET = 16 * 1024

#: Largest problem size the instruction-mix measurement needs; beyond
#: this the normalized per-iteration counts are already converged, so
#: the CLI clamps (with a warning) instead of burning simulation time.
MAX_MEASURE_N = 2048

#: Bytes of rotated buffer arena per block element for each kernel
#: (from the kernels' column layouts; see each kernel module).
ARENA_BYTES_PER_ELEMENT = {
    "expf": 3 * 4 * 8,            # 3 columns x [ki|w|y|t]
    "logf": 2 * 3 * 8,            # 2 columns x [z|ki|idx]
    "pi_lcg": 2 * 16,             # 2 columns x (x,y) pairs
    "poly_lcg": 2 * 16,
    "pi_xoshiro128p": 2 * 16,
    "poly_xoshiro128p": 2 * 16,
}


@dataclass(frozen=True)
class Table1Row:
    """Measured + derived Table-I row, with the paper's row alongside."""

    measured: KernelModel
    paper: KernelModel

    @property
    def name(self) -> str:
        return self.measured.name


def model_from_records(kernel_def: KernelDef, baseline: RunRecord,
                       copift: RunRecord, n: int) -> KernelModel:
    """Derive the measured Table-I row from one kernel's run records."""
    unroll = 4

    def mix(record: RunRecord) -> InstructionMix:
        return InstructionMix(
            round(record.int_instructions * unroll / n),
            round(record.fp_instructions * unroll / n),
        )

    per_element = ARENA_BYTES_PER_ELEMENT[kernel_def.name]
    max_block = (L1_BUFFER_BUDGET // per_element) & ~3
    return KernelModel(
        name=kernel_def.name,
        base=mix(baseline),
        copift=mix(copift),
        max_block=max_block,
    )


def generate(n: int = 2048,
             config: CoreConfig | None = None) -> list[Table1Row]:
    """All Table-I rows, in the paper's order."""
    workloads = [Workload(name, variant, n=n)
                 for name in KERNELS
                 for variant in ("baseline", "copift")]
    sweep = Sweep(workloads, backends=(CoreBackend(config=config),))
    records = iter(sweep.run())
    rows = []
    for kernel_def in KERNELS.values():
        baseline, copift = next(records), next(records)
        rows.append(Table1Row(
            measured=model_from_records(kernel_def, baseline, copift, n),
            paper=kernel_def.paper_model(),
        ))
    return rows


def render(rows: list[Table1Row]) -> str:
    """Text rendering, ours vs the paper's values."""
    header = (
        f"{'Kernel':<18} {'#Int':>9} {'#FP':>9} {'TI':>11} "
        f"{'CP#Int':>11} {'CP#FP':>11} {'I_':>11} {'S__':>11} "
        f"{'S_':>11} {'MaxBlk':>13}"
    )
    lines = ["Table I: kernel characteristics (measured | paper)",
             header, "-" * len(header)]

    def pair(mine, theirs, fmt="{:.0f}") -> str:
        return f"{fmt.format(mine)}|{fmt.format(theirs)}"

    for row in rows:
        m, p = row.measured, row.paper
        lines.append(
            f"{row.name:<18} "
            f"{pair(m.base.n_int, p.base.n_int):>9} "
            f"{pair(m.base.n_fp, p.base.n_fp):>9} "
            f"{pair(m.thread_imbalance, p.thread_imbalance, '{:.2f}'):>11} "
            f"{pair(m.copift.n_int, p.copift.n_int):>11} "
            f"{pair(m.copift.n_fp, p.copift.n_fp):>11} "
            f"{pair(m.i_prime, p.i_prime, '{:.2f}'):>11} "
            f"{pair(m.s_double_prime, p.s_double_prime, '{:.2f}'):>11} "
            f"{pair(m.s_prime, p.s_prime, '{:.2f}'):>11} "
            f"{pair(m.max_block, p.max_block):>13}"
        )
    return "\n".join(lines)


def table1_payload(rows: list[Table1Row]) -> dict:
    def mix(model) -> dict:
        return {
            "n_int": model.base.n_int, "n_fp": model.base.n_fp,
            "copift_n_int": model.copift.n_int,
            "copift_n_fp": model.copift.n_fp,
            "thread_imbalance": model.thread_imbalance,
            "i_prime": model.i_prime,
            "s_double_prime": model.s_double_prime,
            "s_prime": model.s_prime,
            "max_block": model.max_block,
        }

    return {"rows": [
        {"kernel": row.name, "measured": mix(row.measured),
         "paper": mix(row.paper)}
        for row in rows
    ]}


def clamp_n(n: int) -> int:
    """Clamp an explicitly requested size to :data:`MAX_MEASURE_N`,
    loudly.

    The per-iteration instruction mix is converged well before
    n = 2048; larger sizes only cost simulation time.  The clamp used
    to be silent — now it warns on stderr and the payload carries the
    effective size.  (Default runs use ``MAX_MEASURE_N`` directly and
    never warn.)
    """
    if n > MAX_MEASURE_N:
        print(
            f"table1: clamping n={n} to {MAX_MEASURE_N} (instruction "
            f"mixes are converged; larger n only adds runtime)",
            file=sys.stderr,
        )
        return MAX_MEASURE_N
    return n


def observe_table1(request: ArtifactRequest) -> tuple:
    """Representative cell for ``--trace``/``--profile``: expf/copift
    at the table's measurement size on a bare core."""
    n = clamp_n(request.n) if request.n is not None else MAX_MEASURE_N
    return Workload("expf", "copift", n=n), CoreBackend()


@artifact("table1", order=10, reads=("n",),
          help="Table I kernel characteristics (mixes, TI, I', S')",
          observe=observe_table1)
def table1_artifact(request: ArtifactRequest) -> ArtifactResult:
    n = clamp_n(request.n) if request.n is not None else MAX_MEASURE_N
    rows = generate(n=n)
    payload = {"n": n, **table1_payload(rows)}
    return ArtifactResult("table1", render(rows), payload)
