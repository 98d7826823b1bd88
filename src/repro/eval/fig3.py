"""Figure 3 regeneration: poly_lcg IPC across problem and block sizes.

The paper sweeps the ``poly_lcg`` kernel over problem sizes
768..98304 and block sizes 32..256, showing that

* IPC rises with problem size (prologue/epilogue amortization),
* each block size has a problem size reaching >99.5 % of its own
  asymptotic IPC (smaller blocks converge at smaller problems),
* for each problem size there is an optimal ("peak") block size, and
  the peak shifts toward larger blocks as the problem grows (small
  blocks cannot amortize per-block SSR/buffer-switch overheads).

The default sweep uses the paper's block sizes but scales problem sizes
down 4x (Python cycle simulation is ~10^4 slower than QuestaSim on RTL
farm hardware; the convergence behaviour is already fully visible).
Pass ``full=True`` for the paper's exact grid.  The grid is one
:class:`~repro.api.Sweep`, so ``jobs > 1`` shards cells over host
processes with bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api import (
    ArtifactRequest,
    ArtifactResult,
    CoreBackend,
    Sweep,
    Workload,
    artifact,
)
from ..sim import CoreConfig

#: The paper's sweep grid.
PAPER_BLOCK_SIZES = (32, 48, 64, 96, 128, 192, 256)
PAPER_PROBLEM_SIZES = (768, 1536, 3072, 6144, 12288, 24576, 49152, 98304)

#: Default (scaled-down) grid: same blocks, 4x smaller problems.
DEFAULT_BLOCK_SIZES = PAPER_BLOCK_SIZES
DEFAULT_PROBLEM_SIZES = (768, 1536, 3072, 6144, 12288, 24576)


def _round_to_multiple(n: int, block: int) -> int:
    """Smallest multiple of *block* that is >= n and >= 2 blocks."""
    blocks = max(2, -(-n // block))
    return blocks * block


@dataclass
class Fig3Data:
    """IPC grid with the paper's two annotation families."""

    block_sizes: tuple[int, ...]
    problem_sizes: tuple[int, ...]
    #: ipc[problem][block]
    ipc: dict[int, dict[int, float]]

    def max_ipc_for_block(self, block: int) -> float:
        return max(self.ipc[n][block] for n in self.problem_sizes)

    def converged_problem(self, block: int,
                          fraction: float = 0.995) -> int | None:
        """Smallest problem reaching *fraction* of the block's max IPC
        (the paper's ">99.5%" annotations)."""
        ceiling = self.max_ipc_for_block(block)
        for n in self.problem_sizes:
            if self.ipc[n][block] >= fraction * ceiling:
                return n
        return None

    def peak_block(self, problem: int) -> int:
        """Best block size for a problem size (the "peak" annotations)."""
        row = self.ipc[problem]
        return max(row, key=row.get)


def generate(block_sizes: tuple[int, ...] = DEFAULT_BLOCK_SIZES,
             problem_sizes: tuple[int, ...] = DEFAULT_PROBLEM_SIZES,
             kernel_name: str = "poly_lcg",
             config: CoreConfig | None = None,
             full: bool = False, jobs: int = 1) -> Fig3Data:
    """Run the block/problem-size sweep.

    With ``jobs > 1`` the grid cells are sharded over host processes
    (each cell is one independent simulation); the grid is assembled in
    sweep order and identical to a sequential run.
    """
    if full:
        block_sizes = PAPER_BLOCK_SIZES
        problem_sizes = PAPER_PROBLEM_SIZES
    workloads = [
        Workload(kernel_name, "copift",
                 n=_round_to_multiple(n, block), block=block)
        for n in problem_sizes
        for block in block_sizes
    ]
    sweep = Sweep(workloads, backends=(CoreBackend(config=config),))
    measured = iter(sweep.run(jobs=jobs))
    ipc: dict[int, dict[int, float]] = {}
    for n in problem_sizes:
        ipc[n] = {}
        for block in block_sizes:
            ipc[n][block] = next(measured).ipc
    return Fig3Data(tuple(block_sizes), tuple(problem_sizes), ipc)


def render(data: Fig3Data) -> str:
    lines = ["Figure 3: poly_lcg IPC vs problem size x block size"]
    label = "N/B"
    header = f"{label:>8} " + "".join(
        f"{b:>8}" for b in data.block_sizes
    )
    lines += [header, "-" * len(header)]
    for n in data.problem_sizes:
        peak = data.peak_block(n)
        cells = []
        for b in data.block_sizes:
            marker = "*" if b == peak else " "
            cells.append(f"{data.ipc[n][b]:7.3f}{marker}")
        lines.append(f"{n:>8} " + "".join(cells))
    lines.append("(* = peak block size for that problem size)")
    lines.append("")
    lines.append(">99.5%-of-max problem size per block size:")
    for b in data.block_sizes:
        lines.append(f"  B={b:<4} -> N={data.converged_problem(b)}")
    return "\n".join(lines)


def fig3_payload(data: Fig3Data) -> dict:
    return {
        "block_sizes": list(data.block_sizes),
        "problem_sizes": list(data.problem_sizes),
        "ipc": {str(n): {str(b): data.ipc[n][b]
                         for b in data.block_sizes}
                for n in data.problem_sizes},
        "peak_block": {str(n): data.peak_block(n)
                       for n in data.problem_sizes},
        "converged_problem": {str(b): data.converged_problem(b)
                              for b in data.block_sizes},
    }


def observe_fig3(request: ArtifactRequest) -> tuple:
    """Representative cell for ``--trace``/``--profile``: the grid's
    centre — poly_lcg/copift at block 64, mid-range problem size."""
    return (Workload("poly_lcg", "copift",
                     n=_round_to_multiple(6144, 64), block=64),
            CoreBackend())


@artifact("fig3", sharded=True, order=30, reads=("full",),
          help="Figure 3 poly_lcg IPC over the block/problem grid",
          observe=observe_fig3)
def fig3_artifact(request: ArtifactRequest) -> ArtifactResult:
    data = generate(full=request.full, jobs=request.jobs)
    return ArtifactResult("fig3", render(data), fig3_payload(data))
