"""Markdown report generation: all artifacts in one document.

``python -m repro.eval report --out report.md`` regenerates Table I,
Figures 2a-2c and Figure 3 and writes a single self-contained markdown
report with measured-vs-paper tables — the machine-generated companion
to EXPERIMENTS.md.
"""

from __future__ import annotations

from ..api import ArtifactRequest, ArtifactResult, artifact
from ..kernels.registry import KERNELS
from . import fig2, fig3, table1


def _md_table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def generate_report(n: int = 2048, full_fig3: bool = False,
                    fig3_blocks: tuple[int, ...] | None = None,
                    fig3_problems: tuple[int, ...] | None = None) -> str:
    """Run all experiments and render one markdown document.

    *fig3_blocks*/*fig3_problems* override the Figure-3 sweep grid
    (useful for quick reports and tests).
    """
    sections = ["# COPIFT reproduction report",
                "",
                f"Problem size for Figure 2: n = {n}.",
                ""]

    # One sweep feeds both sections: the Table-I mixes are read from
    # the Figure-2 records, which are converged at any n.
    data = fig2.generate(n=n)

    # --- Table I ---------------------------------------------------------
    rows = [
        table1.Table1Row(
            measured=table1.model_from_records(
                KERNELS[r.name], r.measurement.baseline,
                r.measurement.copift, n),
            paper=KERNELS[r.name].paper_model(),
        )
        for r in data.rows
    ]
    body = []
    for row in rows:
        m, p = row.measured, row.paper
        body.append([
            row.name,
            f"{m.base.n_int} / {p.base.n_int}",
            f"{m.base.n_fp} / {p.base.n_fp}",
            f"{m.thread_imbalance:.2f} / {p.thread_imbalance:.2f}",
            f"{m.copift.n_int} / {p.copift.n_int}",
            f"{m.copift.n_fp} / {p.copift.n_fp}",
            f"{m.i_prime:.2f} / {p.i_prime:.2f}",
            f"{m.s_prime:.2f} / {p.s_prime:.2f}",
        ])
    sections += [
        "## Table I — kernel characteristics (measured / paper)", "",
        _md_table(["kernel", "#Int", "#FP", "TI", "CP #Int", "CP #FP",
                   "I'", "S'"], body),
        "",
    ]

    # --- Figure 2 ---------------------------------------------------------
    body = []
    for row in data.rows:
        m = row.measurement
        body.append([
            row.name,
            f"{m.baseline.ipc:.2f} / {row.paper_ipc[0]:.2f}",
            f"{m.copift.ipc:.2f} / {row.paper_ipc[1]:.2f}",
            f"{m.baseline.power_mw:.1f} / {row.paper_power_mw[0]:.1f}",
            f"{m.copift.power_mw:.1f} / {row.paper_power_mw[1]:.1f}",
            f"{m.speedup:.2f} / {row.paper_speedup:.2f}",
            f"{m.energy_improvement:.2f} / "
            f"{row.paper_energy_improvement:.2f}",
        ])
    sections += [
        "## Figure 2 — IPC, power, speedup, energy (measured / paper)",
        "",
        _md_table(["kernel", "base IPC", "COPIFT IPC", "base mW",
                   "COPIFT mW", "speedup", "energy impr."], body),
        "",
        f"Geomeans (measured / paper): speedup "
        f"{data.geomean_speedup:.2f} / 1.47, IPC gain "
        f"{data.geomean_ipc_gain:.2f} / 1.62, power increase "
        f"{data.geomean_power_increase:.2f} / 1.07, energy "
        f"improvement {data.geomean_energy_improvement:.2f} / 1.37.",
        "",
        fig2.worst_error_line(data) + ".",
        "",
    ]

    # --- Figure 3 ---------------------------------------------------------
    fig3_kwargs = {}
    if fig3_blocks is not None:
        fig3_kwargs["block_sizes"] = fig3_blocks
    if fig3_problems is not None:
        fig3_kwargs["problem_sizes"] = fig3_problems
    sweep = fig3.generate(full=full_fig3, **fig3_kwargs)
    header = ["N \\ B"] + [str(b) for b in sweep.block_sizes]
    body = []
    for problem in sweep.problem_sizes:
        peak = sweep.peak_block(problem)
        row = [str(problem)]
        for block in sweep.block_sizes:
            mark = "**" if block == peak else ""
            row.append(f"{mark}{sweep.ipc[problem][block]:.3f}{mark}")
        body.append(row)
    sections += [
        "## Figure 3 — poly_lcg IPC vs problem and block size", "",
        _md_table(header, body),
        "",
        "Bold = peak block size per problem size.  Convergence "
        "(smallest N reaching >99.5 % of each block's max IPC): "
        + ", ".join(
            f"B={b}: N={sweep.converged_problem(b)}"
            for b in sweep.block_sizes
        ) + ".",
        "",
    ]
    return "\n".join(sections)


@artifact("report", composite=True, order=60, reads=("n", "full"),
          help="self-contained markdown report of every figure/table")
def report_artifact(request: ArtifactRequest) -> ArtifactResult:
    text = generate_report(n=request.effective_n(4096),
                           full_fig3=request.full)
    return ArtifactResult("report", text, {"markdown": text})
