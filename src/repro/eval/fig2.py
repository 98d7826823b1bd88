"""Figure 2 regeneration: IPC, power, speedup and energy improvement.

Produces the three panels of the paper's Figure 2 for all six kernels
(in the paper's x-axis order) together with the expectation lines:
panel (a) compares steady-state IPC against the I′-derived expectation,
panel (b) compares average power, panel (c) speedup against S′ and the
energy improvement.  All measurements flow through one
:class:`~repro.api.Sweep` of every kernel pair on the ``core`` backend;
the expectation lines (I′ and S′) are read from that sweep's own
records at every n, so each cell is simulated exactly once and a warm
run simulates nothing.
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
from ..energy import EnergyModel
from ..kernels.registry import KERNELS
from ..sim import CoreConfig
from . import table1
from .runner import KernelMeasurement, geomean


@dataclass(frozen=True)
class Fig2Row:
    """One kernel's Figure-2 data point (all three panels)."""

    name: str
    measurement: KernelMeasurement
    #: Dashed expectation lines: IPC from I′ (panel a), speedup S′ (c).
    expected_ipc: float
    expected_speedup: float
    #: Paper's values for side-by-side reporting.
    paper_ipc: tuple[float, float]
    paper_power_mw: tuple[float, float]
    paper_speedup: float
    paper_energy_improvement: float


@dataclass(frozen=True)
class Fig2Data:
    rows: list[Fig2Row]

    @property
    def geomean_ipc_gain(self) -> float:
        return geomean([r.measurement.ipc_gain for r in self.rows])

    @property
    def geomean_speedup(self) -> float:
        return geomean([r.measurement.speedup for r in self.rows])

    @property
    def geomean_power_increase(self) -> float:
        return geomean([r.measurement.power_increase for r in self.rows])

    @property
    def geomean_energy_improvement(self) -> float:
        return geomean(
            [r.measurement.energy_improvement for r in self.rows]
        )

    @property
    def peak_ipc(self) -> float:
        return max(r.measurement.copift.ipc for r in self.rows)

    @property
    def peak_speedup(self) -> float:
        return max(r.measurement.speedup for r in self.rows)

    def worst_error(self, metric: str) -> tuple[Fig2Row, float]:
        """The kernel farthest from the paper in *metric* (``speedup``
        or ``energy_improvement``) and its error, measured/paper - 1."""
        def error(row: Fig2Row) -> float:
            return (getattr(row.measurement, metric)
                    / getattr(row, f"paper_{metric}") - 1)
        row = max(self.rows, key=lambda r: abs(error(r)))
        return row, error(row)


def worst_error_line(data: Fig2Data) -> str:
    """One line naming the worst per-kernel error behind each geomean."""
    parts = []
    for label, metric in (("speedup", "speedup"),
                          ("energy improvement", "energy_improvement")):
        row, error = data.worst_error(metric)
        parts.append(f"{label} {row.name} {error:+.0%}")
    return "worst per-kernel error vs paper: " + "; ".join(parts)


def generate(n: int = 4096, config: CoreConfig | None = None,
             energy_model: EnergyModel | None = None,
             check: bool = False) -> Fig2Data:
    """Measure all kernels and assemble the Figure-2 dataset."""
    backend = CoreBackend(config=config, energy_model=energy_model)
    workloads = [Workload(name, variant, n=n)
                 for name in KERNELS
                 for variant in ("baseline", "copift")]
    records = Sweep(workloads, backends=(backend,)).run(check=check)
    pairs = {w.kernel: records[i:i + 2]
             for i, w in enumerate(workloads)
             if w.variant == "baseline"}
    rows = []
    for kernel_def in KERNELS.values():
        baseline, copift = pairs[kernel_def.name]
        measurement = KernelMeasurement.from_records(baseline, copift)
        # The Table-I mixes come from the sweep's own records at every
        # n: per-iteration counts are affine in n and round to the
        # converged mix, so no cell is simulated twice.
        model = table1.model_from_records(kernel_def, baseline, copift, n)
        # Expected IPC (dashed line in Fig. 2a) = baseline IPC x I'.
        expected_ipc = measurement.baseline.ipc * model.i_prime
        rows.append(Fig2Row(
            name=kernel_def.name,
            measurement=measurement,
            expected_ipc=expected_ipc,
            expected_speedup=model.s_prime,
            paper_ipc=kernel_def.paper_ipc,
            paper_power_mw=kernel_def.paper_power_mw,
            paper_speedup=kernel_def.paper_speedup,
            paper_energy_improvement=kernel_def.paper_energy_improvement,
        ))
    return Fig2Data(rows)


def render(data: Fig2Data) -> str:
    lines = []
    lines.append("Figure 2a: steady-state IPC (measured | paper)")
    header = (f"{'Kernel':<18} {'base':>12} {'COPIFT':>12} "
              f"{'gain':>12} {'expected':>9}")
    lines += [header, "-" * len(header)]
    for r in data.rows:
        m = r.measurement
        lines.append(
            f"{r.name:<18} "
            f"{m.baseline.ipc:.2f}|{r.paper_ipc[0]:.2f}"
            f"{'':>2} "
            f"{m.copift.ipc:.2f}|{r.paper_ipc[1]:.2f}"
            f"{'':>2} "
            f"{m.ipc_gain:.2f}x|{r.paper_ipc[1] / r.paper_ipc[0]:.2f}x "
            f"{r.expected_ipc:>8.2f}"
        )
    lines.append(f"geomean IPC gain: {data.geomean_ipc_gain:.2f}x "
                 f"(paper: 1.62x); peak IPC {data.peak_ipc:.2f} "
                 f"(paper: 1.75)")
    lines.append("")

    lines.append("Figure 2b: power [mW] (measured | paper)")
    header = f"{'Kernel':<18} {'base':>14} {'COPIFT':>14} {'ratio':>14}"
    lines += [header, "-" * len(header)]
    for r in data.rows:
        m = r.measurement
        lines.append(
            f"{r.name:<18} "
            f"{m.baseline.power_mw:5.1f}|{r.paper_power_mw[0]:5.1f}   "
            f"{m.copift.power_mw:5.1f}|{r.paper_power_mw[1]:5.1f}   "
            f"{m.power_increase:.2f}x|"
            f"{r.paper_power_mw[1] / r.paper_power_mw[0]:.2f}x"
        )
    lines.append(
        f"geomean power increase: {data.geomean_power_increase:.2f}x "
        f"(paper: 1.07x)"
    )
    lines.append("")

    lines.append("Figure 2c: speedup / energy improvement "
                 "(measured | paper)")
    header = (f"{'Kernel':<18} {'speedup':>14} {'expected S_':>11} "
              f"{'energy impr.':>14}")
    lines += [header, "-" * len(header)]
    for r in data.rows:
        m = r.measurement
        lines.append(
            f"{r.name:<18} "
            f"{m.speedup:5.2f}|{r.paper_speedup:5.2f}   "
            f"{r.expected_speedup:>10.2f} "
            f"{m.energy_improvement:8.2f}|"
            f"{r.paper_energy_improvement:.2f}"
        )
    lines.append(
        f"geomean speedup: {data.geomean_speedup:.2f}x (paper: 1.47x); "
        f"geomean energy improvement: "
        f"{data.geomean_energy_improvement:.2f}x (paper: 1.37x)"
    )
    lines.append(worst_error_line(data))
    return "\n".join(lines)


def fig2_payload(data: Fig2Data) -> dict:
    rows = []
    for r in data.rows:
        m = r.measurement
        rows.append({
            "kernel": r.name,
            "baseline": {"ipc": m.baseline.ipc,
                         "cycles": m.baseline.cycles,
                         "power_mw": m.baseline.power_mw},
            "copift": {"ipc": m.copift.ipc,
                       "cycles": m.copift.cycles,
                       "power_mw": m.copift.power_mw},
            "speedup": m.speedup,
            "ipc_gain": m.ipc_gain,
            "power_increase": m.power_increase,
            "energy_improvement": m.energy_improvement,
            "expected_ipc": r.expected_ipc,
            "expected_speedup": r.expected_speedup,
            "paper": {"ipc": list(r.paper_ipc),
                      "power_mw": list(r.paper_power_mw),
                      "speedup": r.paper_speedup,
                      "energy_improvement": r.paper_energy_improvement},
        })
    return {
        "rows": rows,
        "geomean_speedup": data.geomean_speedup,
        "geomean_ipc_gain": data.geomean_ipc_gain,
        "geomean_power_increase": data.geomean_power_increase,
        "geomean_energy_improvement": data.geomean_energy_improvement,
    }


def observe_fig2(request: ArtifactRequest) -> tuple:
    """Representative cell for ``--trace``/``--profile``: expf/copift
    at the figure's problem size on a bare core."""
    return (Workload("expf", "copift", n=request.effective_n(4096)),
            CoreBackend())


@artifact("fig2", aliases=("fig2a", "fig2b", "fig2c"), order=20,
          reads=("n",),
          help="Figure 2 IPC / power / speedup / energy, all kernels",
          observe=observe_fig2)
def fig2_artifact(request: ArtifactRequest) -> ArtifactResult:
    data = generate(n=request.effective_n(4096))
    return ArtifactResult("fig2", render(data), fig2_payload(data))
