"""Paired-variant view over two :class:`repro.api.RunRecord` objects.

The figure artifacts compare each kernel's baseline and COPIFT runs;
:meth:`KernelMeasurement.from_records` pairs the two records and
derives speedup, IPC gain, power increase and energy improvement.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api.record import RunRecord


@dataclass(frozen=True)
class KernelMeasurement:
    """Paired baseline/COPIFT measurement of one kernel."""

    name: str
    n: int
    block: int
    baseline: RunRecord
    copift: RunRecord

    @property
    def speedup(self) -> float:
        return self.baseline.cycles / self.copift.cycles

    @property
    def ipc_gain(self) -> float:
        return self.copift.ipc / self.baseline.ipc

    @property
    def power_increase(self) -> float:
        return self.copift.power_mw / self.baseline.power_mw

    @property
    def energy_improvement(self) -> float:
        return self.baseline.energy_pj / self.copift.energy_pj

    @classmethod
    def from_records(cls, baseline: RunRecord,
                     copift: RunRecord) -> "KernelMeasurement":
        if baseline.kernel != copift.kernel:
            raise ValueError(
                f"mismatched record pair: baseline is "
                f"{baseline.kernel!r}, copift is {copift.kernel!r}"
            )
        if (baseline.variant, copift.variant) != ("baseline",
                                                  "copift"):
            raise ValueError(
                f"record pair passed out of order: got "
                f"({baseline.variant!r}, {copift.variant!r}), "
                f"expected ('baseline', 'copift')"
            )
        return cls(name=baseline.kernel, n=baseline.n,
                   block=copift.block or 0, baseline=baseline,
                   copift=copift)


def geomean(values: list[float]) -> float:
    if not values:
        raise ValueError("geomean of empty sequence")
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))
