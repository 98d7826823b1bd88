"""Pin the modelled outputs of every benchmark cell into digests.json.

Run from the root of a checkout after an intended change to the
model::

    python3 perfbench/pin_digests.py

Each cell runs once with ``check=True``; its digest is its main-region
cycles, issued integer and FP instructions, and energy in pJ.  Seeded
fleet cells are pinned once per (kernel, variant, n, backend), after
checking that three data seeds give the same digest.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.api import VARIANTS, Workload, parse_backend  # noqa: E402
from repro.kernels import KERNELS  # noqa: E402
from workloads import (  # noqa: E402
    FIG2_N,
    FLEET_KERNELS,
    FLEET_N,
    LADDER_CELLS,
    LADDER_N,
    LADDER_RUNGS,
    SERVE_BACKENDS,
    SERVE_N,
    Cell,
)


def cells() -> list[tuple[str, str, int, str]]:
    out = {(kernel, variant, FIG2_N, "core")
           for kernel in KERNELS for variant in VARIANTS}
    out |= {(kernel, variant, LADDER_N, spec)
            for spec in LADDER_RUNGS for kernel, variant in LADDER_CELLS}
    out |= {(kernel, variant, FLEET_N, "core")
            for kernel in FLEET_KERNELS for variant in VARIANTS}
    out |= {(kernel, variant, SERVE_N, spec)
            for kernel in KERNELS for variant in VARIANTS
            for spec in SERVE_BACKENDS}
    return sorted(out)


def digest(kernel, variant, n, spec, seed=None) -> Cell:
    workload = Workload(kernel, variant, n=n, seed=seed)
    return Cell.of(parse_backend(spec).run(workload, check=True))


def main() -> int:
    digests = {}
    for kernel, variant, n, spec in cells():
        cell = digest(kernel, variant, n, spec)
        digests[cell.key] = cell.digest
    for kernel in FLEET_KERNELS:
        for variant in VARIANTS:
            for seed in (1, 2, 3):
                cell = digest(kernel, variant, FLEET_N, "core", seed)
                if cell.digest != digests[cell.key]:
                    print(f"pin_digests: {cell.key} depends on the data "
                          f"seed ({seed}); the fleet cannot be pinned",
                          file=sys.stderr)
                    return 1
    with open(HERE / "digests.json", "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(digests)} cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
