"""Declarative workload specs: what to run, independent of where.

A :class:`Workload` is a frozen, picklable description of one kernel
build — name (resolved through :mod:`repro.kernels.registry`), variant,
problem size, COPIFT block size and PRNG seed.  The underlying
:class:`~repro.kernels.common.KernelInstance` is built lazily by
:meth:`Workload.build`, so specs can be enumerated, hashed, compared
and shipped to worker processes without paying program-construction
cost up front.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kernels.common import KernelInstance
from ..kernels.registry import KERNELS, KernelDef

VARIANTS = ("baseline", "copift")


class CellError(ValueError):
    """A workload that cannot run as specified, or not on its backend
    (unknown kernel or variant, or a size or block that does not fit)."""


@dataclass(frozen=True)
class Workload:
    """One kernel build, described declaratively.

    Attributes:
        kernel: Registered kernel name (see ``repro.kernels.KERNELS``).
        variant: ``baseline`` or ``copift``.
        n: Problem size in elements/samples.
        block: COPIFT block size; ``None`` uses the kernel's default.
            Ignored for baselines.
        seed: PRNG/input seed; ``None`` keeps each builder's default
            (which is what every paper artifact measures).
    """

    kernel: str
    variant: str = "baseline"
    n: int = 4096
    block: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        for name in ("kernel", "variant"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise CellError(f"{name} must be a string, got {value!r}")
        for name in ("n", "block", "seed"):
            value = getattr(self, name)
            if value is None and name != "n":
                continue                    # block/seed: builder default
            if not isinstance(value, int) or isinstance(value, bool):
                raise CellError(f"{name} must be an integer, got "
                                f"{value!r}")
        if self.seed is not None and self.seed < 0:
            raise CellError(f"seed must be >= 0, got {self.seed}")
        if self.kernel not in KERNELS:
            raise CellError(
                f"unknown kernel {self.kernel!r}; "
                f"available: {sorted(KERNELS)}"
            )
        if self.variant not in VARIANTS:
            raise CellError(
                f"unknown variant {self.variant!r}; "
                f"expected one of {VARIANTS}"
            )
        if self.n < 1:
            raise CellError(f"problem size must be >= 1, got {self.n}")
        if self.block is not None and self.block < 1:
            raise CellError(f"block must be >= 1, got {self.block}")

    @property
    def kernel_def(self) -> KernelDef:
        return KERNELS[self.kernel]

    @property
    def effective_block(self) -> int | None:
        """The block size a COPIFT build will use (None for baselines)."""
        if self.variant != "copift":
            return None
        return self.block or self.kernel_def.default_block

    def build(self) -> KernelInstance:
        """Construct the kernel instance (program + memory image)."""
        kwargs: dict = {}
        if self.seed is not None:
            kwargs["seed"] = self.seed
        if self.variant == "baseline":
            return self.kernel_def.build_baseline(self.n, **kwargs)
        return self.kernel_def.build_copift(
            self.n, block=self.effective_block, **kwargs)

    def with_(self, **changes) -> "Workload":
        """A copy with the given fields replaced (validated again)."""
        from dataclasses import replace
        return replace(self, **changes)


def pair(kernel: str, n: int = 4096, block: int | None = None,
         seed: int | None = None) -> tuple[Workload, Workload]:
    """The (baseline, copift) workload pair every figure compares."""
    return (
        Workload(kernel, "baseline", n=n, seed=seed),
        Workload(kernel, "copift", n=n, block=block, seed=seed),
    )
