"""L0 instruction loop-buffer model.

Snitch's frontend has a tiny L0 instruction cache that captures short
loops; when a loop body fits, subsequent iterations fetch from the L0
buffer at negligible energy.  Bodies larger than the buffer thrash it,
paying an L1 instruction fetch per instruction every iteration.

The paper's §III-B power discussion hinges on this: the *baseline*
``log``/``exp`` loop bodies exceed 64 instructions and thrash, while the
COPIFT integer loops fit, which is why COPIFT *reduces* I-fetch power on
those kernels.

The model tracks the most recent captured loop: a taken backward branch
whose span fits in the buffer captures ``[target, branch]``; fetches
inside the captured range hit.  This is deliberately simple — it matches
the fully-associative-loop-buffer behaviour for the single-loop-at-a-time
kernels evaluated here.
"""

from __future__ import annotations


class L0Cache:
    """Loop-buffer capture tracker.

    The scheduler checks each fetch against the captured
    ``[_lo, _hi]`` range and counts hits and misses in its
    :class:`~repro.sim.counters.Counters`.

    Args:
        entries: Buffer capacity in instructions.
        enabled: When False every fetch misses (ablation mode).
    """

    def __init__(self, entries: int = 64, enabled: bool = True) -> None:
        self.entries = entries
        self.enabled = enabled
        self._lo = -1
        self._hi = -1

    def backward_branch(self, branch_pc: int, target_pc: int) -> None:
        """Note a taken backward branch; capture the loop if it fits."""
        if not self.enabled:
            return
        span = branch_pc - target_pc + 1
        if 0 < span <= self.entries:
            self._lo = target_pc
            self._hi = branch_pc
        else:
            # A too-large loop continuously evicts the buffer.
            self._lo = -1
            self._hi = -1
