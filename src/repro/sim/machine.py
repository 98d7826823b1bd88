"""Cycle-level model of a Snitch-like core with FREP and SSRs.

The simulator executes programs functionally in program order while
tracking *two issue timelines* — the integer core's and the FP
subsystem's (FPSS).  Every dynamic instruction is assigned an issue cycle
from the resource and dependency constraints that bind it:

* program-order issue on its engine (``int_time`` / ``fp_time``),
* register operand readiness (scoreboards per register file),
* the core→FPSS dispatch-queue occupancy (bounds integer/FP thread skew),
* SSR stream data availability (prefetch pipeline + producer stores),
* RAW through memory (stores publish, loads wait),
* register-file writeback-port conflicts between unequal-latency ops,
* taken-branch bubbles.

Pseudo dual-issue arises naturally: the first iteration of an ``frep``
loop is dispatched by the integer core, the remaining iterations are
issued by the FPSS sequencer on the FP timeline while the integer
timeline advances through subsequent instructions.  Elapsed cycles are
``max`` over both timelines, so overlap is measured, not assumed.

This is the substitution for the paper's RTL/QuestaSim setup (see
DESIGN.md §2): every effect the evaluation discusses is modelled as a
first-class mechanism rather than calibrated afterwards.

Execution is split in four layers (one file each):

* :class:`~repro.sim.decode.DecodedProgram` — per-*static*-instruction
  resolution into flat micro-op records (bound handlers, operand
  indices, branch targets, FREP bodies), cached on the Program object
  so cluster cores and sweep reruns decode once;
* :class:`~repro.sim.scheduler.Scheduler` — the two issue timelines,
  scoreboards, writeback ports, dispatch queue, memory-RAW times,
  regions and counters: all *timing* state and the per-op step path,
  the golden reference;
* :mod:`~repro.sim.blocks` — compiled runs: ``Scheduler.drain`` runs
  a hot run of straight-line code (up to a branch or jump, or a whole
  ``frep`` loop) as generated Python with the same rules, once the
  per-op path has executed it about ``blocks.K`` times its length;
  ``step()`` and machines with an obs sink stay per-op;
* :class:`Machine` (this module) — architectural state (register files,
  memory, SSR movers) and the stable ``bind``/``step``/``result``/
  ``run`` API the cluster driver and all tooling program against.
"""

from __future__ import annotations

from .config import CoreConfig
from .counters import RunResult
from .errors import SimulationError
from .memory import Memory
from .scheduler import Scheduler
from .ssr import SSR

__all__ = ["Machine", "SimulationError"]


class Machine:
    """Architectural state; :attr:`sched` owns all timing state."""

    def __init__(self, config: CoreConfig | None = None,
                 memory: Memory | None = None) -> None:
        self.config = config or CoreConfig()
        self.memory = memory or Memory()
        self.iregs: list[int] = [0] * 32
        self.fregs: list[float] = [0.0] * 32
        self.ssrs = [SSR(i) for i in range(self.config.ssr_count)]
        self.ssr_enabled = False
        #: Structured-event sink (repro.obs.ObsSink); None when off.
        self.obs = None
        #: Hierarchical scope this core emits under, e.g.
        #: ``soc/cluster0/core2`` (set by attach_obs).
        self.obs_scope = "core"
        # -- cluster hooks (all None/0 for a standalone core) -----------
        #: Core index within a cluster (bank-stagger offset, DMA owner).
        self.core_id = 0
        #: Banked-TCDM arbiter shared by the cluster, or None.
        self.tcdm = None
        #: Cluster DMA engine (bandwidth/latency model), or None.
        self.dma = None
        #: Owning ClusterMachine (barrier coordination), or None; a
        #: weak proxy, so the cluster and its cores hold no cycle.
        self.cluster = None
        self.reset_timing()

    def attach_obs(self, sink, scope: str = "core") -> None:
        """Emit structured events into *sink* under *scope*.

        Pass ``None`` to detach.  Cluster/SoC machines call this on
        every core with the proper hierarchical scope; a standalone
        core defaults to plain ``core``.
        """
        self.obs = sink
        self.obs_scope = scope
        self.sched._obs = sink
        self.sched._obs_scope = scope

    # ------------------------------------------------------------------
    # timing state (owned by the Scheduler: read ``sched.*``)
    # ------------------------------------------------------------------
    def reset_timing(self) -> None:
        """Discard all timing state (register/memory values persist)."""
        self.sched = Scheduler(self)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def bind(self, program, max_steps: int = 200_000_000) -> None:
        """Prepare *program* for stepwise execution (see :meth:`step`)."""
        self.sched.bind(program, max_steps)

    @property
    def finished(self) -> bool:
        return self.sched.finished

    def step(self) -> bool:
        """Execute one dynamic instruction of the bound program.

        Returns False once the program has finished.  An ``frep`` loop
        (all its sequenced iterations) counts as one step.  The cluster
        driver interleaves ``step()`` calls across cores; a standalone
        :meth:`run` just exhausts them.
        """
        return self.sched.step()

    def result(self) -> RunResult:
        """Measurements of everything executed since the last reset."""
        return self.sched.result()

    def run(self, program, max_steps: int = 200_000_000) -> RunResult:
        """Execute *program* to completion and return measurements."""
        sched = self.sched
        sched.bind(program, max_steps)
        sched.drain()
        return sched.result()
