"""Per-core issue tracing and dual-issue timeline rendering.

Enable with :meth:`Machine.enable_trace` — or, for whole hierarchies,
:meth:`ClusterMachine.enable_trace` / :meth:`SocMachine.enable_trace`
— before running; every issue event (integer core, FP dispatch, FPSS
issue, sequencer replay) is recorded with its cycle.
:func:`render_timeline` draws the two issue engines as parallel
lanes — the overlap the whole paper is about becomes directly
visible:

    cycle     INT lane            FP lane
      112     addi                fmadd.d   <- sequencer
      113     lw                  fmul.d    <- sequencer
      ...

Tracing costs one branch per instruction when disabled and is off by
default.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TraceEvent:
    """One issue event.

    Attributes:
        engine: ``int`` (integer core), ``fp`` (FPSS issue).
        cycle: Issue cycle on that engine's timeline.
        mnemonic: Instruction mnemonic.
        pc: Static instruction index (None for sequencer replays).
        sequencer: True when the FPSS issue came from the FREP buffer.
    """

    engine: str
    cycle: int
    mnemonic: str
    pc: int | None = None
    sequencer: bool = False


def _fit(cell: str, width: int) -> str:
    """Pad *cell* to *width*; mark (never silently drop) overflow."""
    if len(cell) > width:
        return cell[: max(width - 1, 0)] + "~"
    return f"{cell:<{width}}"


def render_timeline(events: list[TraceEvent], start: int = 0,
                    end: int | None = None, width: int = 18,
                    show_pc: bool = False) -> str:
    """Render both issue lanes side by side for cycles [start, end).

    Cycles where neither engine issues are elided with a ``...`` row —
    including a trailing one when the window ends inside a gap.  With
    ``show_pc=True`` each mnemonic carries its static instruction
    index as ``#pc`` (sequencer replays have none).  Cells longer than
    *width* are marked with a ``~`` instead of silently truncated.
    """
    if end is None:
        end = max((e.cycle for e in events), default=0) + 1
    int_lane: dict[int, str] = {}
    fp_lane: dict[int, str] = {}
    for event in events:
        if not start <= event.cycle < end:
            continue
        cell = event.mnemonic
        if show_pc and event.pc is not None and event.pc >= 0:
            cell += f" #{event.pc}"
        if event.engine == "int":
            int_lane[event.cycle] = cell
        else:
            suffix = "  <seq" if event.sequencer else ""
            fp_lane[event.cycle] = cell + suffix
    lines = [f"{'cycle':>7}  {'integer core':<{width}} {'FPSS':<{width}}"]
    lines.append("-" * (9 + 2 * width))
    gap = False
    for cycle in range(start, end):
        int_op = int_lane.get(cycle)
        fp_op = fp_lane.get(cycle)
        if int_op is None and fp_op is None:
            gap = True
            continue
        if gap:
            lines.append(f"{'...':>7}")
            gap = False
        lines.append(f"{cycle:>7}  {_fit(int_op or '', width)} "
                     f"{_fit(fp_op or '', width)}")
    if gap:
        lines.append(f"{'...':>7}")
    return "\n".join(lines)


def dual_issue_cycles(events: list[TraceEvent]) -> int:
    """Number of cycles where both engines issued an instruction."""
    int_cycles = {e.cycle for e in events if e.engine == "int"}
    fp_cycles = {e.cycle for e in events if e.engine == "fp"}
    return len(int_cycles & fp_cycles)


def lane_utilization(events: list[TraceEvent],
                     cycles: int) -> tuple[float, float]:
    """(integer, FP) issue-slot utilization over *cycles*."""
    if cycles == 0:
        return (0.0, 0.0)
    int_count = sum(1 for e in events if e.engine == "int")
    fp_count = sum(1 for e in events if e.engine == "fp")
    return (int_count / cycles, fp_count / cycles)
