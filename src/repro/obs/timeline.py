"""Dual-issue timeline rendering from one core's issue events.

Attach an :class:`~repro.obs.events.ObsSink` before running
(``machine.attach_obs(ObsSink())``); every issue event (integer core,
FP dispatch, FPSS issue, sequencer replay) lands on the core's ``int``
or ``fp`` lane with its cycle.  :func:`render_timeline` draws the two
issue engines as parallel lanes — the overlap the whole paper is
about becomes directly visible:

    cycle     INT lane            FP lane
      112     addi                fmadd.d   <- sequencer
      113     lw                  fmul.d    <- sequencer
      ...

The functions here read one core's events (``sink.events`` of a
standalone core) and skip every event that is not an ``issue`` or
``dispatch`` (DMA marks, and other scopes' banks, links and barriers).
"""

from __future__ import annotations

from .events import ObsEvent

_ISSUE = frozenset({"issue", "dispatch"})


def _issues(events: list[ObsEvent]) -> list[ObsEvent]:
    return [e for e in events if e.cat in _ISSUE]


def _fit(cell: str, width: int) -> str:
    """Pad *cell* to *width*; mark (never silently drop) overflow."""
    if len(cell) > width:
        return cell[: max(width - 1, 0)] + "~"
    return f"{cell:<{width}}"


def render_timeline(events: list[ObsEvent], start: int = 0,
                    end: int | None = None, width: int = 18,
                    show_pc: bool = False) -> str:
    """Render both issue lanes side by side for cycles [start, end).

    Cycles where neither engine issues are elided with a ``...`` row —
    including a trailing one when the window ends inside a gap.  With
    ``show_pc=True`` each mnemonic carries its static instruction
    index as ``#pc`` (FPSS issues have none).  Cells longer than
    *width* are marked with a ``~`` instead of silently truncated.
    """
    events = _issues(events)
    if end is None:
        end = max((e.ts for e in events), default=0) + 1
    int_lane: dict[int, str] = {}
    fp_lane: dict[int, str] = {}
    for event in events:
        if not start <= event.ts < end:
            continue
        cell = event.name
        args = event.args or {}
        if show_pc and "pc" in args:
            cell += f" #{args['pc']}"
        if event.lane == "int":
            int_lane[event.ts] = cell
        else:
            suffix = "  <seq" if args.get("seq") else ""
            fp_lane[event.ts] = cell + suffix
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


def dual_issue_cycles(events: list[ObsEvent]) -> int:
    """Number of cycles where both engines issued an instruction."""
    events = _issues(events)
    int_cycles = {e.ts for e in events if e.lane == "int"}
    fp_cycles = {e.ts for e in events if e.lane == "fp"}
    return len(int_cycles & fp_cycles)


def lane_utilization(events: list[ObsEvent],
                     cycles: int) -> tuple[float, float]:
    """(integer, FP) issue-slot utilization over *cycles*."""
    if cycles == 0:
        return (0.0, 0.0)
    events = _issues(events)
    int_count = sum(1 for e in events if e.lane == "int")
    fp_count = sum(1 for e in events if e.lane == "fp")
    return (int_count / cycles, fp_count / cycles)
