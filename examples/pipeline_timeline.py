"""Visualizing pseudo dual-issue: the two issue lanes, cycle by cycle.

Runs a small COPIFT block with an obs sink attached and prints
the integer-core and FPSS issue lanes side by side.  Sequencer-issued
FP instructions (marked ``<seq``) never occupy an integer issue slot —
watching them stream next to the integer phase is the clearest way to
see what the paper's "pseudo dual-issue" means.

Run with::

    python examples/pipeline_timeline.py
"""

from repro.kernels.expf import build_copift
from repro.obs import (
    ObsSink,
    dual_issue_cycles,
    lane_utilization,
    render_timeline,
)
from repro.sim import Machine


def main() -> None:
    instance = build_copift(96, block=32)
    machine = Machine(memory=instance.memory)
    sink = ObsSink()
    machine.attach_obs(sink)
    result = machine.run(instance.program)
    instance.verify(instance.memory, machine)

    # Show a steady-state window: pick cycles in the middle of the run.
    mid = result.cycles // 2
    print("expf COPIFT, steady-state issue timeline "
          f"(cycles {mid}..{mid + 40}):\n")
    print(render_timeline(sink.events, start=mid, end=mid + 40))

    dual = dual_issue_cycles(sink.events)
    int_util, fp_util = lane_utilization(sink.events, result.cycles)
    print()
    print(f"total cycles:        {result.cycles}")
    print(f"dual-issue cycles:   {dual} "
          f"({100 * dual / result.cycles:.0f}% of the run)")
    print(f"lane utilization:    int {int_util:.2f}, fp {fp_util:.2f} "
          f"(sum = IPC {result.ipc:.2f})")
    print(f"sequencer replays:   {result.counters.sequencer_issued} "
          f"of {result.counters.fp_issued} FP instructions")


if __name__ == "__main__":
    main()
