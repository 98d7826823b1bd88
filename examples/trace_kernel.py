"""End-to-end observability tour on the dither kernel.

Runs the audio-dither COPIFT kernel (a kernel the paper's tables do
not sweep, so everything here is exercised fresh) with the full
observability stack attached:

* an :class:`repro.obs.ObsSink` collecting structured events from the
  issue lanes and the DMA model,
* the issue-timeline view drawn from the sink's issue events,
* a cycle-attribution profile derived from the main region, and
* a Chrome/Perfetto trace-event file written to disk and validated.

Open the emitted JSON in https://ui.perfetto.dev or chrome://tracing
to scrub through the run cycle by cycle.

Run with::

    python examples/trace_kernel.py [--out=dither-trace.json]

Without ``--out=`` the trace lands in a temporary directory.
"""

import os
import sys
import tempfile

from repro.kernels.dither import build_copift
from repro.sim import Machine
from repro.obs import (
    ObsSink,
    ProfileNode,
    core_profile,
    dual_issue_cycles,
    render_profile,
    render_timeline,
    validate_chrome_trace,
    write_chrome_trace,
)


def trace_path() -> str:
    # Manual flag parse: this script also runs under the test
    # harness, whose argv belongs to pytest.
    for arg in sys.argv[1:]:
        if arg.startswith("--out="):
            return arg[len("--out="):]
    return os.path.join(tempfile.mkdtemp(prefix="repro-obs-"),
                        "dither-trace.json")


def main() -> None:
    instance = build_copift(256, block=32)
    sink = ObsSink()
    machine = Machine(memory=instance.memory)
    machine.attach_obs(sink, "core")
    result = machine.run(instance.program)
    instance.verify(instance.memory, machine)

    mid = result.cycles // 2
    print("dither COPIFT, steady-state issue timeline "
          f"(cycles {mid}..{mid + 24}):\n")
    print(render_timeline(sink.events, start=mid, end=mid + 24,
                          show_pc=True))
    dual = dual_issue_cycles(sink.events)
    print(f"\ndual-issue cycles: {dual} "
          f"({100 * dual / result.cycles:.0f}% of the run)\n")

    profile = core_profile("core", result.region("main"))
    print(render_profile(profile))
    assert profile.bucket_sum() == profile.cycles

    path = trace_path()
    write_chrome_trace(sink, path)
    import json
    with open(path) as handle:
        count = validate_chrome_trace(json.load(handle))
    print(f"\nwrote {path}: {count} Chrome trace events "
          f"from {len(sink)} collected ({', '.join(sink.scopes())} / "
          f"lanes {', '.join(sink.lanes('core'))})")
    print("open it in https://ui.perfetto.dev or chrome://tracing")

    # The profile block round-trips through RunRecord JSON untouched.
    back = ProfileNode.from_json(profile.to_json())
    assert back == profile
    print("profile JSON round-trip: ok "
          f"({profile.cycles} cycles attributed exactly)")


if __name__ == "__main__":
    main()
