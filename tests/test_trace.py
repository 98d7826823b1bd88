"""Tracing tests: event capture and timeline rendering."""

import numpy as np

from repro.isa import ProgramBuilder
from repro.sim import Allocator, Machine, Memory
from repro.sim.ssr import (
    F_BOUND0, F_RPTR, F_STATUS, F_STRIDE0, F_WPTR, encode_cfg_imm,
)
from repro.obs import (
    TraceEvent,
    dual_issue_cycles,
    lane_utilization,
    render_timeline,
)


def _traced_run(builder, memory=None):
    machine = Machine(memory=memory)
    events = machine.enable_trace()
    result = machine.run(builder.build())
    return events, result, machine


class TestEventCapture:
    def test_int_events(self):
        b = ProgramBuilder()
        b.addi("a0", "a0", 1)
        b.addi("a1", "a1", 1)
        events, _, _ = _traced_run(b)
        assert [e.mnemonic for e in events] == ["addi", "addi"]
        assert [e.cycle for e in events] == [0, 1]
        assert all(e.engine == "int" for e in events)

    def test_fp_dispatch_and_issue_both_recorded(self):
        b = ProgramBuilder()
        b.fadd_d("fa0", "fa1", "fa2")
        events, _, _ = _traced_run(b)
        engines = sorted(e.engine for e in events)
        assert engines == ["fp", "int"]

    def test_sequencer_flag(self):
        mem = Memory()
        alloc = Allocator(mem)
        xa = alloc.alloc_array("x", np.ones(4))
        ya = alloc.alloc("y", 32)
        b = ProgramBuilder()
        for ssr, field, value in (
                (0, F_STATUS, 1), (0, F_BOUND0, 3), (0, F_STRIDE0, 8),
                (0, F_RPTR, xa),
                (1, F_STATUS, 1), (1, F_BOUND0, 3), (1, F_STRIDE0, 8),
                (1, F_WPTR, ya)):
            b.li("t0", value)
            b.scfgwi("t0", encode_cfg_imm(field, ssr))
        b.ssr_enable()
        b.li("t1", 3)
        b.frep_o("t1", 1)
        b.fadd_d("ft1", "ft0", "fa1")
        b.ssr_disable()
        events, _, _ = _traced_run(b, memory=mem)
        replays = [e for e in events if e.sequencer]
        assert len(replays) == 3
        assert all(e.engine == "fp" for e in replays)

    def test_disabled_by_default(self):
        b = ProgramBuilder()
        b.addi("a0", "a0", 1)
        machine = Machine()
        machine.run(b.build())
        assert machine.trace is None


class TestAnalysis:
    def test_dual_issue_cycles(self):
        events = [
            TraceEvent("int", 5, "addi"),
            TraceEvent("fp", 5, "fadd.d"),
            TraceEvent("int", 6, "addi"),
        ]
        assert dual_issue_cycles(events) == 1

    def test_lane_utilization(self):
        events = [
            TraceEvent("int", 0, "addi"),
            TraceEvent("int", 1, "addi"),
            TraceEvent("fp", 0, "fadd.d"),
        ]
        int_util, fp_util = lane_utilization(events, cycles=4)
        assert int_util == 0.5
        assert fp_util == 0.25

    def test_zero_cycles(self):
        assert lane_utilization([], 0) == (0.0, 0.0)


class TestRendering:
    def test_render_contains_lanes(self):
        events = [
            TraceEvent("int", 0, "addi"),
            TraceEvent("fp", 1, "fmadd.d", sequencer=True),
        ]
        text = render_timeline(events)
        assert "integer core" in text
        assert "addi" in text
        assert "fmadd.d  <seq" in text

    def test_gap_elision(self):
        events = [
            TraceEvent("int", 0, "addi"),
            TraceEvent("int", 100, "addi"),
        ]
        text = render_timeline(events)
        assert "..." in text
        assert len(text.splitlines()) < 10

    def test_window(self):
        events = [TraceEvent("int", c, "addi") for c in range(50)]
        text = render_timeline(events, start=10, end=12)
        assert "10" in text and "11" in text
        assert "     13" not in text
