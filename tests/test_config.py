"""CoreConfig / latency-table invariants and machine determinism."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import ProgramBuilder
from repro.isa.instructions import OpClass
from repro.sim import CoreConfig, DEFAULT_LATENCIES, Machine


class TestLatencyTable:
    def test_every_opclass_has_a_latency(self):
        for opclass in OpClass:
            assert opclass in DEFAULT_LATENCIES

    def test_latencies_positive_except_meta(self):
        for opclass, latency in DEFAULT_LATENCIES.items():
            if opclass is OpClass.META:
                continue
            assert latency >= 1, opclass

    def test_fma_at_least_as_long_as_mul(self):
        assert DEFAULT_LATENCIES[OpClass.FP_FMA] \
            >= DEFAULT_LATENCIES[OpClass.FP_MUL]

    def test_config_copies_are_independent(self):
        a = CoreConfig()
        b = CoreConfig()
        a.latencies[OpClass.ALU] = 99
        assert b.latencies[OpClass.ALU] == 1

    def test_latency_lookup(self):
        config = CoreConfig()
        assert config.latency(OpClass.LOAD) \
            == DEFAULT_LATENCIES[OpClass.LOAD]


class TestConfigValidation:
    """A field the model cannot honour fails at construction, naming
    the field, rather than mid-run or silently."""

    def test_negative_latency(self):
        with pytest.raises(ValueError,
                           match=r"^latencies\[FP_DIV\] must be >= 0, "
                                 r"got -1$"):
            CoreConfig(latencies={**DEFAULT_LATENCIES, OpClass.FP_DIV: -1})

    def test_zero_latency_is_allowed(self):
        CoreConfig(latencies=dict.fromkeys(DEFAULT_LATENCIES, 0))

    @pytest.mark.parametrize("field", ("fpss_queue_depth", "int_wb_ports",
                                       "fp_wb_ports", "frep_buffer_size"))
    @pytest.mark.parametrize("value", (0, -2))
    def test_count_below_one(self, field, value):
        with pytest.raises(ValueError,
                           match=rf"^{field} must be >= 1, got {value}$"):
            CoreConfig(**{field: value})

    @pytest.mark.parametrize("field", ("fpss_queue_depth", "int_wb_ports",
                                       "fp_wb_ports", "frep_buffer_size"))
    def test_replace_validates(self, field):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(CoreConfig(), **{field: 0})


_OPS = ["add", "sub", "xor", "and", "or", "sll", "srl", "mul",
        "mulhu", "slt"]


@st.composite
def random_programs(draw):
    """Random loop-free integer programs over a0..a5."""
    b = ProgramBuilder()
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        op = draw(st.sampled_from(_OPS))
        regs = [f"a{draw(st.integers(min_value=0, max_value=5))}"
                for _ in range(3)]
        b.emit(op, *regs)
    return b.build()


@settings(max_examples=50, deadline=None)
@given(random_programs(),
       st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF),
                min_size=6, max_size=6))
def test_machine_is_deterministic(program, seeds):
    """Same program + same initial state -> identical timing and
    architectural results, run to run."""
    outcomes = []
    for _ in range(2):
        machine = Machine()
        for i, seed in enumerate(seeds):
            machine.iregs[10 + i] = seed
        result = machine.run(program)
        outcomes.append((result.cycles, tuple(machine.iregs)))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=50, deadline=None)
@given(random_programs())
def test_cycles_bounded_by_instructions(program):
    """Loop-free integer code: cycles within [n, n * max_latency+slack]."""
    machine = Machine()
    result = machine.run(program)
    n = len(program)
    assert result.cycles >= n
    assert result.cycles <= n * 4 + 8
