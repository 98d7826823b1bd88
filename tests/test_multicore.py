"""The run-ahead cluster and SoC drivers equal the per-op reference.

``ClusterMachine.run()`` and ``SocMachine.run()`` let the picked core
run its private steps ahead, compiled, and keep the per-op order only
for shared steps.  Each test here runs generated multi-core programs
(:func:`programs.cluster_programs`) both ways and asserts that they make
the same shared-resource calls in the same order and leave the same
state: the error, memory, the TCDM bank, DMA, barrier and interconnect
statistics and, when no core faulted, every core's registers, counters
and issue times.  When one does, the other cores may have run private
steps past the fault's turn, which the per-op order had not reached.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterMachine
from repro.isa import ProgramBuilder
from repro.sim import Memory, SimulationError, blocks
from repro.soc import SocConfig, SocMachine

from programs import CLUSTER_MEM, assert_claims_logged, cluster_programs, \
    cluster_state, compiled, per_op_run, shared_calls

#: (clusters or None for a bare cluster, cores per cluster, write-back)
RUNGS = {"cluster:2": (None, 2, False), "cluster:4": (None, 4, False),
         "cluster:8": (None, 8, False), "soc:2x2": (2, 2, False),
         "soc:2x2+wb": (2, 2, True)}


def _machine(rung: str, build):
    clusters, cores, writeback = RUNGS[rung]
    # A physical bank mapping: the shared words are one bank per core.
    cc = ClusterConfig(n_cores=cores, bank_stagger_words=0,
                       writeback=writeback)
    if clusters is None:
        machine = ClusterMachine(config=cc)
        targets = [machine]
    else:
        machine = SocMachine(SocConfig(n_clusters=clusters, cluster=cc))
        targets = [machine.add_cluster() for _ in range(clusters)]
    for c, cluster in enumerate(targets):
        memory = Memory(CLUSTER_MEM)
        for core in range(cores):
            cluster.add_core(build(c * cores + core), memory)
    return machine


def _outcome(rung, build, max_steps, k, per_op):
    machine = _machine(rung, build)
    error = None
    with compiled(k), shared_calls() as log:
        try:
            if per_op:
                per_op_run(machine, max_steps)
            else:
                machine.run(max_steps=max_steps)
        except Exception as exc:
            error = exc
    assert_claims_logged(log, machine)
    return log, cluster_state(machine, error)


@pytest.mark.parametrize("rung", sorted(RUNGS))
@settings(max_examples=60, deadline=None)
@given(case=cluster_programs(), k=st.sampled_from((0, 0, blocks.K)))
def test_run_ahead_matches_per_op(rung, case, k):
    max_steps, build = case
    log, state = _outcome(rung, build, max_steps, k, per_op=False)
    ref_log, ref_state = _outcome(rung, build, max_steps, k, per_op=True)
    assert log == ref_log
    assert state[0] == ref_state[0]
    if state[0][0] is type(None):
        assert state[1] == ref_state[1]


@pytest.mark.parametrize("k", (0, blocks.K))
def test_fault_run_ahead_is_held_until_its_turn(k):
    """Core 0 reaches a fault ahead of time through private steps;
    core 1 faults earlier in simulated time, after a shared load.  The
    per-op order raises core 1's error, so core 0's must wait."""
    def build(core):
        b = ProgramBuilder()
        b.li("t5", -1)
        b.fcvt_d_w("fa7", "t5")
        if core == 0:
            for _ in range(40):
                b.addi("t0", "t0", 1)
            b.fsqrt_d("fa4", "fa7")
        else:
            b.lw("t0", 0, "zero")
            for _ in range(5):
                b.addi("t0", "t0", 1)
            b.mark("oops")
        b.ret()
        return b.build()

    log, state = _outcome("cluster:2", build, 200_000_000, k, per_op=False)
    ref_log, ref_state = _outcome("cluster:2", build, 200_000_000, k,
                                  per_op=True)
    assert state[0][:2] == [SimulationError,
                            "mark label must end in _start/_end: 'oops'"]
    assert (log, state[0]) == (ref_log, ref_state[0])
