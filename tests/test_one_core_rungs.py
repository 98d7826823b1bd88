"""A one-core cluster or SoC equals the bare core on generated programs.

``cluster:1`` and ``soc:1x1``, each with write-back simulation off and
on, wrap one core in the TCDM, DMA, barrier and interconnect models;
with no second core nothing ever contends, so every program must leave
the same state as on a bare :class:`Machine`: the ``RunResult``, the
error type and text, registers, float bits, memory bytes and SSR
movers (:func:`programs._lane_state`).  The programs are the shared
generators of :mod:`programs`, run per-op or with runs compiled at
first entry.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterMachine
from repro.sim import Machine, blocks
from repro.soc import SocConfig, SocMachine

from programs import _lane_state, compiled, lane_programs, stream_programs

#: (clusters or None for a bare cluster, write-back)
RUNGS = {"cluster:1": (None, False), "cluster:1+wb": (None, True),
         "soc:1x1": (1, False), "soc:1x1+wb": (1, True)}


def _outcome(rung, build, config, max_steps):
    """Run the program of lane 0 on *rung* (None: the bare core)."""
    program, memory = build(0)
    machine = None
    if rung is None:
        core = Machine(config=config, memory=memory)
    else:
        clusters, writeback = RUNGS[rung]
        cc = ClusterConfig(n_cores=1, writeback=writeback)
        if clusters is None:
            machine = cluster = ClusterMachine(cc, core_config=config)
        else:
            machine = SocMachine(SocConfig(n_clusters=clusters, cluster=cc),
                                 core_config=config)
            cluster = machine.add_cluster()
        core = cluster.add_core(program, memory)
    result = error = None
    try:
        if machine is None:
            result = core.run(program, max_steps=max_steps)
        else:
            machine.run(max_steps=max_steps)
            result = core.result()
    except Exception as exc:
        error = exc
    return _lane_state(result, error, core)


def _check(case, k):
    _, config, max_steps, build = case
    with compiled(k):
        bare = _outcome(None, build, config, max_steps)
        for rung in RUNGS:
            assert _outcome(rung, build, config, max_steps) == bare, rung


@pytest.mark.filterwarnings(
    "ignore:overflow encountered in cast:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(case=lane_programs(), k=st.sampled_from((0, blocks.K)))
def test_lane_programs_match_the_bare_core(case, k):
    _check(case, k)


@pytest.mark.filterwarnings(
    "ignore:overflow encountered in cast:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(case=stream_programs(), k=st.sampled_from((0, blocks.K)))
def test_stream_programs_match_the_bare_core(case, k):
    _check(case, k)
