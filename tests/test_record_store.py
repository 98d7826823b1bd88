"""RunRecords survive the result store unchanged.

Every record the serve layer answers from disk went through
``RunStore.put`` (``RunRecord.to_json``) and ``RunStore.get``
(``RunRecord.from_json``).  Generated records (each optional block
present or absent, tuples of several lengths, awkward floats) and real
records from every backend rung must come back ``==`` the original,
with byte-equal ``sort_keys`` JSON.  The persisted key names are
pinned: they are the wire format, and changing one must bump
``SCHEMA_VERSION``.
"""

import json
import tempfile
from dataclasses import fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunRecord, Workload, parse_backend
from repro.api.record import SCHEMA_VERSION
from repro.serve import RunStore
from repro.traffic import (
    build_profiles,
    default_scenario,
    simulate,
    stream_record,
)

INTS = st.integers(min_value=-2**40, max_value=2**40)
FLOATS = st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 1e300]) \
    | st.floats(allow_nan=False, allow_infinity=False)
TEXT = st.text(max_size=8)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | INTS | FLOATS | TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=8,
)
SCALARS = {int: INTS, float: FLOATS, str: TEXT, bool: st.booleans()}


def _values(hint):
    """A strategy for one dataclass field type of the record tree."""
    args = get_args(hint)
    if type(None) in args:                          # X | None
        (inner,) = [a for a in args if a is not type(None)]
        return st.none() | _values(inner)
    if is_dataclass(hint):
        hints = get_type_hints(hint)
        return st.builds(hint, **{f.name: _values(hints[f.name])
                                  for f in fields(hint)})
    origin = get_origin(hint) or hint
    if origin is tuple:
        return st.lists(_values(args[0]), max_size=5).map(tuple)
    if origin is dict:
        return st.dictionaries(TEXT, JSON_VALUES, max_size=4)
    return SCALARS[hint]


def _blob(record: RunRecord) -> str:
    return json.dumps(record.to_json(), sort_keys=True)


def _through_store(records):
    """Each record after a ``put``/``get`` round trip of one store."""
    with tempfile.TemporaryDirectory() as root:
        store = RunStore(root, fingerprint="0" * 64)
        for i, record in enumerate(records):
            store.put(f"k{i}", record)
        return [store.get(f"k{i}") for i in range(len(records))]


def _assert_round_trip(records):
    back = _through_store(records)
    for original, again in zip(records, back):
        assert again == original
        assert _blob(again) == _blob(original)


@settings(max_examples=150, deadline=None)
@given(st.lists(_values(RunRecord), min_size=1, max_size=3))
def test_generated_records_round_trip(records):
    _assert_round_trip(records)


@pytest.fixture(scope="module")
def real_records():
    workload = Workload("pi_lcg", "copift", n=512)
    records = [parse_backend(spec).run(workload) for spec in
               ("core", "cluster:1", "cluster:4+wb", "soc:1x1",
                "soc:2x4+wb")]
    records.append(parse_backend("cluster:4").run(workload, obs=True))
    scenario = default_scenario()
    profiles = build_profiles(scenario)
    result = simulate(scenario, profiles, 0.0005, 20_000, seed=1)
    records.append(stream_record(scenario, profiles, result, seed=1))
    return records


def test_real_records_round_trip(real_records):
    _assert_round_trip(real_records)


#: The persisted keys of schema v5, block by block.
PERSISTED_KEYS = {
    "": {"schema", "kernel", "variant", "n", "block", "seed", "backend",
         "cycles", "total_cycles", "int_instructions", "fp_instructions",
         "ipc", "counters", "power", "cluster", "soc_detail", "profile",
         "stream_detail"},
    "power": {"cycles", "dynamic_energy_pj", "constant_energy_pj",
              "breakdown_pj", "power_mw", "energy_pj"},
    "cluster": {"cores", "tcdm_accesses", "tcdm_conflict_cycles",
                "tcdm_bank_conflicts", "dma_bytes", "dma_bytes_read",
                "dma_bytes_written", "dma_busy_cycles", "barrier_count",
                "core_cycles", "writeback"},
    "soc_detail": {"clusters", "cores_per_cluster", "link_beats",
                   "link_stall_cycles", "l2_bytes_read",
                   "l2_bytes_written", "dma_bytes_read",
                   "dma_bytes_written", "cluster_cycles",
                   "cluster_dma_stall_cycles", "barrier_count",
                   "writeback"},
    "stream_detail": {"clusters", "cores_per_cluster", "policy",
                      "offered_rate", "duration", "requests",
                      "completed", "makespan", "peak_queue_depth",
                      "cluster_busy_cycles", "classes"},
    "class": {"name", "weight", "priority", "requests", "completed",
              "p50", "p95", "p99", "mean_queue_cycles",
              "mean_service_cycles", "qos_beats", "qos_stall_cycles"},
}


def test_persisted_keys_are_pinned(real_records):
    assert SCHEMA_VERSION == 5, \
        "a new schema version: update PERSISTED_KEYS to match"
    seen = {block: set() for block in PERSISTED_KEYS}
    for data in map(RunRecord.to_json, real_records):
        seen[""] |= set(data)
        for block in ("power", "cluster", "soc_detail", "stream_detail"):
            if data[block] is not None:
                seen[block] |= set(data[block])
        if data["stream_detail"] is not None:
            for stats in data["stream_detail"]["classes"]:
                seen["class"] |= set(stats)
    assert seen == PERSISTED_KEYS, \
        "a persisted key changed: bump SCHEMA_VERSION"
