"""RunRecords survive the result store unchanged.

Every record the serve layer answers went through ``RunStore.put``
(``RunRecord.to_json``) and ``RunStore.get`` (``RunRecord.from_json``),
from the store's in-memory tier or from disk.  Generated records (each
optional block present or absent, tuples of several lengths, awkward
floats) and real records from every backend rung must come back ``==``
the original, with byte-equal ``sort_keys`` JSON, by both paths.  A
record that a caller mutates, before or after it passed the store,
must not change a later answer.  The persisted key names are pinned:
they are the wire format, and changing one must bump
``SCHEMA_VERSION``.
"""

import json
import os
import tempfile
from dataclasses import fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunRecord, Workload, parse_backend
from repro.api.record import SCHEMA_VERSION
import repro.serve.store as store_mod
from repro.serve import CacheError, RunStore
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
    """Each record after a ``put``/``get`` round trip: answered by the
    writing store (its tier) and by a fresh store (the disk)."""
    with tempfile.TemporaryDirectory() as root:
        store = RunStore(root, fingerprint="0" * 64)
        for i, record in enumerate(records):
            store.put(f"k{i}", record)
        reader = RunStore(root, fingerprint="0" * 64)
        return [(store.get(f"k{i}"), reader.get(f"k{i}"))
                for i in range(len(records))]


def _assert_round_trip(records):
    back = _through_store(records)
    for original, answers in zip(records, back):
        for again in answers:
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


# -- the in-memory tier ---------------------------------------------------

CELL = ("pi_lcg", "copift", 512, "cluster:4")


@pytest.fixture
def observed(real_records):
    """A record with a nested profile (cores under a cluster)."""
    (record,) = [r for r in real_records if r.profile is not None]
    assert record.profile["children"]
    return record


def _vandalize(record):
    """Mutate every mutable part a caller can reach."""
    record.counters["int_issued"] = -1
    record.power.breakdown_pj.clear()
    record.profile["children"][0]["cycles"] = -1
    record.profile["children"].append({"scope": "bogus"})


def test_a_mutated_hit_does_not_leak(tmp_path, observed):
    store = RunStore(tmp_path, fingerprint="0" * 64)
    store.put("k", observed)
    first = store.get("k", cell=CELL)
    _vandalize(first)
    again = store.get("k", cell=CELL)
    assert again == observed and _blob(again) == _blob(observed)
    assert store.stats.hits == 2


def test_a_mutated_put_argument_does_not_leak(tmp_path, observed):
    record = RunRecord.from_json(observed.to_json())
    store = RunStore(tmp_path, fingerprint="0" * 64)
    store.put("k", record)
    _vandalize(record)
    again = store.get("k", cell=CELL)
    assert again == observed and _blob(again) == _blob(observed)


def test_tier_stays_at_its_bound(tmp_path, monkeypatch, real_records):
    monkeypatch.setattr(store_mod, "TIER_ENTRIES", 3)
    store = RunStore(tmp_path, fingerprint="0" * 64)
    for i, record in enumerate(real_records):
        store.put(f"k{i}", record)
        assert len(store._tier) == min(i + 1, 3)
    # Least recently used first out: k0 was evicted, reads from disk
    # and re-enters; a hit makes k5 the most recent.
    assert list(store._tier) == [f"k{i}" for i in range(4, 7)]
    assert store.get("k0") == real_records[0]
    assert list(store._tier) == ["k5", "k6", "k0"]
    assert store.get("k5") == real_records[5]
    assert list(store._tier) == ["k6", "k0", "k5"]


def test_the_tier_answers_without_the_disk(tmp_path, observed):
    """Documented: an entry another process deletes on disk can still
    be answered from the tier (keys are content addresses, so the
    answer is still right)."""
    store = RunStore(tmp_path, fingerprint="0" * 64)
    store.put("k", observed)
    os.remove(store.entry_path("k"))
    assert store.get("k") == observed
    assert RunStore(tmp_path, fingerprint="0" * 64).get("k") is None


def test_a_mismatched_entry_raises_on_every_hit(tmp_path, observed):
    """An entry describing another cell raises whether it was read
    from disk (and never enters the tier) or committed here."""
    store = RunStore(tmp_path, fingerprint="0" * 64)
    store.put("k", observed)
    wrong = ("pi_lcg", "copift", 1024, "cluster:4")
    reader = RunStore(tmp_path, fingerprint="0" * 64)
    for _ in range(2):
        for answering in (store, reader):
            with pytest.raises(CacheError, match="n=1024"):
                answering.get("k", cell=wrong)
        assert "k" not in reader._tier
    assert reader.get("k", cell=CELL) == observed


def test_a_corrupt_entry_raises_on_every_read(tmp_path):
    store = RunStore(tmp_path, fingerprint="0" * 64)
    os.makedirs(store.generation_dir)
    with open(store.entry_path("k"), "w", encoding="utf-8") as handle:
        handle.write('{"schema": 5, "kernel": ')
    for _ in range(2):
        with pytest.raises(CacheError, match="corrupt cache entry"):
            store.get("k")
        assert "k" not in store._tier
