"""Observability layer tests: event collection, Chrome-trace export,
determinism, cycle-attribution profiles and the metrics registry."""

import dataclasses
import json

import pytest

from repro.api import (
    SCHEMA_VERSION,
    ClusterBackend,
    CoreBackend,
    RunRecord,
    SocBackend,
    Workload,
)
from repro.eval.__main__ import main
from repro.kernels.registry import KERNELS
from repro.obs import (
    METRIC_KINDS,
    Histogram,
    MetricsRegistry,
    ObsEvent,
    ObsSink,
    ProfileNode,
    chrome_trace,
    render_profile,
    render_timeline,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import Metric
from repro.sim.counters import Counters


def _observed_run(backend, workload):
    sink = ObsSink()
    record = backend.run(workload, check=False, obs=sink)
    return sink, record


class TestEventCollection:
    @pytest.fixture(scope="class")
    def core_run(self):
        return _observed_run(CoreBackend(),
                             Workload("expf", "copift", n=256))

    def test_core_scopes_and_lanes(self, core_run):
        sink, _ = core_run
        assert sink.scopes() == ["core"]
        assert sink.lanes("core") == ["fp", "int"]

    def test_disabled_by_default(self):
        record = CoreBackend().run(Workload("expf", "copift", n=256))
        assert record.profile is None

    def test_obs_true_embeds_profile_without_sink(self):
        record = CoreBackend().run(Workload("expf", "copift", n=256),
                                   obs=True)
        assert record.profile is not None

    def test_cluster_hierarchy_scopes(self):
        sink, _ = _observed_run(
            ClusterBackend(cores=4),
            Workload("expf", "copift", n=512))
        scopes = sink.scopes()
        assert "cluster0" in scopes
        assert [f"cluster0/core{k}" for k in range(4)] == \
            [s for s in scopes if "/" in s]
        # The cluster scope owns the shared lanes: banks, dma, barrier.
        cluster_lanes = sink.lanes("cluster0")
        assert "dma" in cluster_lanes
        assert any(lane.startswith("bank") for lane in cluster_lanes)

    def test_soc_hierarchy_scopes(self):
        sink, _ = _observed_run(
            SocBackend(clusters=2, cores=2, writeback=True),
            Workload("expf", "copift", n=512))
        scopes = sink.scopes()
        assert "soc" in scopes
        assert "soc/cluster0" in scopes and "soc/cluster1" in scopes
        assert "soc/cluster1/core1" in scopes
        soc_lanes = sink.lanes("soc")
        assert "l2" in soc_lanes
        assert any(lane.startswith("link") for lane in soc_lanes)


class TestChromeTrace:
    @pytest.fixture(scope="class")
    def soc_trace(self):
        sink, record = _observed_run(
            SocBackend(clusters=2, cores=2),
            Workload("expf", "copift", n=512))
        return chrome_trace(sink), sink, record

    def test_validates(self, soc_trace):
        data, sink, _ = soc_trace
        assert validate_chrome_trace(data) >= len(sink)

    def test_every_scope_is_a_named_process(self, soc_trace):
        data, sink, _ = soc_trace
        names = {e["args"]["name"] for e in data["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert names == set(sink.scopes())

    def test_dma_flow_arrows_pair_up(self, soc_trace):
        data, _, _ = soc_trace
        starts = [e for e in data["traceEvents"] if e["ph"] == "s"]
        finishes = [e for e in data["traceEvents"] if e["ph"] == "f"]
        assert starts, "expected dma.start flow arrows"
        assert {e["id"] for e in starts} == {e["id"] for e in finishes}
        assert all(e.get("bp") == "e" for e in finishes)

    def test_write_is_byte_deterministic(self, tmp_path):
        paths = []
        for i in range(2):
            sink, _ = _observed_run(
                ClusterBackend(cores=2),
                Workload("pi_lcg", "copift", n=256))
            path = tmp_path / f"run{i}.json"
            write_chrome_trace(sink, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_validate_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": []})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "Z", "pid": 1}]})


class TestValidateCli:
    def test_ok(self, tmp_path, capsys):
        from repro.obs.__main__ import main as obs_main

        sink, _ = _observed_run(CoreBackend(),
                                Workload("logf", "copift", n=256))
        path = tmp_path / "t.json"
        write_chrome_trace(sink, path)
        assert obs_main(["validate", str(path)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_invalid_file(self, tmp_path, capsys):
        from repro.obs.__main__ import main as obs_main

        path = tmp_path / "bad.json"
        path.write_text('{"traceEvents": []}')
        assert obs_main(["validate", str(path)]) == 1
        assert "invalid trace" in capsys.readouterr().err

    def test_usage(self, capsys):
        from repro.obs.__main__ import main as obs_main

        assert obs_main([]) == 2


class TestCliJobsDeterminism:
    def test_socscale_trace_stable_across_jobs(self, tmp_path):
        """The observed cell runs inline, so --trace bytes cannot
        depend on the sweep's sharding."""
        blobs = []
        for jobs in (1, 2, 8):
            path = tmp_path / f"jobs{jobs}.json"
            main(["socscale", "--n", "128", "--clusters", "1x2",
                  "--jobs", str(jobs), "--trace", str(path),
                  "--out", str(tmp_path / f"out{jobs}.txt")])
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
        assert validate_chrome_trace(json.loads(blobs[0])) > 0


def _leaves(node):
    if not node.children:
        return [node]
    return [leaf for child in node.children
            for leaf in _leaves(child)]


class TestProfileExactness:
    BACKENDS = (
        CoreBackend(),
        ClusterBackend(cores=4),
        SocBackend(clusters=2, cores=4, writeback=True),
    )

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_bucket_sums_equal_region_cycles(self, kernel):
        """Golden agreement: on every backend, every leaf's buckets sum
        *exactly* to its region cycles, and the root matches the
        record's makespan — attribution never loses or invents a
        cycle."""
        for backend in self.BACKENDS:
            record = backend.run(Workload(kernel, "copift", n=512),
                                 obs=True)
            node = ProfileNode.from_json(record.profile)
            assert node.cycles == record.cycles, backend.spec
            for leaf in _leaves(node):
                assert leaf.bucket_sum() == leaf.cycles, \
                    (backend.spec, leaf.scope)

    def test_render_mentions_buckets(self):
        record = CoreBackend().run(Workload("expf", "copift", n=512),
                                   obs=True)
        text = render_profile(ProfileNode.from_json(record.profile))
        assert "issue.int" in text
        assert "drain" in text
        assert "100.0%" in text


class TestStallFieldSync:
    def test_int_stall_fields_match_dataclass(self):
        introspected = [f.name for f in dataclasses.fields(Counters)
                        if f.name.startswith("stall_")]
        assert list(Counters.int_stall_fields()) == introspected

    def test_fp_stall_fields_match_dataclass(self):
        introspected = [f.name for f in dataclasses.fields(Counters)
                        if f.name.startswith("fp_stall_")]
        assert list(Counters.fp_stall_fields()) == introspected

    def test_total_stalls_sums_every_field(self):
        c = Counters()
        for i, name in enumerate(Counters.stall_fields(), start=1):
            setattr(c, name, i)
        n = len(Counters.stall_fields())
        assert c.total_stalls() == n * (n + 1) // 2


class TestMetricsRegistry:
    def test_default_collect_core(self):
        record = CoreBackend().run(Workload("expf", "copift", n=256))
        metrics = MetricsRegistry.default().collect(record)
        assert metrics["cycles"] == record.cycles
        assert metrics["ipc"] == record.ipc
        # Core runs have no cluster/SoC detail: those keys are absent,
        # not zero.
        assert "tcdm.conflict_cycles" not in metrics

    def test_default_collect_cluster(self):
        record = ClusterBackend(cores=2).run(
            Workload("expf", "copift", n=256))
        metrics = MetricsRegistry.default().collect(record)
        assert metrics["dma.bytes"] == record.cluster.dma_bytes
        assert metrics["tcdm.conflict_cycles"] == \
            record.cluster.tcdm_conflict_cycles

    def test_duplicate_rejected(self):
        registry = MetricsRegistry.default()
        with pytest.raises(ValueError):
            registry.register(registry.metrics[0])

    def test_render_lists_units(self):
        record = CoreBackend().run(Workload("expf", "copift", n=256))
        text = MetricsRegistry.default().render(record)
        assert "insn/cycle" in text
        assert "cycles" in text


class TestHistogram:
    def test_exact_percentiles_under_the_cap(self):
        hist = Histogram()
        for value in range(1, 101):       # 1..100, shuffled order
            hist.record((value * 37) % 101)
        assert hist.exact
        assert hist.count == 100
        assert hist.p50 == 50             # nearest rank: ceil(.5*100)
        assert hist.p95 == 95
        assert hist.p99 == 99
        assert hist.percentile(1.0) == hist.max == 100
        assert hist.min == 1

    def test_nearest_rank_has_no_float_error(self):
        # ceil(0.95 * 40) must be 38, not 39: 0.95 is inexact in
        # binary, so a naive ceil picks up the representation error.
        hist = Histogram()
        for value in range(1, 41):
            hist.record(value)
        assert hist.p95 == 38

    def test_bucket_edges_are_powers_of_two(self):
        assert Histogram.bucket_edge(0) == 0
        assert Histogram.bucket_edge(1) == 2
        assert Histogram.bucket_edge(2) == 4
        assert Histogram.bucket_edge(3) == 4
        assert Histogram.bucket_edge(4) == 8
        assert Histogram.bucket_edge(1023) == 1024

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            Histogram().record(-1)
        with pytest.raises(ValueError, match="quantile"):
            Histogram().percentile(0.0)

    def test_empty_histogram_yields_none(self):
        hist = Histogram()
        assert hist.p50 is None
        assert hist.mean is None
        assert hist.min is None and hist.max is None

    def test_beyond_the_cap_degrades_to_bucket_edges(self):
        hist = Histogram(sample_cap=8)
        for value in range(1, 17):
            hist.record(value)
        assert not hist.exact
        assert hist.count == 16
        # The rank-8 sample is 8; it lands in the (4, 16]-ish
        # power-of-two bucket whose upper edge is 16 — conservative,
        # never below the true percentile.
        assert hist.p50 == 16
        # The tail falls past every bucket boundary the rank reaches
        # conservatively: a bucket edge >= the true percentile.
        assert hist.p99 >= 16
        assert hist.max == 16             # scalars stay exact

    def test_merge_pools_counts_and_samples(self):
        left, right = Histogram(), Histogram()
        for value in (1, 2, 3):
            left.record(value)
        for value in (10, 20, 30):
            right.record(value)
        left.merge(right)
        assert left.count == 6
        assert left.sum == 66
        assert left.min == 1 and left.max == 30
        assert left.exact
        assert left.p50 == 3
        assert sum(left.buckets.values()) == 6

    def test_merge_respects_the_cap(self):
        left, right = Histogram(sample_cap=4), Histogram(sample_cap=4)
        for value in (1, 2, 3):
            left.record(value)
        for value in (4, 5, 6):
            right.record(value)
        left.merge(right)
        assert left.count == 6
        assert not left.exact             # only 4 samples retained

    @pytest.mark.parametrize("cap", (1 << 16, 8))
    def test_percentiles_sort_once_per_sample(self, cap, monkeypatch):
        """``collect`` reads p50, p95 and p99: they equal a fresh sort's
        in exact and bucket modes, and each histogram sorts at most once
        between one record or merge and the next."""
        import builtins

        real_sorted = builtins.sorted
        sorts = []

        def counting_sorted(iterable, *args, **kwargs):
            sorts.append(1)
            return real_sorted(iterable, *args, **kwargs)

        def reference(hist, q):
            rank = max(-(-q * hist.count // 100), 1)
            if hist.exact:
                return real_sorted(hist._samples)[rank - 1]
            seen = 0
            for edge in real_sorted(hist.buckets):
                seen += hist.buckets[edge]
                if seen >= rank:
                    return edge

        hist = Histogram(sample_cap=cap)
        registry = MetricsRegistry()
        registry.register(Metric("latency", "cycles", "latency",
                                 lambda r: hist, kind="histogram"))
        for step in range(30):
            if step == 12:
                other = Histogram(sample_cap=cap)
                other.record(5000)
                hist.merge(other)
            else:
                hist.record((step * 7919) % 1009)
            monkeypatch.setattr(builtins, "sorted", counting_sorted)
            out = [registry.collect(object()) for _ in range(2)]
            monkeypatch.setattr(builtins, "sorted", real_sorted)
            assert len(sorts) == 1
            sorts.clear()
            assert out[0] == out[1] == {
                "latency.count": step + 1,
                **{f"latency.p{q}": reference(hist, q)
                   for q in (50, 95, 99)}}
        assert hist.exact == (cap > 30)

    def test_to_json_is_stable(self):
        hist = Histogram()
        for value in (3, 1, 7):
            hist.record(value)
        blob = hist.to_json()
        assert blob["count"] == 3
        assert blob["sum"] == 11
        assert blob["exact"] is True
        assert blob["buckets"] == [[2, 1], [4, 1], [8, 1]]


class TestMetricKinds:
    def test_kinds_are_closed(self):
        assert METRIC_KINDS == ("counter", "gauge", "histogram")
        with pytest.raises(ValueError, match="unknown kind"):
            Metric("bad", "x", "help", lambda r: 0, kind="summary")

    def test_collect_flattens_histogram_metrics(self):
        hist = Histogram()
        for value in range(1, 101):
            hist.record(value)
        registry = MetricsRegistry()
        registry.register_many([
            Metric("reqs", "requests", "arrivals",
                   lambda r: 42, kind="counter"),
            Metric("latency", "cycles", "per-request latency",
                   lambda r: hist, kind="histogram"),
        ])
        out = registry.collect(object())
        assert out["reqs"] == 42
        assert out["latency.count"] == 100
        assert out["latency.p50"] == 50
        assert out["latency.p99"] == 99
        assert "latency" not in out       # flattened, not nested

    def test_render_resolves_flattened_units(self):
        hist = Histogram()
        hist.record(7)
        registry = MetricsRegistry()
        registry.register(Metric("latency", "cycles", "latency",
                                 lambda r: hist, kind="histogram"))
        text = registry.render(object())
        count_row = next(line for line in text.splitlines()
                         if line.startswith("latency.count"))
        p50_row = next(line for line in text.splitlines()
                       if line.startswith("latency.p50"))
        assert count_row.endswith("samples")
        assert p50_row.endswith("cycles")

    def test_empty_histogram_metric_is_skipped(self):
        registry = MetricsRegistry()
        registry.register(Metric("latency", "cycles", "latency",
                                 lambda r: None, kind="histogram"))
        assert registry.collect(object()) == {}


def _issue(lane, ts, name, **args):
    """One issue event as a core's obs sink records it."""
    return ObsEvent("core", lane, name, ts, 1, "issue", args or None)


class TestTimelineRendering:
    def test_trailing_gap_elided(self):
        events = [_issue("int", 0, "addi")]
        text = render_timeline(events, start=0, end=50)
        assert text.rstrip().endswith("...")

    def test_show_pc(self):
        events = [_issue("int", 0, "addi", pc=12)]
        text = render_timeline(events, show_pc=True)
        assert "#12" in text
        assert "#" not in render_timeline(events)

    def test_wide_mnemonic_marked_not_misaligned(self):
        events = [
            _issue("int", 0, "a.very.long.mnemonic.indeed"),
            _issue("fp", 0, "fmadd.d"),
        ]
        text = render_timeline(events, width=10)
        row = next(line for line in text.splitlines()
                   if "fmadd.d" in line)
        assert "~" in row
        assert "a.very.long.mnemonic.indeed" not in row


class TestSchemaV4:
    def test_profile_round_trips(self):
        record = CoreBackend().run(Workload("expf", "copift", n=256),
                                   obs=True)
        data = json.loads(json.dumps(record.to_json()))
        assert data["schema"] == SCHEMA_VERSION
        back = RunRecord.from_json(data)
        assert back.profile == record.profile
        node = ProfileNode.from_json(back.profile)
        assert node.bucket_sum() == node.cycles

    def test_unobserved_record_has_null_profile(self):
        record = CoreBackend().run(Workload("expf", "copift", n=256))
        assert record.to_json()["profile"] is None

    def test_v3_payload_rejected_with_hint(self):
        record = CoreBackend().run(Workload("expf", "copift", n=256))
        stale = record.to_json()
        stale["schema"] = 3
        with pytest.raises(ValueError, match="observability"):
            RunRecord.from_json(stale)


class TestProfileNode:
    def test_json_round_trip(self):
        node = ProfileNode(
            scope="soc", cycles=100,
            children=[ProfileNode(scope="soc/cluster0", cycles=100,
                                  buckets={"issue.int": 60,
                                           "drain": 40},
                                  overlap={"raw": 7})])
        back = ProfileNode.from_json(node.to_json())
        assert back == node
        assert back.children[0].bucket_sum() == 100

    def test_core_profile_drain_is_residual(self):
        sink, record = _observed_run(
            CoreBackend(), Workload("poly_lcg", "copift", n=256))
        node = ProfileNode.from_json(record.profile)
        assert node.bucket_sum() == record.cycles
        assert "drain" in node.buckets
