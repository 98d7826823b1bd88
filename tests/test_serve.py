"""The serve layer: timing fingerprint, content-addressed store,
cache-aware sweeps, the coalescing async service, and the wire
protocol.  Simulations here run tiny cells (``pi_lcg`` at small n) or
injected fake runners — the layer under test is the caching, not the
simulator."""

import asyncio
import dataclasses
import json
import os
import shutil

import pytest

from repro.api import (
    CoreBackend,
    Sweep,
    Workload,
    parse_backend,
    timing_fingerprint,
)
from repro.api.backend import ClusterBackend
import repro.api.fingerprint as fp_mod
from repro.cluster import ClusterConfig
from repro.serve import (
    CacheError,
    EvalService,
    ProtocolError,
    RunStore,
    cache_key,
    decode_request,
    encode_response,
    use_store,
)
from repro.energy import EnergyModel, EnergyParams
from repro.eval.__main__ import main as eval_main
import repro.serve.__main__ as serve_cli
import repro.serve.store as store_mod
from repro.serve.protocol import serve_session
from repro.serve.store import backend_state
from repro.sim import CoreConfig


def _cell(n=256, variant="baseline", kernel="pi_lcg"):
    return Workload(kernel, variant, n=n), CoreBackend()


def _record_for(workload, backend):
    return backend.run(workload, check=False)


class TestFingerprint:
    """Satellite: stability, and sensitivity to a one-byte source edit,
    proved on a temporary copy of the package."""

    @staticmethod
    def _fingerprint_of(root, monkeypatch):
        """The fingerprint of the package copy at *root*, unmemoized."""
        monkeypatch.setattr(fp_mod, "PACKAGE_ROOT", root)
        monkeypatch.setattr(fp_mod, "_FINGERPRINT", None)
        return timing_fingerprint()

    @staticmethod
    def _copy_package(tmp_path):
        copy = tmp_path / "repro"
        shutil.copytree(fp_mod.PACKAGE_ROOT, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return copy

    def test_stable_across_calls(self):
        assert timing_fingerprint() == timing_fingerprint()

    def test_content_addressed_not_path_addressed(self, tmp_path,
                                                  monkeypatch):
        # A byte-identical copy elsewhere names the same model.  The
        # live fingerprint is taken fresh, just before the copy, so an
        # edit made earlier in the process cannot fail the comparison.
        monkeypatch.setattr(fp_mod, "_FINGERPRINT", None)
        live = timing_fingerprint()
        copy = self._copy_package(tmp_path)
        assert self._fingerprint_of(copy, monkeypatch) == live

    def test_sensitive_to_a_one_byte_source_edit(self, tmp_path,
                                                 monkeypatch):
        copy = self._copy_package(tmp_path)
        before = self._fingerprint_of(copy, monkeypatch)
        source = copy / "sim" / "scheduler.py"
        data = bytearray(source.read_bytes())
        data[-1] ^= 1
        source.write_bytes(bytes(data))
        assert self._fingerprint_of(copy, monkeypatch) != before

    def test_covers_every_source_file(self, tmp_path, monkeypatch):
        # A new module changes the model too, not only edits.
        copy = self._copy_package(tmp_path)
        before = self._fingerprint_of(copy, monkeypatch)
        (copy / "sim" / "extra.py").write_text("")
        assert self._fingerprint_of(copy, monkeypatch) != before

    def test_memoized_once_per_process(self, tmp_path, monkeypatch):
        copy = self._copy_package(tmp_path)
        first = self._fingerprint_of(copy, monkeypatch)
        (copy / "sim" / "extra.py").write_text("")
        assert timing_fingerprint() == first


class TestCacheKey:
    def test_deterministic(self):
        w, b = _cell()
        assert cache_key(w, b) == cache_key(w, b)

    def test_every_workload_field_is_load_bearing(self):
        w, b = _cell()
        base = cache_key(w, b)
        for changed in (
            Workload("poly_lcg", "baseline", n=256),
            Workload("pi_lcg", "copift", n=256),
            Workload("pi_lcg", "baseline", n=512),
            Workload("pi_lcg", "baseline", n=256, seed=7),
        ):
            assert cache_key(changed, b) != base

    def test_backend_distinguishes(self):
        w, _ = _cell()
        assert cache_key(w, CoreBackend()) \
            != cache_key(w, ClusterBackend(cores=2))

    def test_default_config_normalized(self):
        # None config means "the default instance"; both spellings run
        # the identical machine and must share one cache entry.
        w, _ = _cell()
        assert cache_key(w, ClusterBackend(cores=4)) \
            == cache_key(w, ClusterBackend(cores=4,
                                           config=ClusterConfig()))

    def test_unknown_backend_uncacheable(self):
        class WeirdBackend:
            spec = "weird"

        w, _ = _cell()
        assert backend_state(WeirdBackend()) is None
        assert cache_key(w, WeirdBackend()) is None

    def test_fingerprint_is_part_of_the_key(self):
        w, b = _cell()
        keys = [cache_key(w, b, fingerprint=fp)
                for fp in ("aaaa" * 16, "bbbb" * 16, "aaaa" * 16)]
        assert keys[0] != keys[1]
        assert keys[2] == keys[0]

    #: Digests of one cell under a fixed fingerprint: entry file names.
    #: Changing one orphans every stored entry of that cell.
    PINNED = {
        "core": "b028ea7c796062d5b4f3f4b6060e9a49"
                "f06401b5317cc7f9c8e4540c0ec8c519",
        "cluster:4+wb": "c14c3d41023e0b324c13f73238e5bbb3"
                        "32202866baad4c386180a8caf2c2e508",
        "soc:2x4": "68f3ff60b70a010b62b159f55b2fa888"
                   "3f8cd077fb4401cf3a3e18b6a3f17dc2",
    }

    @pytest.mark.parametrize("spec", sorted(PINNED))
    def test_keys_are_pinned(self, spec, monkeypatch):
        monkeypatch.setattr(store_mod, "_KEY_MEMO", {})
        w = Workload("expf", "copift", n=1024)
        for _ in range(2):                  # computed, then memoized
            assert cache_key(w, parse_backend(spec),
                             fingerprint="0" * 64) == self.PINNED[spec]


class TestKeyMemo:
    """``cache_key`` remembers digests by value: equal inputs share a
    digest, inputs that encode differently never do."""

    @staticmethod
    def _fresh(workload, backend, monkeypatch):
        """The digest computed with an empty memo."""
        monkeypatch.setattr(store_mod, "_KEY_MEMO", {})
        return cache_key(workload, backend)

    @pytest.mark.parametrize("custom_first", [False, True],
                             ids=["default-first", "custom-first"])
    def test_energy_model_is_part_of_the_memo(self, custom_first,
                                              monkeypatch):
        # CoreBackend's == ignores its energy model (compare=False), so
        # a memo keyed on the backend alone would serve the default
        # model's key for a record priced with other constants.
        w, default = _cell()
        backends = [default] + [
            CoreBackend(energy_model=EnergyModel(params))
            for params in (EnergyParams(constant_mw=31.0),
                           EnergyParams(fp_add_pj=-0.0),
                           EnergyParams(fp_add_pj=0.0))]
        assert all(b == default for b in backends)
        fresh = [self._fresh(w, b, monkeypatch) for b in backends]
        assert len(set(fresh)) == len(backends)
        if custom_first:
            backends, fresh = backends[::-1], fresh[::-1]
        monkeypatch.setattr(store_mod, "_KEY_MEMO", {})
        assert [cache_key(w, b) for b in backends] == fresh
        assert [cache_key(w, b) for b in backends] == fresh
        # An equal model built afresh shares the memoized digest.
        again = CoreBackend(energy_model=EnergyModel(
            EnergyParams(constant_mw=31.0)))
        assert cache_key(w, again) in fresh

    @pytest.mark.parametrize("make, config_cls, field", [
        (lambda c: CoreBackend(config=c), CoreConfig, "fpss_queue_depth"),
        (lambda c: ClusterBackend(cores=2, core_config=c), CoreConfig,
         "fpss_queue_depth"),
        (lambda c: ClusterBackend(cores=2, config=c), ClusterConfig,
         "barrier_latency"),
    ], ids=["core-config", "cluster-core-config", "cluster-config"])
    def test_mutated_config_gives_a_fresh_key(self, make, config_cls,
                                              field):
        config = config_cls()
        backend = make(config)
        w, _ = _cell()
        before = cache_key(w, backend)
        assert cache_key(w, backend) == before
        setattr(config, field, getattr(config, field) + 1)
        assert cache_key(w, backend) != before

    def test_memo_stays_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(store_mod, "KEY_MEMO_ENTRIES", 8)
        monkeypatch.setattr(store_mod, "_KEY_MEMO", {})
        cells = [Workload("pi_lcg", n=4 * (i + 1)) for i in range(20)]
        first = [cache_key(w, CoreBackend()) for w in cells]
        assert len(store_mod._KEY_MEMO) == 8
        # Evicted cells are keyed afresh, to the same digest.
        assert [cache_key(w, CoreBackend()) for w in cells] == first
        assert len(store_mod._KEY_MEMO) == 8
        assert len(set(first)) == len(cells)


class TestRunStore:
    def test_round_trip_is_byte_identical(self, tmp_path):
        store = RunStore(tmp_path / "cache")
        w, b = _cell(n=64)
        record = _record_for(w, b)
        store.save(w, b, record)
        cached = store.lookup(w, b)
        assert cached == record
        assert json.dumps(cached.to_json(), sort_keys=True) \
            == json.dumps(record.to_json(), sort_keys=True)
        assert store.stats.stores == 1
        assert store.stats.hits == 1

    def test_miss_counted(self, tmp_path):
        store = RunStore(tmp_path / "cache")
        assert store.lookup(*_cell()) is None
        assert store.stats.misses == 1

    def test_torn_temp_file_ignored_and_recomputed(self, tmp_path):
        # Satellite: crash safety.  A writer that died mid-write leaves
        # only a *.tmp.* file; lookups ignore it (miss -> recompute)
        # and the recomputed entry commits fine next to the litter.
        store = RunStore(tmp_path / "cache")
        w, b = _cell(n=64)
        key = store.key_for(w, b)
        os.makedirs(store.generation_dir)
        torn = store.entry_path(key) + ".tmp.999.0"
        with open(torn, "w", encoding="utf-8") as handle:
            handle.write('{"kernel": "pi_lcg", "var')  # torn mid-write
        assert store.lookup(w, b) is None
        assert store.stats.misses == 1
        record = _record_for(w, b)
        store.save(w, b, record)
        assert store.lookup(w, b) == record
        assert os.path.exists(torn)  # litter is harmless, not fatal

    def test_corrupt_committed_entry_names_the_file(self, tmp_path):
        store = RunStore(tmp_path / "cache")
        w, b = _cell(n=64)
        key = store.key_for(w, b)
        os.makedirs(store.generation_dir)
        path = store.entry_path(key)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{ not json")
        with pytest.raises(CacheError) as excinfo:
            store.lookup(w, b)
        assert path in str(excinfo.value)
        assert "--no-cache" in str(excinfo.value)

    def test_identity_mismatch_is_loud(self, tmp_path):
        # An entry whose payload describes a different cell than its
        # key means store corruption; returning it would be a wrong
        # result, so it must raise instead.
        store = RunStore(tmp_path / "cache")
        w, b = _cell(n=64)
        other = Workload("pi_lcg", "baseline", n=32)
        store.put(store.key_for(w, b), _record_for(other, b))
        with pytest.raises(CacheError, match="n=64"):
            store.lookup(w, b)

    def test_root_must_be_a_directory(self, tmp_path):
        rogue = tmp_path / "cache"
        rogue.write_text("not a dir")
        with pytest.raises(CacheError) as excinfo:
            RunStore(rogue)
        assert str(rogue) in str(excinfo.value)

    def test_directory_under_a_file_is_a_cache_error(self, tmp_path):
        """``put`` and ``flush_stats`` create directories; failing to
        is a :class:`CacheError` naming the path, not an OSError."""
        blocker = tmp_path / "F"
        blocker.write_text("a regular file")
        store = RunStore(blocker / "sub")
        w, b = _cell(n=64)
        with pytest.raises(CacheError, match="cannot create") as excinfo:
            store.save(w, b, _record_for(w, b))
        assert str(blocker) in str(excinfo.value)
        with pytest.raises(CacheError, match="cannot create"):
            store.flush_stats()

    def test_generation_partitions_by_fingerprint(self, tmp_path):
        w, b = _cell(n=64)
        record = _record_for(w, b)
        old = RunStore(tmp_path / "cache", fingerprint="aaaa" * 16)
        old.save(w, b, record)
        new = RunStore(tmp_path / "cache", fingerprint="bbbb" * 16)
        # A timing change means old entries are never consulted.
        assert new.lookup(w, b) is None
        described = new.describe()
        assert described["entries"] == 0
        assert described["stale_entries"] == 1

    def test_flush_stats_accumulates_and_zeroes(self, tmp_path):
        store = RunStore(tmp_path / "cache")
        w, b = _cell(n=64)
        store.save(w, b, _record_for(w, b))
        store.lookup(w, b)
        merged = store.flush_stats()
        assert merged["stores"] == 1
        assert merged["hits"] == 1
        assert store.stats.hits == 0
        store.lookup(w, b)
        assert store.flush_stats()["hits"] == 2

    def test_uncacheable_save_is_a_noop(self, tmp_path):
        class WeirdBackend:
            spec = "weird"

        store = RunStore(tmp_path / "cache")
        w, b = _cell(n=64)
        store.save(w, WeirdBackend(), _record_for(w, b))
        assert store.stats.stores == 0


class TestSweepCache:
    def _sweep(self):
        workloads = [Workload("pi_lcg", v, n=256)
                     for v in ("baseline", "copift")]
        return Sweep(workloads, backends=("core",))

    def _counting(self, monkeypatch):
        """Count cells that actually reach the simulation batch."""
        import repro.api.sweep as sweep_mod
        simulated = []
        real = sweep_mod._run_batch

        def counting(batch):
            simulated.extend(batch)
            return real(batch)

        monkeypatch.setattr(sweep_mod, "_run_batch", counting)
        return simulated

    def test_warm_run_simulates_nothing(self, tmp_path, monkeypatch):
        simulated = self._counting(monkeypatch)
        store = RunStore(tmp_path / "cache")
        sweep = self._sweep()
        cold = sweep.run(cache=store)
        assert len(simulated) == 2
        assert store.stats.to_json() == {
            "hits": 0, "misses": 2, "stores": 2, "deduped": 0}
        store.stats = type(store.stats)()
        warm = sweep.run(cache=store)
        assert len(simulated) == 2  # unchanged: zero new simulations
        assert store.stats.hits == len(sweep.cells())
        assert [json.dumps(r.to_json(), sort_keys=True) for r in warm] \
            == [json.dumps(r.to_json(), sort_keys=True) for r in cold]

    def test_cached_equals_uncached(self, tmp_path):
        store = RunStore(tmp_path / "cache")
        sweep = self._sweep()
        sweep.run(cache=store)
        warm = sweep.run(cache=store)
        bare = sweep.run(cache=False)
        assert [json.dumps(r.to_json(), sort_keys=True) for r in warm] \
            == [json.dumps(r.to_json(), sort_keys=True) for r in bare]

    def test_in_sweep_dedupe_fans_out_one_record(self, tmp_path,
                                                 monkeypatch):
        # Satellite: identical cells inside one sweep simulate once;
        # followers receive the very same object, so the fan-out is
        # byte-identical by construction.
        simulated = self._counting(monkeypatch)
        w = Workload("pi_lcg", n=256)
        sweep = Sweep([w, w, w], backends=("core",))
        store = RunStore(tmp_path / "cache")
        records = sweep.run(cache=store)
        assert len(simulated) == 1
        assert records[1] is records[0]
        assert records[2] is records[0]
        assert store.stats.deduped == 2

    def test_dedupe_without_store(self, monkeypatch):
        simulated = self._counting(monkeypatch)
        w = Workload("pi_lcg", n=256)
        assert Sweep([w, w], backends=("core",)).run()[0] is not None
        assert len(simulated) == 1

    def test_no_cache_by_default(self, tmp_path, monkeypatch):
        # Library sweeps must not touch any store unless one is
        # activated; only the eval CLI turns caching on by default.
        simulated = self._counting(monkeypatch)
        sweep = self._sweep()
        sweep.run()
        sweep.run()
        assert len(simulated) == 4

    def test_ambient_activation(self, tmp_path, monkeypatch):
        simulated = self._counting(monkeypatch)
        store = RunStore(tmp_path / "cache")
        sweep = self._sweep()
        with use_store(store):
            sweep.run()
            sweep.run()
        assert len(simulated) == 2
        with use_store(store):
            with use_store(None):   # the --no-cache escape hatch
                sweep.run()
        assert len(simulated) == 4

    def test_check_bypasses_persistent_store(self, tmp_path,
                                             monkeypatch):
        # A cached record cannot attest a fresh output verification.
        simulated = self._counting(monkeypatch)
        store = RunStore(tmp_path / "cache")
        sweep = self._sweep()
        sweep.run(cache=store)
        sweep.run(cache=store, check=True)
        assert len(simulated) == 4
        assert store.stats.hits == 0

    def test_jobs_parallel_path_saves_too(self, tmp_path):
        store = RunStore(tmp_path / "cache")
        workloads = [Workload("pi_lcg", v, n=n)
                     for v in ("baseline", "copift")
                     for n in (128, 256)]
        sweep = Sweep(workloads, backends=("core",))
        cold = sweep.run(jobs=2, cache=store)
        assert store.stats.stores == 4
        store.stats = type(store.stats)()
        warm = sweep.run(jobs=2, cache=store)
        assert store.stats.hits == 4
        assert [json.dumps(r.to_json(), sort_keys=True) for r in warm] \
            == [json.dumps(r.to_json(), sort_keys=True) for r in cold]


class _CountingRunner:
    """Injected simulation: counts calls, tracks concurrency, yields
    control so coalescing windows actually open."""

    def __init__(self, delay=0.005):
        self.calls = []
        self.active = 0
        self.peak = 0
        self.delay = delay

    async def __call__(self, workload, backend):
        self.calls.append((workload, backend.spec))
        self.active += 1
        self.peak = max(self.peak, self.active)
        try:
            await asyncio.sleep(self.delay)
        finally:
            self.active -= 1
        base = _RECORD_CACHE.get((workload.kernel, workload.variant))
        if base is None:
            base = backend.run(workload, check=False)
            _RECORD_CACHE[(workload.kernel, workload.variant)] = base
        return dataclasses.replace(base, n=workload.n,
                                   seed=workload.seed)


_RECORD_CACHE: dict = {}


class TestEvalService:
    def test_single_flight_stress(self, tmp_path):
        # Satellite: many concurrent clients over a mixed hot/cold key
        # set -> exactly one simulation per unique cold cell.
        runner = _CountingRunner()
        store = RunStore(tmp_path / "cache")
        hot = Workload("pi_lcg", n=64)
        store.save(hot, CoreBackend(),
                   _record_for(hot, CoreBackend()))
        cold = [Workload("pi_lcg", n=n) for n in (96, 128, 192)]

        async def drive():
            service = EvalService(store=store, runner=runner)
            requests = ([(hot, CoreBackend())] * 10
                        + [(w, CoreBackend()) for w in cold] * 8)
            results = await asyncio.gather(*[
                service.evaluate(w, b) for w, b in requests])
            await service.close()
            return service, results

        service, results = asyncio.run(drive())
        statuses = [status for _, status in results]
        assert len(runner.calls) == len(cold)   # single-flight
        assert statuses.count("hit") == 10
        assert statuses.count("miss") == len(cold)
        assert statuses.count("coalesced") == len(cold) * 7
        assert service.stats.requests == len(results)
        # Coalesced waiters got the miss's record object verbatim.
        by_n = {}
        for (record, _), (w, _) in zip(results, ([(hot, None)] * 10
                                                 + [(w, None)
                                                    for w in cold] * 8)):
            by_n.setdefault(w.n, []).append(record)
        for n, records in by_n.items():
            if n != 64:
                assert all(r is records[0] for r in records)

    def test_warm_service_hits_store(self, tmp_path):
        runner = _CountingRunner()
        store = RunStore(tmp_path / "cache")
        w, b = _cell(n=64)

        async def drive():
            service = EvalService(store=store, runner=runner)
            first = await service.evaluate(w, b)
            second = await service.evaluate(w, b)
            await service.close()
            return first, second

        (rec1, status1), (rec2, status2) = asyncio.run(drive())
        assert (status1, status2) == ("miss", "hit")
        assert len(runner.calls) == 1
        assert json.dumps(rec1.to_json(), sort_keys=True) \
            == json.dumps(rec2.to_json(), sort_keys=True)

    def test_backpressure_bounds_admitted_recomputes(self, tmp_path):
        runner = _CountingRunner(delay=0.01)

        async def drive():
            service = EvalService(runner=runner, max_pending=2)
            cells = [(Workload("pi_lcg", n=32 * (i + 1)),
                      CoreBackend()) for i in range(8)]
            await asyncio.gather(*[
                service.evaluate(w, b) for w, b in cells])
            await service.close()
            return service

        service = asyncio.run(drive())
        assert runner.peak <= 2
        assert service.stats.peak_in_flight <= 2
        assert service.stats.misses == 8

    def test_failed_simulation_does_not_poison_the_key(self):
        attempts = []

        async def flaky(workload, backend):
            attempts.append(workload.n)
            if len(attempts) == 1:
                raise RuntimeError("simulator exploded")
            return backend.run(workload, check=False)

        async def drive():
            service = EvalService(runner=flaky)
            w, b = _cell(n=64)
            with pytest.raises(RuntimeError, match="exploded"):
                await service.evaluate(w, b)
            record, status = await service.evaluate(w, b)
            await service.close()
            return record, status

        record, status = asyncio.run(drive())
        assert status == "miss"
        assert len(attempts) == 2
        assert record.n == 64

    def test_stats_json_uses_metric_names(self, tmp_path):
        store = RunStore(tmp_path / "cache")

        async def drive():
            service = EvalService(store=store,
                                  runner=_CountingRunner())
            await service.evaluate(*_cell(n=64))
            await service.evaluate(*_cell(n=64))
            await service.close()
            return service.stats_json()

        stats = asyncio.run(drive())
        assert stats["serve.requests"] == 2
        assert stats["serve.misses"] == 1
        assert stats["serve.hits"] == 1
        assert stats["store"]["dir"] == store.root

    def test_stats_json_includes_flushed_cumulative_totals(
            self, tmp_path):
        # Another process's counters live only in the cumulative
        # sidecar; the stats reply must surface them, not just this
        # session's in-memory counters.
        other = RunStore(tmp_path / "cache")
        w, b = _cell(n=64)
        other.save(w, b, _record_for(w, b))
        other.lookup(w, b)
        other.flush_stats()

        store = RunStore(tmp_path / "cache")

        async def drive():
            service = EvalService(store=store,
                                  runner=_CountingRunner())
            await service.evaluate(*_cell(n=64))
            # Snapshot while serving (close() flushes + zeroes the
            # session counters), as the protocol's stats op does.
            snapshot = service.stats_json()
            await service.close()
            return snapshot

        stats = asyncio.run(drive())["store"]
        # Session view: this process only saw a store hit.
        assert stats["hits"] == 1
        assert stats["stores"] == 0
        # Store-wide view folded in from describe().
        assert stats["entries"] == 1
        assert stats["generation"] == store.generation
        assert stats["cumulative"]["stores"] == 1
        assert stats["cumulative"]["hits"] == 1

    def test_latency_histograms_count_every_request(self, tmp_path):
        runner = _CountingRunner()
        store = RunStore(tmp_path / "cache")
        hot = Workload("pi_lcg", n=64)
        store.save(hot, CoreBackend(), _record_for(hot, CoreBackend()))

        async def drive():
            service = EvalService(store=store, runner=runner,
                                  max_pending=1)
            requests = ([(hot, CoreBackend())] * 5
                        + [(Workload("pi_lcg", n=n), CoreBackend())
                           for n in (96, 128)] * 3)
            await asyncio.gather(*[service.evaluate(w, b)
                                   for w, b in requests])
            snapshot = service.stats_json()
            await service.close()
            return service.stats, snapshot

        stats, snapshot = asyncio.run(drive())
        assert (stats.hits, stats.misses, stats.coalesced) == (5, 2, 4)
        for status, count in (("hit", 5), ("miss", 2), ("coalesced", 4)):
            assert stats.service_us[status].count == count
            assert snapshot[f"serve.{status}_us.count"] == count
            for tail in ("p50", "p95", "p99"):
                assert snapshot[f"serve.{status}_us.{tail}"] >= 0
        assert snapshot["serve.admit_wait_us.count"] == 2
        # max_pending=1: the second miss waited out the first's run.
        assert stats.admit_wait_us.max >= 0.9 * runner.delay * 1e6

    def test_one_content_key_per_request(self, tmp_path, monkeypatch):
        calls = []
        real = store_mod.cache_key

        def counting(*args, **kwargs):
            calls.append(args[0].n)
            return real(*args, **kwargs)

        monkeypatch.setattr(store_mod, "cache_key", counting)
        store = RunStore(tmp_path / "cache")

        async def drive():
            service = EvalService(store=store, runner=_CountingRunner())
            cold = Workload("pi_lcg", n=96)
            await asyncio.gather(*[service.evaluate(cold, CoreBackend())
                                   for _ in range(3)])
            await service.evaluate(cold, CoreBackend())
            await service.close()
            return service.stats

        stats = asyncio.run(drive())
        assert (stats.misses, stats.coalesced, stats.hits) == (1, 2, 1)
        assert calls == [96] * 4

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="jobs"):
            EvalService(jobs=0)
        with pytest.raises(ValueError, match="max_pending"):
            EvalService(max_pending=0)


class TestProtocol:
    def test_decode_run_request(self):
        request = decode_request(json.dumps({
            "id": 7, "op": "run",
            "workload": {"kernel": "pi_lcg", "n": 128},
            "backend": "cluster:2"}))
        assert request.id == 7
        assert request.workload == Workload("pi_lcg", n=128)
        assert request.backend.spec == "cluster:2"

    def test_decode_errors_are_one_line(self):
        for line, fragment in [
            ("not json", "not valid JSON"),
            ("[1, 2]", "JSON object"),
            ('{"op": "explode"}', "unknown op"),
            ('{"op": "run"}', "'workload' object"),
            ('{"op": "run", "workload": {"kernel": "pi_lcg", '
             '"frobnicate": 1}}', "unknown workload keys"),
            ('{"op": "run", "workload": {"kernel": "nope"}}',
             "unknown kernel"),
        ]:
            with pytest.raises(ProtocolError) as excinfo:
                decode_request(line)
            message = str(excinfo.value)
            assert fragment in message
            assert "\n" not in message

    @pytest.mark.parametrize("change, fragment", [
        ({"n": "abc"}, "n must be an integer, got 'abc'"),
        ({"n": True}, "n must be an integer, got True"),
        ({"n": 512.0}, "n must be an integer, got 512.0"),
        ({"kernel": ["expf"]}, "kernel must be a string"),
        ({"seed": "s"}, "seed must be an integer, got 's'"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ])
    def test_mistyped_workload_rejected_before_any_run(self, change,
                                                       fragment):
        spec = dict({"kernel": "expf", "variant": "copift", "n": 512},
                    **change)
        line = json.dumps({"id": 5, "op": "run", "workload": spec})
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(line)
        assert fragment in str(excinfo.value)
        assert "\n" not in str(excinfo.value)
        assert excinfo.value.request_id == 5
        runner = _CountingRunner()
        handled, responses = self._session([line], runner=runner)
        assert handled == 1
        assert responses == [{"id": 5, "ok": False,
                              "error": str(excinfo.value)}]
        assert runner.calls == []

    def test_bad_request_keeps_its_id(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request('{"id": 42, "op": "run", '
                           '"workload": {"kernel": "nope"}}')
        assert excinfo.value.request_id == 42

    def test_encode_echoes_id(self):
        line = encode_response(3, status="hit", record={})
        assert json.loads(line) == {"id": 3, "ok": True,
                                    "status": "hit", "record": {}}

    def _session(self, lines, store=None, runner=None):
        async def feed():
            for line in lines:
                yield line

        responses = []

        async def drive():
            service = EvalService(store=store,
                                  runner=runner or _CountingRunner())
            handled = await serve_session(service, feed(),
                                          responses.append)
            await service.close()
            return handled

        handled = asyncio.run(drive())
        return handled, [json.loads(line) for line in responses]

    def test_session_end_to_end(self, tmp_path):
        run = json.dumps({"id": 1, "op": "run",
                          "workload": {"kernel": "pi_lcg", "n": 64}})
        rerun = json.dumps({"id": 2, "op": "run",
                            "workload": {"kernel": "pi_lcg", "n": 64}})
        responses = []

        async def feed():
            yield json.dumps({"id": 0, "op": "ping"})
            yield run
            yield rerun
            yield "   \n"   # blank lines are ignored, not errors
            # A real pipelining client: ask for stats only once both
            # run responses have landed (responses arrive in
            # completion order, so stats would otherwise overtake the
            # still-simulating runs).
            while len(responses) < 3:
                await asyncio.sleep(0.001)
            yield json.dumps({"id": 3, "op": "stats"})
            yield json.dumps({"id": 4, "op": "shutdown"})
            yield run   # after shutdown: never read

        async def drive():
            service = EvalService(store=RunStore(tmp_path / "cache"),
                                  runner=_CountingRunner())
            handled = await serve_session(service, feed(),
                                          responses.append)
            await service.close()
            return handled

        handled = asyncio.run(drive())
        assert handled == 5
        by_id = {r["id"]: r for r in map(json.loads, responses)}
        assert by_id[0]["pong"] is True
        assert by_id[1]["ok"] and by_id[2]["ok"]
        # Concurrent identical runs: one miss, one coalesced, and the
        # record payloads are byte-identical.
        assert sorted([by_id[1]["status"], by_id[2]["status"]]) \
            == ["coalesced", "miss"]
        assert json.dumps(by_id[1]["record"], sort_keys=True) \
            == json.dumps(by_id[2]["record"], sort_keys=True)
        assert by_id[3]["stats"]["serve.requests"] == 2
        assert by_id[4]["shutdown"] is True

    def test_malformed_line_keeps_session_alive(self):
        handled, responses = self._session([
            "garbage",
            json.dumps({"id": 9, "op": "run",
                        "workload": {"kernel": "nope"}}),
            json.dumps({"id": 1, "op": "ping"}),
        ])
        assert handled == 3
        assert responses[0]["ok"] is False
        assert "not valid JSON" in responses[0]["error"]
        by_id = {r["id"]: r for r in responses}
        assert by_id[9]["ok"] is False
        assert "unknown kernel" in by_id[9]["error"]
        assert by_id[1]["pong"] is True

    def test_runner_crash_is_a_per_request_error(self):
        async def broken(workload, backend):
            raise OSError("pool went away")

        responses = []

        async def drive():
            service = EvalService(runner=broken)
            await serve_session(
                service,
                _aiter([json.dumps({"id": 5, "op": "run",
                                    "workload": {"kernel": "pi_lcg",
                                                 "n": 64}}),
                        json.dumps({"id": 6, "op": "ping"})]),
                responses.append)
            await service.close()

        asyncio.run(drive())
        by_id = {json.loads(r)["id"]: json.loads(r) for r in responses}
        assert by_id[5]["ok"] is False
        assert by_id[5]["error"] == "OSError: pool went away"
        assert by_id[6]["pong"] is True


async def _aiter(lines):
    for line in lines:
        yield line


def test_serve_cache_dir_under_a_file_exits_2(tmp_path, monkeypatch,
                                              capsys):
    """``--serve --cache-dir F/sub``: the session's closing stats flush
    cannot create the store, which is one ``error:`` line, exit 2."""
    blocker = tmp_path / "F"
    blocker.write_text("a regular file")
    monkeypatch.setattr(serve_cli, "_stdin_lines",
                        lambda: _aiter([json.dumps({"op": "ping"})]))
    monkeypatch.setattr(serve_cli, "_write_line", lambda line: None)
    assert eval_main(["--serve", "--cache-dir",
                      str(blocker / "sub")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[-1].startswith("error: cannot create cache directory")
