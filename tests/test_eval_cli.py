"""CLI tests: artifact routing, --out/--json, --jobs validation and
the process-parallel shard runner's determinism guarantee."""

import json

import pytest

from repro.api import CoreBackend, Workload, artifacts, write_output
from repro.eval import clusterscale, fig2, fig3, socscale, table1
from repro.eval.__main__ import main
from repro.eval.clusterscale import clusterscale_payload
from repro.eval.socscale import socscale_payload
from repro.eval.table1 import table1_payload
from repro.eval.parallel import (
    default_jobs,
    run_sharded,
    shard_evenly,
    validate_jobs,
)


class TestClusterScaleArtifact:
    @pytest.fixture(scope="class")
    def data(self):
        return clusterscale.generate(n=512, cores=(1, 2))

    def test_all_kernels_both_variants(self, data):
        names = {(r.name, r.variant) for r in data.rows}
        assert len(names) == 12

    def test_one_core_column_matches_single_machine(self, data):
        row = data.row("pi_lcg", "baseline")
        record = CoreBackend().run(Workload("pi_lcg", "baseline", n=512))
        assert row.point(1).cycles == record.cycles

    def test_speedup_positive_and_bounded(self, data):
        for row in data.rows:
            p = row.point(2)
            assert 1.0 < p.speedup < 2.05, (row.name, row.variant)
            assert p.efficiency == pytest.approx(p.speedup / 2)

    def test_render_lists_everything(self, data):
        text = clusterscale.render(data)
        assert "Cluster scaling" in text
        for row in data.rows:
            assert row.name in text

    def test_payload_round_trips_through_json(self, data):
        payload = clusterscale_payload(data)
        parsed = json.loads(json.dumps(payload))
        assert parsed["cores"] == [1, 2]
        assert len(parsed["rows"]) == 12


class TestSocScaleArtifact:
    @pytest.fixture(scope="class")
    def data(self):
        return socscale.generate(n=512, shapes=((1, 2), (2, 2)))

    def test_all_kernels_both_variants(self, data):
        names = {(r.name, r.variant) for r in data.rows}
        assert len(names) == 12

    def test_one_cluster_column_matches_bare_cluster(self, data):
        base = clusterscale.generate(n=512, cores=(1, 2))
        for row in data.rows:
            point = row.point(1, 2)
            assert point.cycles \
                == base.row(row.name, row.variant).point(2).cycles, \
                (row.name, row.variant)

    def test_speedup_positive_and_bounded(self, data):
        for row in data.rows:
            p = row.point(2, 2)
            assert 1.0 < p.speedup < 2.05, (row.name, row.variant)
            assert p.efficiency == pytest.approx(p.speedup / 2)

    def test_render_lists_everything(self, data):
        text = socscale.render(data)
        assert "SoC scaling" in text
        assert "1x2/2x2" in text
        for row in data.rows:
            assert row.name in text

    def test_payload_round_trips_through_json(self, data):
        payload = socscale_payload(data)
        parsed = json.loads(json.dumps(payload))
        assert parsed["shapes"] == [[1, 2], [2, 2]]
        assert len(parsed["rows"]) == 12

    def test_parse_shapes(self):
        assert socscale.parse_shapes("1x4,2x8") == ((1, 4), (2, 8))
        import argparse
        for bad in ("", "2", "2x", "0x4", "axb"):
            with pytest.raises(argparse.ArgumentTypeError):
                socscale.parse_shapes(bad)


class TestOutRouting:
    def test_clusterscale_out(self, tmp_path):
        out = tmp_path / "cs.txt"
        assert main(["clusterscale", "--n", "512", "--cores", "1,2",
                     "--out", str(out)]) == 0
        assert "Cluster scaling" in out.read_text()

    def test_clusterscale_json(self, tmp_path):
        out = tmp_path / "cs.json"
        assert main(["clusterscale", "--n", "512", "--cores", "1,2",
                     "--json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 512

    def test_table1_out(self, tmp_path):
        out = tmp_path / "t1.txt"
        assert main(["table1", "--n", "256", "--out", str(out)]) == 0
        assert "Table I" in out.read_text()

    def test_write_output_stdout(self, capsys):
        write_output("hello", {"k": 1}, out=None, as_json=False)
        assert capsys.readouterr().out == "hello\n"
        write_output("hello", {"k": 1}, out=None, as_json=True)
        assert json.loads(capsys.readouterr().out) == {"k": 1}

    def test_bad_cores_rejected(self):
        with pytest.raises(SystemExit):
            main(["clusterscale", "--cores", "zero"])


class TestArgumentValidation:
    """Bad invocations exit with a one-line message, never a traceback."""

    def test_unknown_artifact_clear_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig9"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown artifact 'fig9'" in err
        assert "clusterscale" in err     # the available list is shown

    def test_unknown_artifact_suggests_all_names(self, capsys):
        with pytest.raises(SystemExit):
            main(["bogus"])
        err = capsys.readouterr().err
        for name in ("table1", "fig2", "fig3", "all", "report"):
            assert name in err

    def test_jobs_zero_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["clusterscale", "--jobs", "0"])
        assert excinfo.value.code == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_jobs_negative_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig3", "--jobs", "-2"])
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_jobs_on_unsharded_artifact_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--jobs", "2"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--jobs applies to sharded sweeps only" in err
        assert "'table1'" in err

    def test_jobs_on_report_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["report", "--jobs", "2"])
        assert "sharded sweeps only" in capsys.readouterr().err

    def test_extra_flag_on_wrong_artifact_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--clusters", "1x4"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--clusters applies to artifact 'socscale' only" in err
        assert "'table1'" in err

    def test_bad_extra_flag_value_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["socscale", "--clusters", "0x4"])
        assert ">= 1x1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["clusterscale", "--n", "500", "--cores", "3"],
         "problem size 500 does not chunk evenly over 3 cores"),
        (["socscale", "--n", "100", "--clusters", "3x3"],
         "does not chunk evenly over 3 clusters x 3 cores"),
        (["table1", "--n", "0"], "problem size must be >= 1, got 0"),
        (["fig2", "--n", "100"], "n must be a multiple of block"),
    ], ids=["clusterscale", "socscale", "table1", "fig2"])
    def test_bad_size_is_one_line_error(self, argv, message, capsys):
        assert main([*argv, "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and message in lines[0]

    @pytest.mark.parametrize("argv, flag", [
        (["table1", "--out", "{file}/x.txt"], "--out"),
        (["fig2", "--n", "512", "--trace", "{file}/t.json"], "--trace"),
        (["table1", "--out", "{dir}"], "--out"),
        (["--list", "--out", "{file}/x.txt"], "--out"),
    ], ids=["out-under-file", "trace-under-file", "out-is-dir", "list"])
    def test_unusable_output_path_fails_before_running(
            self, argv, flag, tmp_path, monkeypatch, capsys):
        """A path that cannot be written is one line, exit 2, and is
        caught before any cell simulates."""
        blocker = tmp_path / "F"
        blocker.write_text("a regular file")

        def no_run(*args, **kwargs):
            raise AssertionError("the artifact ran")

        monkeypatch.setattr(fig2, "generate", no_run)
        monkeypatch.setattr(table1, "generate", no_run)
        argv = [arg.format(file=blocker, dir=tmp_path) for arg in argv]
        assert main([*argv, "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {flag} ")

    def test_jobs_one_accepted_everywhere(self, tmp_path):
        # --jobs 1 is the sequential default and is valid for any
        # artifact, sharded or not.
        out = tmp_path / "t1.txt"
        assert main(["table1", "--n", "256", "--jobs", "1",
                     "--out", str(out)]) == 0


class TestArtifactRegistry:
    """The CLI is a generic dispatcher over the artifact registry."""

    def test_list_enumerates_registry_with_help(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for spec in artifacts.specs():
            assert spec.name in out
            assert spec.help in out

    def test_list_shows_aliases(self, capsys):
        main(["--list"])
        out = capsys.readouterr().out
        assert "fig2a" in out

    def test_missing_artifact_is_an_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        assert "artifact name is required" in capsys.readouterr().err

    def test_report_order_is_explicit(self):
        assert artifacts.names() == [
            "table1", "fig2", "fig3", "clusterscale", "socscale",
            "streamscale", "all", "report",
        ]
        assert artifacts.bundle_names() == [
            "table1", "fig2", "fig3", "clusterscale", "socscale",
            "streamscale",
        ]
        assert artifacts.sharded_names() == [
            "fig3", "clusterscale", "socscale", "streamscale", "all",
        ]

    def test_alias_resolves_to_canonical(self):
        assert artifacts.get("fig2a").name == "fig2"

    def test_list_shows_extra_flags(self, capsys):
        main(["--list"])
        out = capsys.readouterr().out
        assert "--clusters" in out
        assert "--writeback" in out

    def test_list_json_is_machine_readable(self, capsys):
        """--list --json dumps the registry: names, help, flags,
        sharding — everything a tool needs to drive the CLI."""
        assert main(["--list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_name = {a["name"]: a for a in payload["artifacts"]}
        assert list(by_name) == artifacts.names()
        for spec in artifacts.specs():
            entry = by_name[spec.name]
            assert entry["help"] == spec.help
            assert entry["sharded"] == spec.sharded
            assert entry["aliases"] == list(spec.aliases)
            assert [f["name"] for f in entry["flags"]] \
                == [f.name for f in spec.flags]
        soc_flags = {f["name"]: f for f in by_name["socscale"]["flags"]}
        assert soc_flags["--writeback"]["default"] is False
        assert soc_flags["--clusters"]["metavar"]

    def test_list_json_honours_out(self, tmp_path):
        out = tmp_path / "registry.json"
        assert main(["--list", "--json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert {a["name"] for a in payload["artifacts"]} \
            == set(artifacts.names())

    def test_writeback_flag_shared_by_both_scaling_artifacts(self):
        owners = {spec.name for flag, spec in artifacts.extra_flags()
                  if flag.name == "--writeback"}
        assert owners == {"clusterscale", "socscale"}

    def test_writeback_on_wrong_artifact_lists_all_owners(self,
                                                          capsys):
        with pytest.raises(SystemExit):
            main(["table1", "--writeback", "on"])
        err = capsys.readouterr().err
        assert "--writeback applies to artifacts" in err
        assert "'clusterscale'" in err and "'socscale'" in err

    def test_writeback_value_validated(self, capsys):
        with pytest.raises(SystemExit):
            main(["clusterscale", "--writeback", "maybe"])
        assert "on|off" in capsys.readouterr().err

    def test_writeback_cli_round_trip(self, tmp_path):
        out = tmp_path / "wb.json"
        assert main(["clusterscale", "--n", "256", "--cores", "1,2",
                     "--writeback", "on", "--json",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["writeback"] is True
        expf = next(r for r in payload["rows"]
                    if r["kernel"] == "expf"
                    and r["variant"] == "baseline")
        assert all(p["dma_bytes_written"] == 256 * 8
                   for p in expf["points"])

    def test_writeback_off_payload_has_no_extra_keys(self, tmp_path):
        """The default payload must stay byte-compatible with the
        pre-write-back goldens: no writeback marker, no per-direction
        fields."""
        out = tmp_path / "off.json"
        assert main(["clusterscale", "--n", "256", "--cores", "1,2",
                     "--json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert "writeback" not in payload
        point = payload["rows"][0]["points"][0]
        assert "dma_bytes_written" not in point

    def test_extra_flag_registration_guards(self):
        from repro.api.artifacts import ExtraFlag

        with pytest.raises(ValueError, match="start with '--'"):
            ExtraFlag("clusters")
        with pytest.raises(ValueError, match="shared eval flag"):
            ExtraFlag("--jobs")
        with pytest.raises(ValueError, match="already registered"):
            artifacts.artifact(
                "dup-flag-artifact",
                flags=(ExtraFlag("--clusters"),))(lambda req: None)
        assert "dup-flag-artifact" not in artifacts.REGISTRY

    def test_extra_flag_dest_collision_rejected(self):
        """Distinct spellings sharing an argparse dest ('--a-b' vs
        '--a_b') must collide — the dispatcher routes by dest."""
        from repro.api.artifacts import ExtraFlag

        artifacts.artifact(
            "tmp-dest-owner",
            flags=(ExtraFlag("--tmp-dest"),))(lambda req: None)
        try:
            with pytest.raises(ValueError, match="already registered"):
                artifacts.artifact(
                    "tmp-dest-clash",
                    flags=(ExtraFlag("--tmp_dest"),))(lambda req: None)
            assert "tmp-dest-clash" not in artifacts.REGISTRY
        finally:
            del artifacts.REGISTRY["tmp-dest-owner"]

    def test_extra_flags_enumerate_with_owner(self):
        owners = {flag.name: spec.name
                  for flag, spec in artifacts.extra_flags()}
        assert owners["--clusters"] == "socscale"

    def test_all_combines_bundle_in_report_order(self, monkeypatch,
                                                 tmp_path):
        from repro.api.artifacts import ArtifactResult, ArtifactSpec

        def fake(name, order):
            return ArtifactSpec(
                name=name, order=order,
                func=lambda req, name=name: ArtifactResult(
                    name, f"text-{name}", {"k": name}),
            )

        registry = {"b": fake("b", 2), "a": fake("a", 1),
                    "all": artifacts.REGISTRY["all"]}
        monkeypatch.setattr(artifacts, "REGISTRY", registry)
        out = tmp_path / "all.json"
        assert main(["all", "--json", "--out", str(out)]) == 0
        assert json.loads(out.read_text()) \
            == {"a": {"k": "a"}, "b": {"k": "b"}}
        txt = tmp_path / "all.txt"
        assert main(["all", "--out", str(txt)]) == 0
        assert txt.read_text() == "text-a\n\ntext-b\n"


class TestPayloadIdentity:
    """CLI output must match the module-level generate/render path
    (whose values are locked by tests/test_golden.py)."""

    def test_table1_cli_matches_module(self, tmp_path):
        out = tmp_path / "t1.json"
        assert main(["table1", "--n", "256", "--json",
                     "--out", str(out)]) == 0
        expected = {"n": 256, **table1_payload(table1.generate(n=256))}
        assert json.loads(out.read_text()) \
            == json.loads(json.dumps(expected))

    def test_clusterscale_cli_matches_module(self, tmp_path):
        out = tmp_path / "cs.json"
        assert main(["clusterscale", "--n", "512", "--cores", "1,2",
                     "--json", "--out", str(out)]) == 0
        expected = clusterscale_payload(
            clusterscale.generate(n=512, cores=(1, 2)))
        assert json.loads(out.read_text()) \
            == json.loads(json.dumps(expected))

    def test_fig2_alias_routes_to_fig2(self, tmp_path):
        out = tmp_path / "f2.txt"
        assert main(["fig2a", "--n", "256", "--out", str(out)]) == 0
        assert "Figure 2a" in out.read_text()


class TestTable1Clamp:
    """The n-clamp warns on stderr and the payload carries the
    effective size (it used to clamp silently)."""

    def test_clamp_warns_and_surfaces_n(self, monkeypatch, tmp_path,
                                        capsys):
        monkeypatch.setattr(table1, "MAX_MEASURE_N", 256)
        out = tmp_path / "t1.json"
        assert main(["table1", "--n", "512", "--json",
                     "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "clamping n=512 to 256" in err
        assert json.loads(out.read_text())["n"] == 256

    def test_no_warning_below_threshold(self, tmp_path, capsys):
        out = tmp_path / "t1.json"
        assert main(["table1", "--n", "256", "--json",
                     "--out", str(out)]) == 0
        assert "clamping" not in capsys.readouterr().err
        assert json.loads(out.read_text())["n"] == 256

    def test_default_run_never_warns(self, monkeypatch, tmp_path,
                                     capsys):
        # With no --n at all, table1 measures at its own default and
        # must not warn about a size the user never chose.
        monkeypatch.setattr(table1, "MAX_MEASURE_N", 256)
        out = tmp_path / "t1.json"
        assert main(["table1", "--json", "--out", str(out)]) == 0
        assert "clamping" not in capsys.readouterr().err
        assert json.loads(out.read_text())["n"] == 256


def _square(x):
    return x * x


class TestShardRunner:
    def test_inline_matches_pool(self):
        cells = list(range(20))
        assert run_sharded(_square, cells, jobs=1) \
            == run_sharded(_square, cells, jobs=3)

    def test_order_preserved(self):
        cells = [5, 3, 1, 4]
        assert run_sharded(_square, cells, jobs=2) == [25, 9, 1, 16]

    def test_empty_cells(self):
        assert run_sharded(_square, [], jobs=4) == []

    def test_invalid_jobs(self):
        with pytest.raises(ValueError, match="jobs must be"):
            run_sharded(_square, [1], jobs=0)
        with pytest.raises(ValueError, match="jobs must be"):
            validate_jobs(True)

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_shard_evenly(self):
        shards = shard_evenly(range(7), 3)
        assert sorted(x for s in shards for x in s) == list(range(7))
        assert max(len(s) for s in shards) \
            - min(len(s) for s in shards) <= 1
        with pytest.raises(ValueError):
            shard_evenly([1], 0)


class TestJobsDeterminism:
    """--jobs N must not change a single byte of any payload."""

    def test_clusterscale_payload_identical(self):
        seq = clusterscale_payload(
            clusterscale.generate(n=512, cores=(1, 2), jobs=1))
        par = clusterscale_payload(
            clusterscale.generate(n=512, cores=(1, 2), jobs=2))
        assert json.dumps(seq, sort_keys=True) \
            == json.dumps(par, sort_keys=True)

    def test_fig3_grid_identical(self):
        kwargs = dict(block_sizes=(32, 48), problem_sizes=(768,))
        seq = fig3.generate(jobs=1, **kwargs)
        par = fig3.generate(jobs=2, **kwargs)
        assert seq.ipc == par.ipc

    def test_cli_jobs_flag_round_trip(self, tmp_path):
        out1 = tmp_path / "j1.json"
        out2 = tmp_path / "j2.json"
        base = ["clusterscale", "--n", "512", "--cores", "1,2",
                "--json"]
        assert main([*base, "--jobs", "1", "--out", str(out1)]) == 0
        assert main([*base, "--jobs", "2", "--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()

    def test_socscale_cli_bit_identical_for_every_jobs(self, tmp_path):
        """Acceptance: `python -m repro.eval socscale --jobs N` output
        is bit-identical for every N (tested at 1/2/8)."""
        outputs = []
        for jobs in (1, 2, 8):
            out = tmp_path / f"soc-j{jobs}.json"
            assert main(["socscale", "--n", "512",
                         "--clusters", "1x2,2x2", "--json",
                         "--jobs", str(jobs), "--out", str(out)]) == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_socscale_payload_identical(self):
        seq = socscale_payload(socscale.generate(
            n=512, shapes=((1, 2), (2, 2)), jobs=1))
        par = socscale_payload(socscale.generate(
            n=512, shapes=((1, 2), (2, 2)), jobs=3))
        assert json.dumps(seq, sort_keys=True) \
            == json.dumps(par, sort_keys=True)


class TestCacheCLI:
    """The dispatcher's cache surface: flag validation, one-line
    errors, the warm-run acceptance criterion and --list --json."""

    def test_no_cache_and_cache_dir_are_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig2", "--no-cache", "--cache-dir", "/tmp/x"])
        err = capsys.readouterr().err
        assert "mutually exclusive" in err
        assert "/tmp/x" in err

    def test_cache_dir_at_a_file_names_the_path(self, tmp_path,
                                                capsys):
        rogue = tmp_path / "rogue"
        rogue.write_text("not a directory")
        assert main(["fig2", "--n", "256",
                     "--cache-dir", str(rogue)]) == 2
        err = capsys.readouterr().err
        assert str(rogue) in err
        assert "not a directory" in err

    def test_cache_dir_under_a_file_is_one_line(self, tmp_path, capsys):
        blocker = tmp_path / "F"
        blocker.write_text("a regular file")
        assert main(["table1", "--n", "256",
                     "--cache-dir", str(blocker / "sub")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: cannot create cache directory")
        assert str(blocker) in lines[0]

    def test_serve_rejects_artifact_mode_flags(self, capsys):
        for extra in (["fig2"], ["--list"], ["--json"],
                      ["--out", "x.json"], ["--profile"]):
            with pytest.raises(SystemExit):
                main(["--serve", *extra])
            assert "--serve" in capsys.readouterr().err

    def test_warm_run_is_all_hits_and_byte_identical(self, tmp_path,
                                                     monkeypatch,
                                                     capsys):
        """Acceptance: a warm re-run performs zero simulations (hit
        count == cell count) and emits byte-identical payloads to an
        uncached run."""
        import repro.api.sweep as sweep_mod
        simulated = []
        real = sweep_mod._run_batch

        def counting(batch):
            simulated.extend(batch)
            return real(batch)

        monkeypatch.setattr(sweep_mod, "_run_batch", counting)
        cache = tmp_path / "cache"
        bare, cold, warm = (tmp_path / "bare.json",
                            tmp_path / "cold.json",
                            tmp_path / "warm.json")
        base = ["fig2", "--n", "256", "--json"]
        assert main([*base, "--no-cache", "--out", str(bare)]) == 0
        cells = len(simulated)
        assert cells == 12   # 6 kernels x 2 variants
        assert main([*base, "--cache-dir", str(cache),
                     "--out", str(cold)]) == 0
        assert len(simulated) == 2 * cells
        capsys.readouterr()
        assert main([*base, "--cache-dir", str(cache),
                     "--out", str(warm)]) == 0
        assert len(simulated) == 2 * cells   # zero new simulations
        err = capsys.readouterr().err
        assert f"cache: {cells} hits, 0 misses" in err
        assert bare.read_bytes() == cold.read_bytes() \
            == warm.read_bytes()
        sidecar = json.loads((cache / "stats.json").read_text())
        assert sidecar["hits"] == cells
        assert sidecar["stores"] == cells

    def test_golden_edit_invalidates_the_cache(self, tmp_path,
                                               monkeypatch):
        """Acceptance: a changed timing fingerprint invalidates every
        affected key (the old generation is never consulted)."""
        import repro.api.fingerprint as fp_mod
        cache = tmp_path / "cache"
        out = tmp_path / "out.json"
        base = ["fig2", "--n", "256", "--json", "--out", str(out),
                "--cache-dir", str(cache)]
        monkeypatch.setattr(fp_mod, "timing_fingerprint",
                            lambda: "aaaa" * 16)
        monkeypatch.setattr("repro.serve.store.timing_fingerprint",
                            fp_mod.timing_fingerprint)
        assert main(base) == 0
        from repro.serve import RunStore
        old = RunStore(cache, fingerprint="aaaa" * 16)
        assert old.describe()["entries"] == 12
        monkeypatch.setattr(fp_mod, "timing_fingerprint",
                            lambda: "bbbb" * 16)
        monkeypatch.setattr("repro.serve.store.timing_fingerprint",
                            fp_mod.timing_fingerprint)
        new = RunStore(cache, fingerprint="bbbb" * 16)
        assert new.describe()["entries"] == 0
        assert new.describe()["stale_entries"] == 12

    def test_list_json_reports_cache_state(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["--list", "--json",
                     "--cache-dir", str(cache)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"]["enabled"] is True
        assert payload["cache"]["dir"] == str(cache)
        assert payload["cache"]["entries"] == 0
        assert len(payload["cache"]["fingerprint"]) == 64
        assert main(["--list", "--json", "--no-cache"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"] == {"enabled": False}
