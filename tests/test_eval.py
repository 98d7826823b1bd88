"""Evaluation-harness tests: runner, Table 1, Fig 2, Fig 3 machinery."""

import pytest

from repro.api import CoreBackend, pair
from repro.eval import KernelMeasurement, geomean
from repro.eval import fig2, fig3, table1
from repro.kernels.registry import KERNELS, kernel
from repro.serve import RunStore, use_store


def _measure(name, n, block):
    backend = CoreBackend()
    baseline, copift = pair(name, n=n, block=block)
    return KernelMeasurement.from_records(
        backend.run(baseline, check=True), backend.run(copift, check=True))


class TestRunner:
    def test_records_pair_variants(self):
        m = _measure("pi_lcg", n=512, block=64)
        assert m.baseline.variant == "baseline"
        assert m.copift.variant == "copift"
        assert m.speedup > 1.0
        assert m.copift.ipc > m.baseline.ipc

    def test_power_and_energy_fields(self):
        m = _measure("pi_lcg", n=512, block=64)
        assert 30.0 < m.baseline.power_mw < 55.0
        assert m.energy_improvement > 1.0

    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([3.0]) == 3.0
        with pytest.raises(ValueError):
            geomean([])

    def test_unknown_kernel(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            kernel("fft")


class TestRegistry:
    def test_six_kernels_in_paper_order(self):
        assert list(KERNELS) == [
            "pi_xoshiro128p", "poly_xoshiro128p", "pi_lcg", "poly_lcg",
            "logf", "expf",
        ]

    def test_paper_models_consistent(self):
        for kernel_def in KERNELS.values():
            model = kernel_def.paper_model()
            assert 1.0 <= model.s_prime <= 2.5
            assert 1.0 <= model.i_prime <= 2.0


class TestTable1:
    def test_measured_model(self):
        rows = {r.name: r.measured for r in table1.generate(n=512)}
        # The expf counts are exact by construction (paper Fig. 1b).
        assert rows["expf"].base.n_int == 43
        assert rows["expf"].base.n_fp == 52

    def test_generate_and_render(self):
        rows = table1.generate(n=512)
        assert len(rows) == 6
        text = table1.render(rows)
        assert "expf" in text
        assert "poly_lcg" in text

    def test_max_block_ordering_matches_paper(self):
        """expf has the most buffers -> the smallest max block."""
        rows = {r.name: r.measured.max_block
                for r in table1.generate(n=512)}
        assert rows["expf"] < rows["logf"] < rows["pi_lcg"]


class TestFig2:
    @pytest.fixture(scope="class")
    def data(self):
        return fig2.generate(n=1024)

    def test_all_kernels_present(self, data):
        assert [r.name for r in data.rows] == list(KERNELS)

    def test_copift_wins_everywhere(self, data):
        for row in data.rows:
            assert row.measurement.speedup > 1.0, row.name
            assert row.measurement.energy_improvement > 1.0, row.name

    def test_geomeans_in_paper_ballpark(self, data):
        assert 1.3 <= data.geomean_speedup <= 1.7
        assert 1.3 <= data.geomean_ipc_gain <= 1.8
        assert 1.2 <= data.geomean_energy_improvement <= 1.7
        assert data.geomean_power_increase < 1.15

    def test_expf_is_peak_speedup(self, data):
        best = max(data.rows, key=lambda r: r.measurement.speedup)
        assert best.name == "expf"

    def test_render(self, data):
        text = fig2.render(data)
        assert "Figure 2a" in text
        assert "geomean speedup" in text
        # The worst per-kernel paper error, recomputed from the rows.
        parts = []
        for label, measured, paper in (
                ("speedup", "speedup", "paper_speedup"),
                ("energy improvement", "energy_improvement",
                 "paper_energy_improvement")):
            errors = {r.name: getattr(r.measurement, measured)
                      / getattr(r, paper) - 1 for r in data.rows}
            worst = max(errors, key=lambda name: abs(errors[name]))
            parts.append(f"{label} {worst} {errors[worst]:+.0%}")
        assert text.splitlines()[-1] == (
            "worst per-kernel error vs paper: " + "; ".join(parts))


@pytest.fixture(scope="module")
def fig2_4096():
    return fig2.generate(n=4096)


class TestFig2SimulatesOnce:
    """Figure 2 reads its I′/S′ expectation lines from its own sweep
    records, so each cell is simulated once at any n."""

    @pytest.mark.parametrize("n", [256, 512])
    def test_warm_run_simulates_nothing(self, n, tmp_path, monkeypatch):
        # n sits at and above table1's clamp size.
        monkeypatch.setattr(table1, "MAX_MEASURE_N", 256)
        with use_store(RunStore(tmp_path / "cache")):
            cold = fig2.fig2_payload(fig2.generate(n=n))

            def refuse(self, workload, check=False, obs=None):
                raise AssertionError(f"warm fig2 simulated {workload}")

            monkeypatch.setattr(CoreBackend, "run", refuse)
            warm = fig2.fig2_payload(fig2.generate(n=n))
        assert warm == cold

    def test_expectation_lines_match_table1(self, fig2_4096):
        # Per-iteration mixes are converged by n=2048, so the Figure-2
        # sweep at 4096 yields Table I's measured I′ and S′ exactly.
        models = {r.name: r.measured for r in table1.generate(n=2048)}
        for row in fig2_4096.rows:
            model = models[row.name]
            i_prime = row.expected_ipc / row.measurement.baseline.ipc
            assert i_prime == pytest.approx(model.i_prime, rel=1e-12), \
                row.name
            assert row.expected_speedup == model.s_prime, row.name


class TestFig3:
    @pytest.fixture(scope="class")
    def data(self):
        return fig3.generate(block_sizes=(16, 32, 64),
                             problem_sizes=(256, 1024, 4096))

    def test_ipc_rises_with_problem_size(self, data):
        for block in data.block_sizes:
            series = [data.ipc[n][block] for n in data.problem_sizes]
            assert series[-1] >= series[0]

    def test_convergence_annotation(self, data):
        n = data.converged_problem(16)
        assert n in data.problem_sizes

    def test_peak_block_defined(self, data):
        for n in data.problem_sizes:
            assert data.peak_block(n) in data.block_sizes

    def test_render(self, data):
        text = fig3.render(data)
        assert "poly_lcg" in text
        assert "*" in text
