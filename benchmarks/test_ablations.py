"""Ablation benchmarks for the design points DESIGN.md calls out.

E6 — integer-RF writeback-port hazard (paper §III-A): removing the
single-write-port constraint recovers the LCG baselines' lost IPC and
eliminates their stalls; the xoshiro kernels are insensitive.

E7 — L0 loop buffer (paper §III-B): disabling the L0 model removes the
COPIFT exp/log I-fetch energy advantage.

E8 — SSR load/store elision: the COPIFT kernels execute zero FP
loads/stores; re-expressing their traffic as explicit accesses would
add back the full stream element count.

E9 — FPSS dispatch-queue depth: dual-issue needs the decoupling queue;
depth 1 strangles the overlap.
"""

import pytest

from repro.api import record_from_instance
from repro.kernels.registry import KERNELS
from repro.sim import CoreConfig


def _measure(name, variant, config=None, n=1024, block=64):
    kernel_def = KERNELS[name]
    if variant == "baseline":
        instance = kernel_def.build_baseline(n)
    else:
        instance = kernel_def.build_copift(n, block=block)
    return instance, record_from_instance(instance, config=config,
                                          check=False)


class TestWritebackPortAblation:
    def test_lcg_baseline_recovers_without_hazard(self, benchmark):
        config = CoreConfig(model_int_wb_hazard=False)
        _, with_hazard = _measure("pi_lcg", "baseline")
        _, without = benchmark.pedantic(
            lambda: _measure("pi_lcg", "baseline", config=config),
            rounds=1, iterations=1)
        assert without.ipc > with_hazard.ipc + 0.04

    def test_xoshiro_insensitive(self):
        config = CoreConfig(model_int_wb_hazard=False)
        _, with_hazard = _measure("pi_xoshiro128p", "baseline")
        _, without = _measure("pi_xoshiro128p", "baseline",
                              config=config)
        assert abs(without.ipc - with_hazard.ipc) < 0.02

    def test_paper_explanation_poly_lcg(self):
        """§III-A: the LCG stalls 'balance out the execution times of
        the integer and FP threads in the poly_lcg kernel' — removing
        them must make the integer thread relatively faster."""
        config = CoreConfig(model_int_wb_hazard=False)
        _, with_hazard = _measure("poly_lcg", "copift")
        _, without = _measure("poly_lcg", "copift", config=config)
        assert without.cycles <= with_hazard.cycles


class TestL0CacheAblation:
    def test_copift_expf_loses_icache_advantage(self, benchmark):
        """With the L0 disabled, COPIFT expf pays full fetch energy and
        its power rises; the baseline (which thrashed anyway) moves
        much less."""
        config = CoreConfig(model_l0_icache=False)

        def run(variant, cfg):
            instance, measurement = _measure("expf", variant,
                                             config=cfg)
            return measurement

        cop_with = run("copift", None)
        cop_without = benchmark.pedantic(
            lambda: run("copift", config), rounds=1, iterations=1)
        base_with = run("baseline", None)
        base_without = run("baseline", config)
        cop_delta = cop_without.power_mw - cop_with.power_mw
        base_delta = base_without.power_mw - base_with.power_mw
        assert cop_delta > base_delta + 0.3

    def test_baseline_fetches_unaffected_functionally(self):
        config = CoreConfig(model_l0_icache=False)
        _, with_l0 = _measure("expf", "baseline")
        _, without = _measure("expf", "baseline", config=config)
        assert with_l0.cycles == without.cycles  # energy-only model


class TestSsrElisionAblation:
    @pytest.mark.parametrize("name", ["expf", "logf"])
    def test_copift_executes_no_fp_loadstores(self, name):
        kernel_def = KERNELS[name]
        instance = kernel_def.build_copift(1024, block=64)
        result, _ = instance.run(check=False)
        counters = result.region("main").counters
        assert counters.fp_loads == 0
        assert counters.fp_stores == 0
        assert counters.ssr_reads + counters.ssr_writes > 1024

    def test_baseline_pays_explicit_fp_loadstores(self):
        instance = KERNELS["expf"].build_baseline(1024)
        result, _ = instance.run(check=False)
        counters = result.region("main").counters
        # fld x, fsd ki, fld t, fsd y per element.
        assert counters.fp_loads + counters.fp_stores == 4 * 1024


class TestQueueDepthAblation:
    def test_shallow_queue_strangles_dual_issue(self, benchmark):
        deep = CoreConfig(fpss_queue_depth=8)
        shallow = CoreConfig(fpss_queue_depth=1)
        _, with_deep = _measure("expf", "copift", config=deep)
        _, with_shallow = benchmark.pedantic(
            lambda: _measure("expf", "copift", config=shallow),
            rounds=1, iterations=1)
        assert with_deep.ipc > with_shallow.ipc

    def test_baseline_less_sensitive(self):
        deep = CoreConfig(fpss_queue_depth=8)
        shallow = CoreConfig(fpss_queue_depth=2)
        _, with_deep = _measure("pi_xoshiro128p", "baseline",
                                config=deep)
        _, with_shallow = _measure("pi_xoshiro128p", "baseline",
                                   config=shallow)
        assert abs(with_deep.ipc - with_shallow.ipc) < 0.12
