"""SoC subsystem tests: interconnect arbitration, shared L2, per-cluster
DMA channels, cluster-then-core partitioning and the SocBackend.

Locks the layering invariant the subsystem promises — a 1-cluster SoC
with an uncontended interconnect is cycle-identical to the equivalent
bare ``ClusterMachine`` for all six kernels — plus the contention
behaviour that makes multiple clusters interesting: a shared link
narrower than the aggregate DMA demand stretches transfers, shows up
in per-link stall stats, and disappears with the contention model off.
"""

import numpy as np
import pytest

from repro.cluster import ClusterDma, partition_kernel
from repro.kernels.common import MAIN_REGION
from repro.kernels.registry import KERNELS, kernel
from repro.sim import MemoryError_
from repro.soc import (
    L2Memory,
    SocConfig,
    SocDmaChannel,
    SocInterconnect,
    SocMachine,
    SocWorkload,
    partition_soc_kernel,
)


class TestSocConfig:
    def test_defaults_valid(self):
        config = SocConfig()
        assert config.n_clusters == 2
        assert config.cluster.n_cores == 8

    @pytest.mark.parametrize("kwargs", [
        {"n_clusters": 0},
        {"link_beats_per_cycle": 0},
        {"max_beats_per_cluster": 0},
        {"l2_latency": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SocConfig(**kwargs)


class TestSocInterconnect:
    def test_uncontended_one_beat_per_cycle(self):
        link = SocInterconnect(n_clusters=2)
        assert link.transfer(0, nbeats=4, start=100) == 104
        assert link.stats[0].grants == 4
        assert link.stats[0].stall_cycles == 0

    def test_zero_beats_is_free(self):
        link = SocInterconnect(n_clusters=1)
        assert link.transfer(0, nbeats=0, start=7) == 7

    def test_contention_stretches_the_later_transfer(self):
        # Three clusters demanding 1 beat/cycle on a 2-beat link: the
        # third transfer over the same window must stretch.
        link = SocInterconnect(n_clusters=3, link_beats_per_cycle=2)
        assert link.transfer(0, nbeats=8, start=0) == 8
        assert link.transfer(1, nbeats=8, start=0) == 8
        third = link.transfer(2, nbeats=8, start=0)
        assert third > 8
        assert link.stats[2].stall_cycles == third - 8
        assert link.total_stall_cycles == link.stats[2].stall_cycles

    def test_per_cluster_cap_limits_burst_width(self):
        # cap=2 on a 4-beat link: one cluster's burst moves 2
        # beats/cycle, leaving room for a peer in every cycle.
        link = SocInterconnect(n_clusters=2, link_beats_per_cycle=4,
                               max_beats_per_cluster=2)
        assert link.transfer(0, nbeats=8, start=0) == 4
        assert link.transfer(1, nbeats=8, start=0) == 4
        assert link.total_stall_cycles == 0

    def test_fairness_cap_prevents_starvation(self):
        # Cluster 0 books a long window; cluster 1's beats must slot
        # into the same cycles (cap 1 < link 2), not queue behind.
        link = SocInterconnect(n_clusters=2, link_beats_per_cycle=2,
                               max_beats_per_cluster=1)
        link.transfer(0, nbeats=64, start=0)
        assert link.transfer(1, nbeats=4, start=0) == 4
        assert link.stats[1].stall_cycles == 0

    def test_disabled_is_ideal(self):
        link = SocInterconnect(n_clusters=2, enabled=False)
        assert link.transfer(0, nbeats=16, start=0) == 16
        assert link.transfer(1, nbeats=16, start=0) == 16
        assert link.total_stall_cycles == 0
        assert link.total_beats == 32

    def test_stall_rate(self):
        link = SocInterconnect(n_clusters=2, link_beats_per_cycle=1)
        assert link.stall_rate() == 0.0
        link.transfer(0, nbeats=4, start=0)
        link.transfer(1, nbeats=4, start=0)
        assert link.stall_rate() > 0.0


class TestL2Memory:
    def test_alloc_and_stage(self):
        l2 = L2Memory(size=1 << 12)
        data = np.arange(16, dtype=np.float64)
        addr = l2.stage("x", data)
        assert l2.region_bytes("x") == data.tobytes()
        assert l2.regions["x"] == (addr, data.nbytes)
        assert l2.used >= data.nbytes

    def test_duplicate_region_rejected(self):
        l2 = L2Memory(size=1 << 12)
        l2.alloc("x", 64)
        with pytest.raises(ValueError, match="already allocated"):
            l2.alloc("x", 64)

    def test_capacity_enforced(self):
        l2 = L2Memory(size=256)
        l2.alloc("a", 200)
        with pytest.raises(MemoryError_, match="does not fit"):
            l2.alloc("b", 100)

    def test_traffic_accounting(self):
        l2 = L2Memory()
        l2.note_read(512)
        l2.note_write(128)
        assert l2.bytes_read == 512
        assert l2.bytes_written == 128
        assert l2.bytes_touched == 640
        assert (l2.reads, l2.writes) == (1, 1)


class TestSocDmaChannel:
    def test_uncontended_matches_cluster_dma(self):
        """Same transfer schedule => same completion times as the
        standalone engine (the invariant's DMA leg)."""
        plain = ClusterDma(bandwidth=8, setup_latency=16)
        channel = SocDmaChannel(
            cluster_id=0, interconnect=SocInterconnect(n_clusters=1),
            bandwidth=8, setup_latency=16)
        for core, dst, src, nbytes, now in [
                (0, 0x1000, 0x80000, 64, 100),
                (1, 0x2000, 0x81000, 512, 110),
                (0, 0x3000, 0x82000, 8, 400)]:
            assert plain.start(core, dst, src, nbytes, now) \
                == channel.start(core, dst, src, nbytes, now)
        assert channel.bytes_moved == plain.bytes_moved

    def test_l2_traffic_counted(self):
        from repro.cluster.partition import L2_BASE

        l2 = L2Memory()
        channel = SocDmaChannel(
            cluster_id=0, interconnect=SocInterconnect(n_clusters=1),
            l2=l2, bandwidth=8, setup_latency=16)
        channel.start(0, 0x1000, L2_BASE, 256, now=0)     # L2 -> TCDM
        channel.start(0, L2_BASE + 0x400, 0x1000, 64, now=0)
        assert l2.bytes_read == 256
        assert l2.bytes_written == 64

    def test_l2_latency_delays_completion(self):
        link = SocInterconnect(n_clusters=1)
        fast = SocDmaChannel(cluster_id=0, interconnect=link,
                             bandwidth=8, setup_latency=16)
        slow = SocDmaChannel(cluster_id=0, interconnect=link,
                             l2_latency=20, bandwidth=8,
                             setup_latency=16)
        assert slow.start(0, 0x0, 0x80000, 64, now=0) \
            == fast.start(0, 0x0, 0x80000, 64, now=0) + 20


def _one_cluster_cells():
    for variant in ("baseline", "copift"):
        for name in sorted(KERNELS):
            for writeback in (False, True):
                suffix = "-wb" if writeback else ""
                yield pytest.param(variant, name, writeback,
                                   id=f"{variant}-{name}{suffix}")


class TestOneClusterInvariant:
    """A 1-cluster SoC (default, uncontended interconnect) must be
    cycle-identical to the equivalent bare ClusterMachine — the
    acceptance invariant, asserted for all six kernels with and
    without simulated write-back."""

    @pytest.mark.parametrize("variant, name, writeback",
                             _one_cluster_cells())
    def test_cycle_identical_to_cluster(self, variant, name, writeback):
        kd = kernel(name)
        cluster_result = partition_kernel(kd, 512, 4, variant=variant,
                                          writeback=writeback)\
            .run(check=True)
        soc_result = partition_soc_kernel(kd, 512, 1, 4,
                                          variant=variant,
                                          writeback=writeback)\
            .run(check=True)
        assert soc_result.cycles == cluster_result.cycles
        assert vars(soc_result.counters) \
            == vars(cluster_result.counters)
        assert soc_result.region(MAIN_REGION).cycles \
            == cluster_result.region(MAIN_REGION).cycles
        assert soc_result.dma_bytes == cluster_result.dma_bytes
        assert soc_result.dma_bytes_written \
            == cluster_result.dma_bytes_written
        assert soc_result.barrier_count \
            == cluster_result.barrier_count
        assert sum(soc_result.link_stall_cycles) == 0


class TestSocPartition:
    def test_cluster_then_core_chunks(self):
        w = partition_soc_kernel(kernel("pi_lcg"), 1024, 2, 4)
        assert w.n_clusters == 2 and w.n_cores == 4
        assert len(w.cluster_workloads) == 2
        assert len(w.instances) == 8
        assert all(i.n == 128 for i in w.instances)

    def test_uneven_split_rejected(self):
        with pytest.raises(ValueError, match="chunk evenly"):
            partition_soc_kernel(kernel("pi_lcg"), 1000, 3, 4)
        with pytest.raises(ValueError, match="n_clusters"):
            partition_soc_kernel(kernel("pi_lcg"), 512, 0, 4)
        with pytest.raises(ValueError, match="n_cores"):
            partition_soc_kernel(kernel("pi_lcg"), 512, 2, 0)

    def test_seeds_globally_unique(self):
        """Mirror cores of different clusters must not share PRNG
        streams (the cross-cluster seed bug this layer must avoid)."""
        w = partition_soc_kernel(kernel("pi_lcg"), 1024, 2, 2)
        images = [bytes(i.memory.data) for i in w.instances]
        programs = [repr(i.program.instructions) for i in w.instances]
        distinct = {(img, prog)
                    for img, prog in zip(images, programs)}
        assert len(distinct) == 4

    def test_one_cluster_matches_cluster_partition(self):
        """C=1 builds byte-identical instances to partition_kernel."""
        soc = partition_soc_kernel(kernel("expf"), 512, 1, 4,
                                   variant="copift")
        flat = partition_kernel(kernel("expf"), 512, 4,
                                variant="copift")
        for a, b in zip(soc.instances, flat.instances):
            assert bytes(a.memory.data) == bytes(b.memory.data)
            assert repr(a.program.instructions) \
                == repr(b.program.instructions)

    def test_staged_inputs_live_in_shared_l2(self):
        w = partition_soc_kernel(kernel("expf"), 512, 2, 2)
        # run(check=True) verifies every core's results AND that the
        # TCDM contents match the shared L2 copy byte for byte.
        result = w.run(check=True)
        assert result.l2_bytes_read == 512 * 8
        assert result.dma_bytes == 512 * 8

    def test_l2_overflow_rejected(self):
        w = partition_soc_kernel(kernel("expf"), 512, 2, 2)
        tiny = SocConfig(l2_size=1 << 10)
        with pytest.raises(MemoryError_, match="does not fit"):
            w.run(config=tiny, check=False)


class TestSocWriteback:
    """Output write-back across the SoC: drains hit the interconnect
    and land in the shared L2 as the authoritative result copy."""

    def test_drained_bytes_reach_the_shared_l2(self):
        w = partition_soc_kernel(kernel("expf"), 512, 2, 2,
                                 writeback=True)
        assert w.writeback
        # run(check=True) also verifies the shared-L2 drain regions
        # hold the computed outputs byte for byte.
        result = w.run(check=True)
        assert result.l2_bytes_read == 512 * 8
        assert result.l2_bytes_written == 512 * 8
        assert result.dma_bytes_written == 512 * 8
        assert result.dma_bytes == 2 * 512 * 8

    def test_drain_beats_cross_the_interconnect(self):
        on = partition_soc_kernel(kernel("expf"), 1024, 2, 2,
                                  writeback=True).run(check=False)
        off = partition_soc_kernel(kernel("expf"), 1024, 2, 2)\
            .run(check=False)
        # Drains double the link traffic (8 bytes/beat each way).
        assert sum(on.link_beats) == 2 * sum(off.link_beats)
        assert on.cycles > off.cycles

    def test_drain_regions_capacity_enforced_up_front(self):
        w = partition_soc_kernel(kernel("expf"), 512, 2, 2,
                                 writeback=True)
        # Inputs alone fit; inputs + drain regions do not.
        tiny = SocConfig(l2_size=512 * 8 + 64)
        with pytest.raises(MemoryError_, match="does not fit"):
            w.run(config=tiny, check=False)

    def test_writeback_off_soc_unchanged(self):
        base = partition_soc_kernel(kernel("logf"), 512, 2, 2)
        explicit = partition_soc_kernel(kernel("logf"), 512, 2, 2,
                                        writeback=False)
        assert base.run(check=False).cycles \
            == explicit.run(check=False).cycles


class TestSocContention:
    def _run(self, n_clusters, **config_kwargs):
        w = partition_soc_kernel(kernel("expf"), 4096, n_clusters, 4,
                                 variant="copift")
        return w.run(config=SocConfig(**config_kwargs), check=True)

    def test_four_clusters_contend_on_the_link(self):
        result = self._run(4)
        assert sum(result.link_stall_cycles) > 0

    def test_contention_off_removes_stalls(self):
        contended = self._run(4)
        ideal = self._run(4, model_contention=False)
        assert sum(ideal.link_stall_cycles) == 0
        assert ideal.cycles <= contended.cycles

    def test_wider_link_reduces_stalls(self):
        narrow = self._run(4, link_beats_per_cycle=1)
        wide = self._run(4, link_beats_per_cycle=4)
        assert sum(wide.link_stall_cycles) \
            < sum(narrow.link_stall_cycles)
        assert wide.cycles <= narrow.cycles

    def test_l2_latency_slows_staged_kernels(self):
        base = self._run(2)
        slow = self._run(2, l2_latency=64)
        assert slow.cycles >= base.cycles
        assert slow.dma_busy_cycles > base.dma_busy_cycles

    def test_two_clusters_do_not_contend_at_default_link(self):
        result = self._run(2)
        assert sum(result.link_stall_cycles) == 0


class TestSocMachineGuards:
    def test_too_many_clusters_rejected(self):
        soc = SocMachine(SocConfig(n_clusters=1))
        soc.add_cluster()
        with pytest.raises(ValueError, match="configured for 1"):
            soc.add_cluster()

    def test_empty_soc_rejected(self):
        with pytest.raises(ValueError, match="no clusters"):
            SocMachine().run()

    def test_region_missing_raises(self):
        w = partition_soc_kernel(kernel("pi_lcg"), 512, 2, 2)
        result = w.run(check=False)
        with pytest.raises(KeyError, match="nosuch"):
            result.region("nosuch")


class TestSocWorkloadShape:
    def test_dataclass_fields(self):
        w = partition_soc_kernel(kernel("logf"), 512, 2, 2,
                                 variant="copift")
        assert isinstance(w, SocWorkload)
        assert w.block is not None
        assert w.n == 512
        assert w.name == "logf"
