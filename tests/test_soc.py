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

from repro.cluster import (
    ClusterConfig,
    ClusterDma,
    ClusterMachine,
    partition_kernel,
)
from repro.isa.program import ProgramBuilder
from repro.kernels.common import MAIN_REGION
from repro.kernels.registry import KERNELS, kernel
from repro.sim import Memory, MemoryError_
from repro.soc import (
    L2Memory,
    SocConfig,
    SocDmaChannel,
    SocInterconnect,
    SocMachine,
    SocWorkload,
    partition_soc_kernel,
)

from programs import shared_calls


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
        from repro.mem import L2_WINDOW_BASE

        l2 = L2Memory()
        channel = SocDmaChannel(
            cluster_id=0, interconnect=SocInterconnect(n_clusters=1),
            l2=l2, bandwidth=8, setup_latency=16)
        l2_base = L2_WINDOW_BASE
        channel.start(0, 0x1000, l2_base, 256, now=0)     # L2 -> TCDM
        channel.start(0, l2_base + 0x400, 0x1000, 64, now=0)
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


def _min_scan_run(self, max_steps: int = 200_000_000):
    """Reference driver: the linear laggard scans the heaps replaced.

    Steps the cluster with the least ``(laggard, cluster_id)`` — a
    cluster's laggard being the least ``int_time`` over its unfinished
    cores, parked ones included — then its runnable core with the
    least ``(int_time, core_id)``; releases a barrier once all of a
    cluster's unfinished cores are parked.  Installed as the ``run`` of
    both ClusterMachine and SocMachine.
    """
    clusters = getattr(self, "clusters", [self])
    for cluster in clusters:
        cluster.bind(max_steps)
    active = {c.cluster_id: list(c.cores) for c in clusters}
    finished = {c.cluster_id: [] for c in clusters}
    while any(active.values()):
        cid = min((c for c in active if active[c]), key=lambda c: (
            min(m.sched.int_time for m in active[c]), c))
        cores = active[cid]
        runnable = [m for m in cores if not m.sched.barrier_wait]
        if not runnable:
            clusters[cid]._release_barrier(cores, finished[cid])
            continue
        core = min(runnable, key=lambda m: (m.sched.int_time, m.core_id))
        if not core.sched.step():
            cores.remove(core)
            finished[cid].append(core)
    return self.result()


def _stepping(monkeypatch, run):
    """The shared-resource calls of *run()* (:func:`programs.
    shared_calls`) and its result, under the run-ahead drivers and then
    under :func:`_min_scan_run`."""
    with shared_calls() as heap_log:
        heap_result = run()
    with shared_calls() as scan_log, monkeypatch.context() as patch:
        patch.setattr(ClusterMachine, "run", _min_scan_run)
        patch.setattr(SocMachine, "run", _min_scan_run)
        scan_result = run()
    # Every program here loads from the TCDM: an empty claim log means
    # claims went by a path the log cannot see.
    assert any(entry[0] == "tcdm" for entry in heap_log)
    return heap_log, heap_result, scan_log, scan_result


def _barrier_rounds(core: int, rounds: int = 5):
    """*rounds* of core-skewed loads on one shared word, each closed by
    a cluster barrier (the laggard core changes from round to round)."""
    b = ProgramBuilder()
    b.li("a0", 0x100)
    b.li("a3", 0)
    b.li("a4", rounds)
    b.label("round")
    b.li("a1", 0)
    b.andi("a2", "a3", 3)
    b.addi("a2", "a2", 1 + core % 3)
    b.label("load")
    b.lw("t0", 0, "a0")
    b.addi("a1", "a1", 1)
    b.blt("a1", "a2", "load")
    b.cluster_barrier()
    b.addi("a3", "a3", 1)
    b.bne("a3", "a4", "round")
    return b.build()


def _spin(iters: int, barrier: bool = False, load: bool = False):
    """Count to *iters*, loading a word each time if *load*, then
    optionally wait at a cluster barrier."""
    b = ProgramBuilder()
    b.li("a1", 0)
    b.li("a2", iters)
    b.label("spin")
    if load:
        b.lw("t0", 0, "zero")
    b.addi("a1", "a1", 1)
    b.bne("a1", "a2", "spin")
    if barrier:
        b.cluster_barrier()
    return b.build()


#: The differential rungs: (clusters, cores per cluster, write-back).
_RUNGS = {"cluster:8": (None, 8, False), "soc:2x4": (2, 4, False),
          "soc:2x4+wb": (2, 4, True)}


def _barrier_machine(rung: str):
    clusters, cores, writeback = _RUNGS[rung]
    cc = ClusterConfig(n_cores=cores, bank_stagger_words=0,
                       writeback=writeback)
    if clusters is None:
        machine = ClusterMachine(config=cc)
        targets = [machine]
    else:
        machine = SocMachine(SocConfig(n_clusters=clusters, cluster=cc))
        targets = [machine.add_cluster() for _ in range(clusters)]
    for c, cluster in enumerate(targets):
        for m in range(cores):
            cluster.add_core(_barrier_rounds(c * cores + m),
                             Memory(1 << 12))
    return machine


class TestHeapStepping:
    """The run-ahead drivers make exactly the shared-resource calls of
    the per-op linear scans they replaced, in the same order and with
    the same arguments, so cycles and claim order cannot move."""

    @pytest.mark.parametrize("rung", sorted(_RUNGS))
    @pytest.mark.parametrize("name,variant", [("expf", "copift"),
                                              ("pi_lcg", "baseline")])
    def test_kernel_matches_min_scan(self, monkeypatch, rung, name,
                                     variant):
        clusters, cores, writeback = _RUNGS[rung]

        def run():
            if clusters is None:
                workload = partition_kernel(kernel(name), 512, cores,
                                            variant=variant,
                                            writeback=writeback)
            else:
                workload = partition_soc_kernel(
                    kernel(name), 512, clusters, cores, variant=variant,
                    writeback=writeback)
            return workload.run(check=True)

        heap_log, heap, scan_log, scan = _stepping(monkeypatch, run)
        assert heap_log == scan_log
        assert heap == scan

    @pytest.mark.parametrize("rung", sorted(_RUNGS))
    def test_barrier_rounds_match_min_scan(self, monkeypatch, rung):
        heap_log, heap, scan_log, scan = _stepping(
            monkeypatch, lambda: _barrier_machine(rung).run())
        assert heap.barrier_count == 5 * (1 if rung == "cluster:8"
                                          else 2)
        assert heap_log == scan_log
        assert heap == scan

    def test_parked_core_holds_its_cluster_clock(self, monkeypatch):
        """Cluster 0's core 0 parks at once; its core 1 spins far ahead
        of cluster 1, whose core loads a word every iteration.  The
        parked core is the SoC laggard, so cluster 0's barrier is
        released, a shared step, while cluster 1's core is unfinished
        and far behind the last arrival."""
        def build():
            cc = ClusterConfig(n_cores=2, model_bank_conflicts=False)
            soc = SocMachine(SocConfig(n_clusters=2, cluster=cc))
            first, second = soc.add_cluster(), soc.add_cluster()
            parks = ProgramBuilder()
            parks.cluster_barrier()
            parks.li("a0", 1)
            first.add_core(parks.build(), Memory(1 << 12))
            first.add_core(_spin(40, barrier=True), Memory(1 << 12))
            second.add_core(_spin(30, load=True), Memory(1 << 12))
            return soc

        ahead = []
        release = ClusterMachine._release_barrier

        def watch(cluster, waiting, finished):
            other = soc.clusters[1].cores[0].sched
            if cluster.cluster_id == 0 and not other.finished:
                arrival = max(m.barrier_arrival for m in waiting)
                ahead.append(arrival > other.int_time + 40)
            return release(cluster, waiting, finished)

        soc = build()
        monkeypatch.setattr(ClusterMachine, "_release_barrier", watch)
        soc.run()
        assert ahead == [True]
        monkeypatch.undo()
        heap_log, heap, scan_log, scan = _stepping(
            monkeypatch, lambda: build().run())
        assert heap_log == scan_log
        assert heap == scan


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
