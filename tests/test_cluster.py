"""Cluster subsystem tests: banked TCDM, DMA, barriers, partitioning.

Covers the edge cases the cluster model promises: single-core barriers,
DMA transfers overrunning the TCDM capacity, bank-conflict counter
correctness with two cores hammering one bank, and bit-identical
1-core-cluster vs bare-``Machine`` runs.  The TCDM claim ports are
checked against the one-method claim rule kept here as a reference.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    BankedTcdm,
    BankStats,
    ClusterConfig,
    ClusterDma,
    ClusterMachine,
    ClusterWorkload,
    choose_block,
    partition_kernel,
)
from repro.cluster import tcdm as tcdm_module
from repro.isa.program import ProgramBuilder
from repro.kernels.common import MAIN_REGION
from repro.kernels.registry import kernel
from repro.mem import DMA_REQUESTOR
from repro.sim import Machine, Memory, MemoryError_, SimulationError


def _loop_of_loads(addr: int, iters: int) -> ProgramBuilder:
    """Tight lw loop hammering one address."""
    b = ProgramBuilder()
    b.li("a0", addr)
    b.li("a1", 0)
    b.li("a2", iters)
    b.label("loop")
    b.lw("t0", 0, "a0")
    b.addi("a1", "a1", 1)
    b.bne("a1", "a2", "loop")
    return b


class TestBankedTcdm:
    def test_word_interleaving(self):
        t = BankedTcdm(n_banks=4, bank_stagger_words=0)
        assert t.bank_of(0, 0x0) == 0
        assert t.bank_of(0, 0x4) == 1
        assert t.bank_of(0, 0x10) == 0

    def test_stagger_shifts_banks(self):
        t = BankedTcdm(n_banks=4, bank_stagger_words=2)
        assert t.bank_of(1, 0x0) == 2
        assert t.bank_of(2, 0x0) == 0

    def test_same_cycle_conflict_delays_second_core(self):
        t = BankedTcdm(n_banks=4, bank_stagger_words=0)
        assert t.access(0, 0x0, 4, 10) == 10
        assert t.access(1, 0x0, 4, 10) == 11
        bank = t.bank_of(0, 0x0)
        assert t.stats[bank].stall_cycles == 1
        assert t.stats[bank].grants == 2
        assert t.total_conflict_cycles == 1

    def test_same_core_shares_its_port(self):
        t = BankedTcdm(n_banks=4, bank_stagger_words=0)
        assert t.access(0, 0x0, 4, 10) == 10
        assert t.access(0, 0x0, 4, 10) == 10
        assert t.total_conflict_cycles == 0

    def test_double_access_claims_two_banks(self):
        t = BankedTcdm(n_banks=4, bank_stagger_words=0)
        assert t.access(0, 0x0, 8, 5) == 5
        # Core 1 touching either half is pushed out.
        assert t.access(1, 0x4, 4, 5) == 6

    def test_different_banks_no_conflict(self):
        t = BankedTcdm(n_banks=4, bank_stagger_words=0)
        assert t.access(0, 0x0, 4, 3) == 3
        assert t.access(1, 0x4, 4, 3) == 3
        assert t.total_conflict_cycles == 0

    def test_disabled_never_stalls(self):
        t = BankedTcdm(n_banks=1, bank_stagger_words=0, enabled=False)
        assert t.access(0, 0x0, 4, 7) == 7
        assert t.access(1, 0x0, 4, 7) == 7


class _ReferenceTcdm:
    """The claim rule as one method, kept here as the reference the claim
    ports must equal: ``BankedTcdm.access`` before ports, verbatim but
    for a patchable prune threshold."""

    def __init__(self, n_banks, bank_stagger_words, enabled, prune_at):
        self.n_banks = n_banks
        self.bank_stagger_words = bank_stagger_words
        self.enabled = enabled
        self.prune_at = prune_at
        self.stats = [BankStats() for _ in range(n_banks)]
        self._claims = [{} for _ in range(n_banks)]
        self._claim_count = 0
        self.obs = None
        self.obs_scope = "cluster0"

    def access(self, core_id, addr, nbytes, cycle, requestor=None):
        if not self.enabled:
            return cycle
        if requestor is None:
            requestor = core_id
        shift = core_id * self.bank_stagger_words
        first = (addr >> 2) + shift
        n = self.n_banks
        claims = self._claims
        last = ((addr + nbytes - 1) >> 2) + shift
        banks = [first % n] if last == first \
            else [w % n for w in range(first, last + 1)]
        grant = cycle
        while True:
            for bank in banks:
                owner = claims[bank].get(grant)
                if owner is not None and owner != requestor:
                    grant += 1
                    break
            else:
                break
        delay = grant - cycle
        obs = self.obs
        if obs is not None:
            obs.emit(self.obs_scope, f"bank{banks[0]}",
                     "conflict" if delay else "grant", grant, 1,
                     "tcdm", {"core": core_id, "stall": delay})
        stats = self.stats
        for bank in banks:
            claims[bank][grant] = requestor
            bank_stats = stats[bank]
            bank_stats.grants += 1
            bank_stats.stall_cycles += delay
            delay = 0  # attribute the stall to the first touched bank
        self._claim_count += len(banks)
        if self._claim_count > self.prune_at:
            self._prune(grant)
        return grant

    def _prune(self, now, horizon=1 << 16):
        floor = now - horizon
        total = 0
        for bank in self._claims:
            stale = [t for t in bank if t < floor]
            for t in stale:
                del bank[t]
            total += len(bank)
        self._claim_count = total


class _Events:
    """An obs sink that records every event."""

    def __init__(self):
        self.events = []

    def emit(self, *event):
        self.events.append(event)


#: One claim: core, DMA or core requestor, byte address (any
#: alignment), width, cycle step (large ones cross the prune horizon),
#: and whether to go through ``access`` instead of a bound port.
_CLAIMS = st.tuples(st.integers(0, 3), st.booleans(), st.integers(0, 160),
                    st.sampled_from((1, 2, 4, 8, 16)),
                    st.sampled_from((0, 0, 0, 1, 1, 2, 3, -1, -2,
                                     70_000, -70_000)),
                    st.booleans())


class TestClaimPortMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(n_banks=st.sampled_from((1, 8, 32)),
           stagger=st.sampled_from((0, 1, 2)),
           enabled=st.sampled_from((True, True, True, False)),
           prune_at=st.sampled_from((1 << 20, 6)),
           claims=st.lists(_CLAIMS, max_size=60),
           attach=st.integers(0, 60))
    def test_ports_equal_the_reference_claim(self, n_banks, stagger,
                                             enabled, prune_at, claims,
                                             attach):
        ref = _ReferenceTcdm(n_banks, stagger, enabled, prune_at)
        with mock.patch.object(tcdm_module, "PRUNE_AT", prune_at):
            tcdm = BankedTcdm(n_banks, stagger, enabled)
            # Ports bind the prune threshold, and are bound before the
            # sink is attached, as a scheduler's may be.
            ports = {(core, requestor): tcdm.port(core, requestor)
                     for core in range(4)
                     for requestor in (None, DMA_REQUESTOR)}
        ref_sink, sink = _Events(), _Events()
        cycle = 0
        for i, (core, dma, addr, width, step, via_access) in \
                enumerate(claims):
            if i == attach:
                ref.obs, tcdm.obs = ref_sink, sink
                ref.obs_scope = tcdm.obs_scope = "soc/cluster1"
            cycle = max(0, cycle + step)
            requestor = DMA_REQUESTOR if dma else None
            want = ref.access(core, addr, width, cycle, requestor)
            if via_access:
                got = tcdm.access(core, addr, width, cycle, requestor)
            else:
                got = ports[(core, requestor)](addr, width, cycle)
            assert got == want, (i, core, requestor, addr, width, cycle)
        assert tcdm._claims == ref._claims
        assert tcdm.stats == ref.stats
        assert sink.events == ref_sink.events
        assert tcdm._count[0] == ref._claim_count

    def test_prune_drops_only_claims_past_the_horizon(self):
        tcdm = BankedTcdm(n_banks=4, bank_stagger_words=0)
        with mock.patch.object(tcdm_module, "PRUNE_AT", 2):
            claim = tcdm.port(0)
        claim(0x0, 4, 0)
        claim(0x4, 4, 1)
        claim(0x8, 4, 100_000)          # the third claim prunes
        assert tcdm._claims[:3] == [{}, {}, {100_000: 0}]
        assert tcdm.stats[0].grants == tcdm.stats[1].grants == 1


class TestClusterDma:
    def test_bandwidth_and_latency(self):
        dma = ClusterDma(bandwidth=8, setup_latency=16)
        done = dma.start(0, 0x1000, 0x80000, 64, now=100)
        assert done == 100 + 16 + 8
        assert dma.bytes_moved == 64

    def test_transfers_serialize(self):
        dma = ClusterDma(bandwidth=8, setup_latency=16)
        first = dma.start(0, 0x1000, 0x80000, 64, now=0)
        second = dma.start(1, 0x2000, 0x81000, 64, now=0)
        assert second == first + 16 + 8
        assert dma.core_drain_time(0) == first
        assert dma.core_drain_time(1) == second

    def test_tcdm_overrun_rejected(self):
        dma = ClusterDma(bandwidth=8, setup_latency=16,
                         tcdm_size=0x1000)
        with pytest.raises(MemoryError_, match="overruns"):
            dma.start(0, 0x0F00, 0x80000, 0x200, now=0)
        # Entirely inside TCDM or entirely in L2 is fine.
        dma.start(0, 0x0E00, 0x80000, 0x100, now=0)

    def test_machine_dma_start_overrun(self):
        """End-to-end: dma.start overrunning the TCDM raises."""
        config = ClusterConfig(n_cores=1, tcdm_size=0x2000)
        cluster = ClusterMachine(config=config)
        b = ProgramBuilder()
        b.li("t0", 0x1F00)        # dst: tail of the TCDM
        b.li("t1", 0x4000)        # src: "L2"
        b.li("t2", 0x400)         # overruns by 0x300
        b.dma_start("t0", "t1", "t2")
        cluster.add_core(b.build(), Memory(1 << 16))
        with pytest.raises(MemoryError_, match="overruns"):
            cluster.run()


class TestBarrier:
    def test_single_core_barrier_releases(self):
        """A 1-core barrier must release immediately, not deadlock."""
        config = ClusterConfig(n_cores=1, barrier_latency=4)
        cluster = ClusterMachine(config=config)
        b = ProgramBuilder()
        b.li("a0", 1)
        b.cluster_barrier()
        b.li("a1", 2)
        machine = cluster.add_core(b.build(), Memory(1 << 12))
        result = cluster.run()
        assert result.barrier_count == 1
        assert machine.iregs[11] == 2          # ran past the barrier
        # li, barrier, li, plus the barrier release latency.
        assert result.cycles == 2 + config.barrier_latency + 1

    def test_barrier_aligns_cores(self):
        """The fast core waits for the slow one."""
        config = ClusterConfig(n_cores=2, barrier_latency=4,
                               model_bank_conflicts=False)
        cluster = ClusterMachine(config=config)
        slow = ProgramBuilder()
        slow.li("a1", 0)
        slow.li("a2", 100)
        slow.label("spin")
        slow.addi("a1", "a1", 1)
        slow.bne("a1", "a2", "spin")
        slow.cluster_barrier()
        fast = ProgramBuilder()
        fast.cluster_barrier()
        m0 = cluster.add_core(slow.build(), Memory(1 << 12))
        m1 = cluster.add_core(fast.build(), Memory(1 << 12))
        result = cluster.run()
        assert result.barrier_count == 1
        # Both cores end at the same release time.
        assert m0.sched.int_time == m1.sched.int_time
        assert m1.sched.counters.stall_barrier > \
            m0.sched.counters.stall_barrier

    def test_standalone_machine_treats_barrier_as_nop(self):
        b = ProgramBuilder()
        b.cluster_barrier()
        b.li("a0", 5)
        machine = Machine()
        result = machine.run(b.build())
        assert machine.iregs[10] == 5
        assert result.counters.barriers == 1

    def test_barrier_mismatch_raises(self):
        config = ClusterConfig(n_cores=2)
        cluster = ClusterMachine(config=config)
        with_barrier = ProgramBuilder()
        with_barrier.cluster_barrier()
        without = ProgramBuilder()
        without.nop()
        cluster.add_core(with_barrier.build(), Memory(1 << 12))
        cluster.add_core(without.build(), Memory(1 << 12))
        with pytest.raises(SimulationError, match="barrier mismatch"):
            cluster.run()


def _spin_then_barrier(iters: int) -> ProgramBuilder:
    """Count to *iters*, then wait at a cluster barrier."""
    b = ProgramBuilder()
    b.li("a1", 0)
    b.li("a2", iters)
    b.label("spin")
    b.addi("a1", "a1", 1)
    b.bne("a1", "a2", "spin")
    b.cluster_barrier()
    return b


class TestLaggardClock:
    """The cluster clock an enclosing SoC orders on, and step()'s
    contract at the edges of a run."""

    def _two_cores(self) -> ClusterMachine:
        # Core 0 spins before its barrier; core 1 parks at once.
        cluster = ClusterMachine(config=ClusterConfig(
            n_cores=2, barrier_latency=4, model_bank_conflicts=False))
        cluster.add_core(_spin_then_barrier(50).build(), Memory(1 << 12))
        late = ProgramBuilder()
        late.cluster_barrier()
        late.li("a0", 1)
        cluster.add_core(late.build(), Memory(1 << 12))
        return cluster

    def test_fully_parked_cluster_reports_parked_minimum(self):
        cluster = self._two_cores()
        cluster.bind()
        cores = [m.sched for m in cluster.cores]
        while not all(s.barrier_wait for s in cores):
            assert cluster.step()
            assert cluster.laggard_time == min(s.int_time for s in cores)
        # Core 1 parked long before core 0 arrived: it holds the clock.
        assert cores[1].int_time < cores[0].int_time
        assert cluster.laggard_time == cores[1].int_time
        assert cluster.step()                  # the barrier release
        assert not any(s.barrier_wait for s in cores)
        release = cores[0].barrier_arrival + 4
        assert cores[0].int_time == cores[1].int_time == release
        assert cluster.laggard_time == release

    def test_finished_cluster_reports_latest_core(self):
        cluster = self._two_cores()
        cluster.run()
        assert cluster.finished
        assert cluster.laggard_time == max(m.sched.int_time
                                           for m in cluster.cores)

    def test_step_after_completion_keeps_returning_false(self):
        cluster = self._two_cores()
        cluster.run()
        before = [m.sched.int_time for m in cluster.cores]
        for _ in range(3):
            assert cluster.step() is False
        assert [m.sched.int_time for m in cluster.cores] == before
        assert cluster.finished

    def test_unbound_cluster_is_not_finished(self):
        cluster = self._two_cores()
        assert not cluster.finished
        assert cluster.laggard_time == 0

    def test_mismatch_lists_cores_in_core_order(self):
        # Core 1 parks first, core 0 parks later, core 2 exits: the
        # message names the parked cores in core order regardless.
        cluster = ClusterMachine(config=ClusterConfig(n_cores=3))
        cluster.add_core(_spin_then_barrier(30).build(), Memory(1 << 12))
        early = ProgramBuilder()
        early.cluster_barrier()
        cluster.add_core(early.build(), Memory(1 << 12))
        exits = ProgramBuilder()
        exits.nop()
        cluster.add_core(exits.build(), Memory(1 << 12))
        with pytest.raises(SimulationError) as info:
            cluster.run()
        message = str(info.value)
        assert "cores [0, 1] wait at a barrier" in message
        assert "cores [2] exited" in message


class TestAtomics:
    def test_amoadd_accumulates_across_cores(self):
        """Two cores fetch-and-add into one shared counter."""
        shared = Memory(1 << 12)
        config = ClusterConfig(n_cores=2, model_bank_conflicts=False)
        cluster = ClusterMachine(config=config)
        for _ in range(2):
            b = ProgramBuilder()
            b.li("a0", 0x100)
            b.li("a1", 0)
            b.li("a2", 50)
            b.li("a3", 1)
            b.label("loop")
            b.amoadd_w("t0", 0, "a0", "a3")
            b.addi("a1", "a1", 1)
            b.bne("a1", "a2", "loop")
            cluster.add_core(b.build(), shared)
        result = cluster.run()
        assert shared.read_u32(0x100) == 100
        assert result.counters.amo_ops == 100

    def test_amoadd_returns_old_value(self):
        b = ProgramBuilder()
        b.li("a0", 0x40)
        b.li("a1", 7)
        b.sw("a1", 0, "a0")
        b.li("a2", 5)
        b.amoadd_w("t0", 0, "a0", "a2")
        machine = Machine()
        machine.run(b.build())
        assert machine.iregs[5] == 7               # t0 = old value
        assert machine.memory.read_u32(0x40) == 12


class TestTwoCoresOneBank:
    """Bank-conflict counter correctness under directed contention."""

    def test_conflicts_counted_and_attributed(self):
        config = ClusterConfig(n_cores=2, tcdm_banks=8,
                               bank_stagger_words=0)
        cluster = ClusterMachine(config=config)
        m0 = cluster.add_core(_loop_of_loads(0x200, 64).build(),
                              Memory(1 << 12))
        m1 = cluster.add_core(_loop_of_loads(0x200, 64).build(),
                              Memory(1 << 12))
        result = cluster.run()
        bank = cluster.tcdm.bank_of(0, 0x200)
        # Every conflict cycle lands on the hammered bank...
        assert result.tcdm_bank_conflicts[bank] > 0
        assert sum(result.tcdm_bank_conflicts) == \
            result.tcdm_bank_conflicts[bank]
        # ... and the stall cycles the cores observed equal the
        # arbiter's conflict tally exactly.
        stalls = (m0.sched.counters.stall_tcdm
                  + m1.sched.counters.stall_tcdm)
        assert stalls == result.tcdm_conflict_cycles

    def test_stagger_removes_lockstep_conflicts(self):
        config = ClusterConfig(n_cores=2, tcdm_banks=8,
                               bank_stagger_words=2)
        cluster = ClusterMachine(config=config)
        cluster.add_core(_loop_of_loads(0x200, 64).build(),
                         Memory(1 << 12))
        cluster.add_core(_loop_of_loads(0x200, 64).build(),
                         Memory(1 << 12))
        result = cluster.run()
        assert result.tcdm_conflict_cycles == 0


class TestPartition:
    def test_one_core_cluster_is_bit_identical(self):
        """N=1 cluster == bare Machine, cycles and counters."""
        kd = kernel("pi_lcg")
        for variant in ("baseline", "copift"):
            build = kd.build_baseline if variant == "baseline" \
                else kd.build_copift
            solo_result, _ = build(512).run()
            workload = partition_kernel(kd, 512, 1, variant=variant)
            cluster_result = workload.run()
            core = cluster_result.core_results[0]
            assert core.cycles == solo_result.cycles, variant
            assert vars(core.counters) == vars(solo_result.counters), \
                variant
            main = cluster_result.region(MAIN_REGION)
            assert main.cycles == \
                solo_result.region(MAIN_REGION).cycles

    def test_chunks_scale_down_with_cores(self):
        workload = partition_kernel(kernel("pi_lcg"), 1024, 4)
        assert workload.n_cores == 4
        assert len(workload.instances) == 4
        assert all(i.n == 256 for i in workload.instances)

    def test_per_core_seeds_differ(self):
        workload = partition_kernel(kernel("pi_lcg"), 512, 2)
        workload.run(check=True)  # verifies both chunks
        hits = [inst.memory.read_u32(inst.memory.read_u32(0) or 0x1000)
                for inst in workload.instances]
        # Different seeds -> almost surely different hit counts.
        assert hits[0] != hits[1]

    def test_uneven_chunking_rejected(self):
        with pytest.raises(ValueError, match="chunk evenly"):
            partition_kernel(kernel("pi_lcg"), 1000, 3)

    def test_choose_block_constraints(self):
        assert choose_block(512, 64) == 64
        block = choose_block(128, 64)
        assert block % 8 == 0
        assert 128 % block == 0
        assert 128 // block >= 3
        with pytest.raises(ValueError):
            choose_block(16, 64)

    def test_multicore_runs_verify(self):
        workload = partition_kernel(kernel("poly_lcg"), 1024, 4,
                                    variant="copift")
        result = workload.run(check=True)
        assert result.barrier_count == 1
        assert result.cycles > 0

    def test_dma_staged_vector_kernel_verifies(self):
        """expf inputs travel L2 -> TCDM through the DMA engine."""
        workload = partition_kernel(kernel("expf"), 512, 2,
                                    variant="copift")
        assert all(i.notes.get("dma_staged")
                   for i in workload.instances)
        result = workload.run(check=True)   # verify => data arrived
        assert result.dma_bytes == 512 * 8  # both chunks staged
        assert result.counters.dma_transfers > 0

    def test_workload_dataclass_fields(self):
        workload = partition_kernel(kernel("logf"), 256, 2,
                                    variant="copift")
        assert isinstance(workload, ClusterWorkload)
        assert workload.block is not None
        assert workload.n == 256


class TestWriteback:
    """Output write-back: drains simulated, off-mode untouched."""

    def test_drain_epilogue_and_traffic(self):
        workload = partition_kernel(kernel("expf"), 512, 2,
                                    variant="copift", writeback=True)
        assert workload.writeback
        assert all(i.notes.get("dma_drained")
                   for i in workload.instances)
        result = workload.run(check=True)   # verifies drain windows
        assert result.dma_bytes_read == 512 * 8    # staged inputs
        assert result.dma_bytes_written == 512 * 8  # drained outputs
        assert result.dma_bytes \
            == result.dma_bytes_read + result.dma_bytes_written

    def test_one_core_writeback_stages_and_drains(self):
        """Write-back mode simulates the kernel's *full* conceptual
        traffic at every core count: even a 1-core cluster stages its
        inputs and drains its outputs, so the measured bytes the
        energy model prices match the 16 B/element the off-mode
        conceptual accounting uses."""
        workload = partition_kernel(kernel("expf"), 512, 1,
                                    variant="copift", writeback=True)
        result = workload.run(check=True)
        assert result.dma_bytes_read == 512 * 8
        assert result.dma_bytes_written == 512 * 8
        instance = workload.instances[0]
        assert result.dma_bytes == instance.dma_bytes  # 16 B/elem

    def test_monte_carlo_has_nothing_to_drain(self):
        workload = partition_kernel(kernel("pi_lcg"), 512, 2,
                                    writeback=True)
        assert not any(i.notes.get("dma_drained")
                       for i in workload.instances)
        result = workload.run(check=True)
        assert result.dma_bytes_written == 0

    def test_drain_stretches_the_makespan(self):
        on = partition_kernel(kernel("logf"), 512, 2,
                              variant="copift", writeback=True)\
            .run(check=False)
        off = partition_kernel(kernel("logf"), 512, 2,
                               variant="copift").run(check=False)
        assert on.cycles > off.cycles
        assert off.dma_bytes_written == 0

    def test_writeback_off_is_untouched(self):
        """The default path must stay bit-identical: no drain
        epilogue, no bank claims, same cycles as ever (the golden
        suite locks the absolute values; this locks the equivalence
        between the explicit and the default off spelling)."""
        default = partition_kernel(kernel("expf"), 512, 2,
                                   variant="copift")
        explicit = partition_kernel(kernel("expf"), 512, 2,
                                    variant="copift", writeback=False)
        assert default.run(check=False).cycles \
            == explicit.run(check=False).cycles

    def test_output_region_resolution(self):
        from repro.cluster import output_region

        expf = kernel("expf").build_baseline(64)
        addr, nbytes = output_region(expf)
        assert (addr, nbytes) == expf.notes["out_region"]
        assert nbytes == 64 * 8
        mc = kernel("pi_lcg").build_baseline(64)
        assert output_region(mc) is None

    def test_drain_without_outputs_rejected(self):
        from repro.cluster import drain_outputs_via_dma

        with pytest.raises(ValueError, match="no drainable outputs"):
            drain_outputs_via_dma(kernel("pi_lcg").build_baseline(64))


class TestClusterMachineGuards:
    def test_too_many_cores_rejected(self):
        cluster = ClusterMachine(config=ClusterConfig(n_cores=1))
        b = ProgramBuilder()
        b.nop()
        cluster.add_core(b.build(), Memory(1 << 12))
        with pytest.raises(ValueError, match="configured for 1"):
            cluster.add_core(b.build(), Memory(1 << 12))

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError, match="no cores"):
            ClusterMachine().run()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_cores=0)
        with pytest.raises(ValueError):
            ClusterConfig(dma_bandwidth=0)
