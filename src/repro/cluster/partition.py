"""Static work partitioning of the registered kernels across a cluster.

Each of the six Table-I kernels parallelizes by chunking: core *c* of
*N* processes ``n / N`` elements (vector kernels) or samples (Monte
Carlo, with a per-core PRNG seed).  Chunks are private — the builders
already lay every instance out in its own memory image — so cores only
couple through the shared-resource timing models (banked TCDM, DMA
engine, barrier).

Vector kernels (``expf``/``logf``) optionally stage their inputs from a
simulated L2 region into the TCDM through the cluster DMA engine: the
input array is relocated to L2, its TCDM home is zeroed, and a prologue
of ``dma.start`` tile transfers is prepended.  Transfer completion times
flow through the memory-RAW machinery, so the kernel's first blocks
compute while later tiles are still in flight — double-buffered
execution without touching the kernel builders.

A multi-core workload appends a trailing ``cluster.barrier`` so every
run exercises the synchronization path; a 1-core workload is exactly
the single-``Machine`` instance (bit-identical cycles by construction).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..isa.program import Program, ProgramBuilder
from ..kernels.common import KernelInstance
from ..kernels.registry import KernelDef
from ..mem import L2_WINDOW_BASE
from ..sim.config import CoreConfig
from .config import ClusterConfig
from .machine import ClusterMachine, ClusterRunResult

#: Drain window inside the per-core L2 address space: output write-back
#: lands here, above the staged-input window, so one core image can
#: hold both without overlap.
L2_DRAIN_BASE = L2_WINDOW_BASE + (1 << 18)

#: Per-core seed spacing for chunked PRNG/vector-input generation.
_SEED_STRIDE = 9973


def _prepend(program: Program, instructions: list) -> Program:
    offset = len(instructions)
    return Program(
        list(instructions) + list(program.instructions),
        {name: index + offset for name, index in program.labels.items()},
        program.name,
    )


def _append(program: Program, instructions: list) -> Program:
    return Program(
        list(program.instructions) + list(instructions),
        dict(program.labels),
        program.name,
    )


def choose_block(chunk: int, requested: int) -> int:
    """Largest workable COPIFT block ≤ *requested* for a chunk.

    Satisfies every builder's constraints at once: a multiple of 8,
    dividing the chunk, with at least 3 blocks (the deepest pipeline,
    expf's, needs 3).
    """
    if chunk % 8 or chunk < 32:
        raise ValueError(
            f"chunk of {chunk} elements cannot host a COPIFT pipeline "
            f"(needs a multiple of 8, at least 32)"
        )
    block = min(requested, chunk // 3)
    block -= block % 8
    while block > 8 and (chunk % block or chunk // block < 3):
        block -= 8
    if block < 8 or chunk % block or chunk // block < 3:
        raise ValueError(
            f"no valid block size ≤ {requested} for chunk {chunk}"
        )
    return block


def stage_inputs_via_dma(instance: KernelInstance,
                         l2_base: int = L2_WINDOW_BASE,
                         tile_elems: int = 64) -> KernelInstance:
    """Rebuild *instance* with its input array DMA-staged from L2.

    The input's TCDM home is zeroed so results genuinely depend on the
    transfers; one ``dma.start`` per ``tile_elems``-element tile is
    prepended (issue cost only — completion is tracked by the DMA
    engine and consumed through memory-RAW waits).
    """
    x_addr = instance.notes["x_addr"]
    x = instance.notes["inputs"]
    nbytes = x.nbytes
    memory = instance.memory
    memory.write_array(l2_base, x)
    memory.data[x_addr:x_addr + nbytes] = bytes(nbytes)

    tile = 8 * tile_elems
    prologue = ProgramBuilder()
    offset = 0
    current_len = None
    while offset < nbytes:
        length = min(tile, nbytes - offset)
        prologue.li("t0", x_addr + offset)
        prologue.li("t1", l2_base + offset)
        if length != current_len:
            prologue.li("t2", length)
            current_len = length
        prologue.dma_start("t0", "t1", "t2")
        offset += length
    program = _prepend(instance.program, prologue._instructions)
    notes = dict(instance.notes)
    notes["dma_staged"] = True
    return replace(instance, program=program, notes=notes)


def output_region(instance: KernelInstance) -> tuple[int, int] | None:
    """``(addr, nbytes)`` of the kernel's vector output, if it has one.

    Kernels register their output region through the ``out_region``
    note.  Monte Carlo kernels reduce to scalars and have nothing to
    drain — they return ``None``.
    """
    return instance.notes.get("out_region")


def drain_outputs_via_dma(instance: KernelInstance,
                          l2_base: int = L2_DRAIN_BASE,
                          tile_elems: int = 64) -> KernelInstance:
    """Rebuild *instance* with its output array DMA-drained to L2.

    Appends a write-back epilogue after the main region: one
    ``dma.start`` per ``tile_elems``-element tile moving the output
    region into the L2 drain window (chunked, so tiles pipeline
    through the engine and overlap other cores' compute), closed by a
    ``dma.wait`` fence so the program's makespan covers the drain.
    The epilogue issues once the integer core reaches it; FP results
    are functionally committed in program order, so the drained bytes
    are exact while the drain's *timing* overlaps the tail of the FP
    pipeline — the same approximation input staging makes in the
    other direction.
    """
    region = output_region(instance)
    if region is None:
        raise ValueError(
            f"kernel {instance.name} has no drainable outputs "
            f"(no out_region note)"
        )
    out_addr, nbytes = region
    tile = 8 * tile_elems
    epilogue = ProgramBuilder()
    offset = 0
    current_len = None
    while offset < nbytes:
        length = min(tile, nbytes - offset)
        epilogue.li("t0", l2_base + offset)
        epilogue.li("t1", out_addr + offset)
        if length != current_len:
            epilogue.li("t2", length)
            current_len = length
        epilogue.dma_start("t0", "t1", "t2")
        offset += length
    epilogue.dma_wait()
    program = _append(instance.program, epilogue._instructions)
    notes = dict(instance.notes)
    notes["dma_drained"] = True
    notes["drain_region"] = (l2_base, nbytes)
    notes["drain_src"] = out_addr
    return replace(instance, program=program, notes=notes)


@dataclass
class ClusterWorkload:
    """One kernel, one variant, statically chunked over N cores."""

    name: str
    variant: str
    n: int
    n_cores: int
    block: int | None
    instances: list[KernelInstance]
    #: Whether the instances carry write-back drain epilogues; the
    #: runner syncs :attr:`ClusterConfig.writeback` to it so the DMA
    #: beats also contend in the bank arbiter.
    writeback: bool = False

    def run(self, config: ClusterConfig | None = None,
            core_config: CoreConfig | None = None,
            check: bool = True,
            max_steps: int = 200_000_000,
            obs=None) -> ClusterRunResult:
        """Simulate the workload on a cluster sized to fit it.

        *obs* is an optional :class:`repro.obs.ObsSink` observing the
        whole cluster (cores, TCDM banks, DMA, barriers) under the
        ``cluster0`` scope.
        """
        config = config or ClusterConfig()
        if config.n_cores != self.n_cores:
            config = replace(config, n_cores=self.n_cores)
        if config.writeback != self.writeback:
            config = replace(config, writeback=self.writeback)
        cluster = ClusterMachine(config=config, core_config=core_config)
        if obs is not None:
            cluster.attach_obs(obs, "cluster0")
        for instance in self.instances:
            cluster.add_core(instance.program, instance.memory)
        result = cluster.run(max_steps=max_steps)
        if check:
            for instance, machine in zip(self.instances, cluster.cores):
                instance.verify(instance.memory, machine)
                verify_drained(instance)
        return result


def verify_drained(instance: KernelInstance) -> None:
    """Check a drained instance's L2 window copy of its outputs.

    The write-back epilogue's functional copy is applied in program
    order, so this asserts the *wiring* — addresses, lengths, the
    region actually drained — matches the output region the kernel
    registered.
    """
    if not instance.notes.get("dma_drained"):
        return
    drain_base, nbytes = instance.notes["drain_region"]
    out_addr = instance.notes["drain_src"]
    data = instance.memory.data
    if bytes(data[drain_base:drain_base + nbytes]) \
            != bytes(data[out_addr:out_addr + nbytes]):
        raise AssertionError(
            f"{instance.name}: L2 drain window diverged from the "
            f"TCDM output region"
        )


def partition_kernel(kernel_def: KernelDef, n: int, n_cores: int,
                     variant: str = "baseline",
                     block: int | None = None,
                     first_core: int = 0,
                     writeback: bool = False) -> ClusterWorkload:
    """Chunk one registered kernel over *n_cores* cores.

    Args:
        kernel_def: Registry entry to partition.
        n: Total problem size (must divide evenly into chunks).
        n_cores: Cluster size.
        variant: ``baseline`` or ``copift``.
        block: Requested COPIFT block size (auto-shrunk per chunk).
        first_core: Global index of this cluster's first core.  The
            SoC partitioner passes ``cluster * n_cores`` so per-core
            seeds stay unique across the whole SoC; global core 0
            always keeps the builder's default seed.
        writeback: Simulate output write-back: every core with a
            registered output region (:func:`output_region`) drains
            it to the L2 window through the DMA engine after the main
            region, and the cluster runs with
            :attr:`ClusterConfig.writeback` so DMA beats contend in
            the TCDM bank arbiter.
    """
    if variant not in ("baseline", "copift"):
        raise ValueError(f"unknown variant {variant!r}")
    if n % n_cores:
        raise ValueError(
            f"problem size {n} does not chunk evenly over "
            f"{n_cores} cores"
        )
    chunk = n // n_cores
    chunk_block = None
    if variant == "copift":
        chunk_block = choose_block(chunk,
                                   block or kernel_def.default_block)

    instances = []
    for core in range(n_cores):
        kwargs: dict = {}
        if first_core + core > 0:
            # Global core 0 keeps the builder's default seed so a
            # 1-core workload is bit-identical to the plain instance.
            kwargs["seed"] = _SEED_STRIDE * (first_core + core)
        if variant == "baseline":
            instance = kernel_def.build_baseline(chunk, **kwargs)
        else:
            instance = kernel_def.build_copift(chunk, block=chunk_block,
                                               **kwargs)
        # Vector-kernel inputs are staged from L2 through the DMA engine
        # for the kernels whose single-core instances already account
        # DMA activity (``expf``/``logf``) when the cluster has more
        # than one core.  Write-back mode simulates *all* of the
        # kernel's conceptual traffic, so staging is enabled even at
        # one core there — otherwise the measured bytes the energy
        # model prices would miss the input half at n_cores=1 (where
        # the default model keeps the bare-Machine cycle identity
        # instead).
        if instance.dma_active and (n_cores > 1 or writeback):
            if "inputs" not in instance.notes:
                raise ValueError(
                    f"kernel {kernel_def.name} has no stageable inputs"
                )
            instance = stage_inputs_via_dma(
                instance,
                tile_elems=chunk_block or min(64, chunk),
            )
        if writeback and output_region(instance) is not None:
            instance = drain_outputs_via_dma(
                instance,
                tile_elems=chunk_block or min(64, chunk),
            )
        if n_cores > 1:
            barrier = ProgramBuilder()
            barrier.cluster_barrier()
            instance = replace(
                instance,
                program=_append(instance.program,
                                barrier._instructions),
            )
        instances.append(instance)

    return ClusterWorkload(
        name=kernel_def.name, variant=variant, n=n, n_cores=n_cores,
        block=chunk_block, instances=instances, writeback=writeback,
    )
