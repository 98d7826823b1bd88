"""Banked-TCDM timing model: word-interleaved banks with arbitration.

Layered *over* :class:`repro.sim.memory.Memory` — functional state stays
a flat bytearray; this module only decides **when** an access is granted.
The TCDM is split into ``n_banks`` word-interleaved banks (word ``w``
lives in bank ``w % n_banks``); each bank grants one request per cycle.
A request claims every bank its footprint touches (a 64-bit access spans
two adjacent banks) and is delayed until the first cycle all of them are
free, which is the modelled bank-conflict stall.

Arbitration granularity follows the core model's structure:

* a core never conflicts with *itself* — the in-order core issues at
  most one LSU/SSR request per engine per cycle, and its private request
  port is already serialized, so same-core claims share the cycle.  This
  also keeps a 1-core cluster cycle-identical to a bare ``Machine``;
* cross-core claims are first-come-first-served in *simulation* order:
  the per-op order of :meth:`ClusterMachine.step
  <repro.cluster.machine.ClusterMachine.step>`, which steps the
  earliest-in-time core first, so claim order tracks cycle order closely
  (exact for lock-step cores); an ``frep`` burst may claim a span of
  future cycles ahead of its peers, which makes the arbitration
  approximate but deterministic.  ``ClusterMachine.run`` lets a core
  run its private steps ahead, but every access here is a shared step,
  made only while the core's ``(int_time, core_id)`` is the least key
  (and, in a SoC, its cluster's key too), so the claims arrive in the
  per-op order with the per-op cycles.

Every claim goes through a *claim port*, :meth:`BankedTcdm.port`: one
function per ``(core, requestor)`` with the bank shift, requestor, bank
count, claim tables and statistics bound in, so the common one- and
two-word claims cost about one dict probe per touched bank.  A core's
scheduler and its compiled runs bind their core's port once per bind,
the DMA engine uses its ``DMA_REQUESTOR`` port, and :meth:`access`
is the same port looked up per call.  The ports change no rule and no
order: grants, statistics, obs events (read from the live sink per
claim) and pruning are those of the one claim rule above.
"""

from __future__ import annotations

from ..mem import StreamStats


class BankStats(StreamStats):
    """Per-bank activity — the TCDM's view of the shared
    :class:`~repro.mem.StreamStats` shape: ``grants`` counts bank
    accesses, ``stall_cycles`` bank-conflict cycles."""


#: Claimed bank-cycles after which claims far in the past are dropped.
PRUNE_AT = 1 << 20


def _granted(addr: int, nbytes: int, cycle: int) -> int:
    """The claim port of a TCDM with bank conflicts off."""
    return cycle


def _prune(claims: list[dict[int, int]], count: list[int], now: int,
           horizon: int = 1 << 16) -> None:
    """Drop claims far in the past to bound memory."""
    floor = now - horizon
    total = 0
    for bank in claims:
        stale = [t for t in bank if t < floor]
        for t in stale:
            del bank[t]
        total += len(bank)
    count[0] = total


class BankedTcdm:
    """Per-cycle bank arbiter shared by every core of a cluster.

    The bank count, stagger and ``enabled`` are fixed at construction:
    claim ports bind them in.
    """

    def __init__(self, n_banks: int = 32, bank_stagger_words: int = 2,
                 enabled: bool = True) -> None:
        self.n_banks = n_banks
        self.bank_stagger_words = bank_stagger_words
        self.enabled = enabled
        self.stats = [BankStats() for _ in range(n_banks)]
        #: claims[bank][cycle] -> requestor granted that bank-cycle.
        self._claims: list[dict[int, int]] = [
            {} for _ in range(n_banks)
        ]
        #: [bank-cycles claimed since the last prune]; a cell the
        #: ports share, so they hold no reference back to the arbiter.
        self._count = [0]
        #: [obs sink, obs scope], read by the ports on every claim.
        self._sink = [None, "cluster0"]
        #: Claim ports by ``(core_id, requestor)``.
        self._ports: dict[tuple[int, int | None], object] = {}

    @property
    def obs(self):
        """Structured-event sink (repro.obs.ObsSink); None when off."""
        return self._sink[0]

    @obs.setter
    def obs(self, sink) -> None:
        self._sink[0] = sink

    @property
    def obs_scope(self) -> str:
        """Scope bank events are emitted under (the owning cluster)."""
        return self._sink[1]

    @obs_scope.setter
    def obs_scope(self, scope: str) -> None:
        self._sink[1] = scope

    # ------------------------------------------------------------------
    def bank_of(self, core_id: int, addr: int) -> int:
        """Bank serving byte *addr* as seen by *core_id*.

        The per-core stagger models firmware placing each core's
        *private* chunk at a different bank-aligned offset; it shifts
        the core's whole address space by ``core_id * stagger`` words.
        That is the right model when every core carries its own memory
        image (the partitioned workloads), but it makes one shared
        physical word map to *different* banks per core — so for
        workloads where cores share a memory image (atomics on a
        common counter), configure ``bank_stagger_words=0`` to get a
        physical bank mapping and model contention on shared words.
        """
        word = (addr >> 2) + core_id * self.bank_stagger_words
        return word % self.n_banks

    # ------------------------------------------------------------------
    def access(self, core_id: int, addr: int, nbytes: int,
               cycle: int, requestor: int | None = None) -> int:
        """Arbitrate one access; returns the grant cycle (>= *cycle*).

        The same claim as ``port(core_id, requestor)(addr, nbytes,
        cycle)``; see :meth:`port`.
        """
        return self.port(core_id, requestor)(addr, nbytes, cycle)

    def port(self, core_id: int, requestor: int | None = None):
        """The claim port of *core_id*: ``claim(addr, nbytes, cycle)``
        arbitrates one access and returns its grant cycle (>= *cycle*).

        A claim takes every touched bank at the grant cycle.  Banks
        already claimed by the same *requestor* at a cycle do not block
        (the requestor's own port is serialized upstream); the requestor
        defaults to *core_id* — the common case of a core's LSU/SSR
        port.  The DMA engine passes its own requestor id
        (:data:`~repro.mem.DMA_REQUESTOR`) while keeping *core_id* for
        the bank mapping, so its beats conflict with every core's
        accesses, including the issuing core's.  A conflict's stall is
        counted on the first touched bank.

        Ports are cached per ``(core_id, requestor)``; callers on a hot
        path bind one once.
        """
        claim = self._ports.get((core_id, requestor))
        if claim is None:
            claim = self._ports[(core_id, requestor)] = self._bind(
                core_id, core_id if requestor is None else requestor)
        return claim

    def _bind(self, core_id: int, requestor: int):
        """Build one claim port with everything but the sink bound in.

        Footprints of one or two words (every aligned core access)
        take straight-line paths; wider ones the general path.
        """
        if not self.enabled:
            return _granted
        shift = core_id * self.bank_stagger_words
        n = self.n_banks
        claims, stats = self._claims, self.stats
        count, sink = self._count, self._sink
        prune_at = PRUNE_AT

        def claim(addr: int, nbytes: int, cycle: int) -> int:
            first = (addr >> 2) + shift
            last = ((addr + nbytes - 1) >> 2) + shift
            if last == first:
                bank = first % n
                table = claims[bank]
                grant = cycle
                while table.get(grant, requestor) != requestor:
                    grant += 1
                delay = grant - cycle
                obs = sink[0]
                if obs is not None:
                    obs.emit(sink[1], f"bank{bank}",
                             "conflict" if delay else "grant", grant, 1,
                             "tcdm", {"core": core_id, "stall": delay})
                table[grant] = requestor
                bank_stats = stats[bank]
                bank_stats.grants += 1
                if delay:
                    bank_stats.stall_cycles += delay
                claimed = count[0] + 1
            elif last == first + 1:
                bank = first % n
                other = last % n
                table, table2 = claims[bank], claims[other]
                grant = cycle
                while table.get(grant, requestor) != requestor \
                        or table2.get(grant, requestor) != requestor:
                    grant += 1
                delay = grant - cycle
                obs = sink[0]
                if obs is not None:
                    obs.emit(sink[1], f"bank{bank}",
                             "conflict" if delay else "grant", grant, 1,
                             "tcdm", {"core": core_id, "stall": delay})
                table[grant] = table2[grant] = requestor
                bank_stats = stats[bank]
                bank_stats.grants += 1
                if delay:
                    bank_stats.stall_cycles += delay
                stats[other].grants += 1
                claimed = count[0] + 2
            else:
                banks = [w % n for w in range(first, last + 1)]
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
                obs = sink[0]
                if obs is not None:
                    obs.emit(sink[1], f"bank{banks[0]}",
                             "conflict" if delay else "grant", grant, 1,
                             "tcdm", {"core": core_id, "stall": delay})
                for bank in banks:
                    claims[bank][grant] = requestor
                    bank_stats = stats[bank]
                    bank_stats.grants += 1
                    bank_stats.stall_cycles += delay
                    delay = 0  # the stall goes to the first bank
                claimed = count[0] + len(banks)
            count[0] = claimed
            if claimed > prune_at:
                _prune(claims, count, grant)
            return grant

        return claim


    # ------------------------------------------------------------------
    @property
    def total_accesses(self) -> int:
        return sum(s.grants for s in self.stats)

    @property
    def total_conflict_cycles(self) -> int:
        return sum(s.stall_cycles for s in self.stats)
