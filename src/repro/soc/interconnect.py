"""Cluster-to-L2 interconnect: cycle-by-cycle beat arbitration.

The shared L2 sits behind one bandwidth-limited link.  Every cluster's
DMA engine moves data in *beats* (one beat = the cluster DMA's per-cycle
bandwidth quantum); the link grants at most ``link_beats_per_cycle``
beats per cycle across all clusters, and at most
``max_beats_per_cluster`` of those to any one cluster — the round-robin
fairness cap that stops one cluster's burst from starving its peers.

Like the banked-TCDM arbiter this is a claim-table model: requests are
serviced first-come-first-served in *simulation* order, and the SoC
driver steps the cluster furthest behind in time first, so claim order
tracks cycle order closely (exact for lock-step clusters).  Per-link
statistics share the :class:`~repro.mem.StreamStats` shape with the
banked-TCDM arbiter: granted beats and the stall cycles contention
added versus each cluster's own uncontended schedule.
"""

from __future__ import annotations

from ..mem import StreamStats


class LinkStats(StreamStats):
    """Per-cluster link activity — the interconnect's view of the
    shared :class:`~repro.mem.StreamStats` shape: ``grants`` counts
    link beats."""


class SocInterconnect:
    """Per-cycle beat arbiter between cluster DMA channels and the L2."""

    def __init__(self, n_clusters: int = 2,
                 link_beats_per_cycle: int = 2,
                 max_beats_per_cluster: int = 1,
                 enabled: bool = True) -> None:
        self.n_clusters = n_clusters
        self.link_beats_per_cycle = link_beats_per_cycle
        self.max_beats_per_cluster = max_beats_per_cluster
        self.enabled = enabled
        self.stats = [LinkStats() for _ in range(n_clusters)]
        #: claims[cycle] -> total beats granted that cycle.
        self._claims: dict[int, int] = {}
        #: per-cluster claims[cycle] -> beats granted to that cluster.
        self._cluster_claims: list[dict[int, int]] = [
            {} for _ in range(n_clusters)
        ]
        self._claim_count = 0
        #: Structured-event sink (repro.obs.ObsSink); None when off.
        self.obs = None
        #: Scope link events are emitted under (the owning SoC).
        self.obs_scope = "soc"

    # ------------------------------------------------------------------
    def _ideal_done(self, nbeats: int, start: int) -> int:
        """Completion with the link all to ourselves (no contention)."""
        per_cycle = min(self.max_beats_per_cluster,
                        self.link_beats_per_cycle)
        return start + -(-nbeats // per_cycle)

    def transfer(self, cluster_id: int, nbeats: int, start: int) -> int:
        """Arbitrate one transfer of *nbeats* beats issued at *start*.

        Returns the cycle the last beat lands in the TCDM (>= *start*).
        Claims link slots cycle by cycle; a beat is granted at the
        first cycle after its predecessor where both the link and the
        cluster's fairness cap have room.
        """
        stats = self.stats[cluster_id]
        stats.transfers += 1
        if nbeats <= 0:
            return start
        if not self.enabled:
            stats.grants += nbeats
            done = self._ideal_done(nbeats, start)
            obs = self.obs
            if obs is not None:
                obs.emit(self.obs_scope, f"link{cluster_id}",
                         "link.grant", start, done - start, "link",
                         {"beats": nbeats, "stall": 0})
            return done
        link_cap = self.link_beats_per_cycle
        cluster_cap = self.max_beats_per_cluster
        claims = self._claims
        mine = self._cluster_claims[cluster_id]
        t = start + 1                       # first beat lands next cycle
        for _ in range(nbeats):
            while claims.get(t, 0) >= link_cap \
                    or mine.get(t, 0) >= cluster_cap:
                t += 1
            claims[t] = claims.get(t, 0) + 1
            mine[t] = mine.get(t, 0) + 1
            self._claim_count += 1
        stats.grants += nbeats
        stall = t - self._ideal_done(nbeats, start)
        stats.stall_cycles += stall
        obs = self.obs
        if obs is not None:
            obs.emit(self.obs_scope, f"link{cluster_id}",
                     "link.retry" if stall else "link.grant", start,
                     t - start, "link",
                     {"beats": nbeats, "stall": stall})
        if self._claim_count > (1 << 20):
            self._prune(t)
        return t

    def _prune(self, now: int, horizon: int = 1 << 16) -> None:
        """Drop claims far in the past to bound memory."""
        floor = now - horizon
        for table in [self._claims, *self._cluster_claims]:
            for cycle in [c for c in table if c < floor]:
                del table[cycle]
        self._claim_count = sum(len(t) for t in self._cluster_claims)

    # ------------------------------------------------------------------
    @property
    def total_beats(self) -> int:
        return sum(s.grants for s in self.stats)

    @property
    def total_stall_cycles(self) -> int:
        return sum(s.stall_cycles for s in self.stats)

    def stall_rate(self) -> float:
        """Stall cycles per granted beat (0.0 when idle)."""
        beats = self.total_beats
        if beats == 0:
            return 0.0
        return self.total_stall_cycles / beats
