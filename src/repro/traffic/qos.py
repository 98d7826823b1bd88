"""QoS-weighted beat arbitration for streaming DMA traffic.

:class:`QosArbiter` is a drop-in for the ``TransferEngine.arbiter``
hook (``(stream_id, nbeats, start) -> done``) that divides the shared
interconnect's beat slots between *priority classes* instead of
first-come-first-served.  It generalizes the
:class:`~repro.soc.interconnect.SocInterconnect` claim table: time is
split into aligned windows of ``sum(weights)`` cycles, and class *c*
owns ``weights[c] * link_cap`` beat slots in every window — a weighted
TDM reservation.  A beat is granted at the first cycle where both the
link (``link_cap`` beats per cycle) and the class's window quota have
room, so under contention a weight-3 class drains ~3x faster than a
weight-1 class, and an idle class's slots simply go unused by others
(the reservation is non-work-conserving, which is what makes the
latency bound per class independent of the other classes' load).

Streams (one per cluster DMA channel) are *bound* to a class by the
dispatcher when it places a request (:meth:`QosArbiter.bind`), so one
physical channel serves different classes over time and each beat is
accounted to the class that owns it right now.

With ``weights=None`` the arbiter degrades to plain FCFS under the
per-cycle cap — the contended-but-unweighted baseline the ``--policy``
flag calls ``fifo``/``priority`` (without ``+qos``).

:meth:`QosArbiter.transfer` places beats as the cycle-by-cycle search
would, without visiting every cycle: the beats that fit in one cycle
are placed together, and a window whose quota the class has used up is
skipped in one step.  Grants, statistics, pruning and the starvation
error are those of the per-cycle search.

A class with weight 0 owns no slots and is never granted; the
:attr:`~QosArbiter.max_wait` starvation guard turns that (or any
misconfigured arbiter that stops granting) into a one-line
:class:`~repro.traffic.arrival.TrafficError` instead of an unbounded
search.
"""

from __future__ import annotations

from ..mem import StreamStats
from .arrival import TrafficError

__all__ = ["QosArbiter", "QosClassStats"]

#: The quota of every class in FCFS mode: never reached.
_UNLIMITED = 1 << 62
#: Claims after which claims far in the past are dropped.
PRUNE_AT = 1 << 20


class QosClassStats(StreamStats):
    """Per-class arbitration tallies, in the shared stats shape:
    ``grants`` counts beats, like the interconnect's
    :class:`~repro.soc.interconnect.LinkStats`."""


class QosArbiter:
    """Windowed weighted-TDM beat arbiter over one shared link.

    Args:
        weights: Per-class beat-slot weights.  Class *c* is reserved
            ``weights[c] * link_cap`` slots in every aligned window of
            ``sum(weights)`` cycles; the reservation is exact (the
            window's slots add up to the link's capacity).  ``None``
            disables weighting: plain FCFS under ``link_cap``.
        link_cap: Total beats the link grants per cycle.
        max_wait: Starvation guard — if a single beat cannot be placed
            within this many cycles of its request, arbitration raises
            a one-line :class:`TrafficError` instead of scanning
            forever (a zero-weight class or a never-granting custom
            quota hits this).
        n_classes: Number of classes to keep stats for in FCFS mode
            (``weights=None``); ignored when weights are given (the
            weight tuple defines the class count).
    """

    def __init__(self, weights: tuple[int, ...] | None = None,
                 link_cap: int = 1, max_wait: int = 1 << 20,
                 n_classes: int | None = None) -> None:
        if link_cap < 1:
            raise TrafficError(
                f"link_cap must be >= 1, got {link_cap}")
        if max_wait < 1:
            raise TrafficError(
                f"max_wait must be >= 1, got {max_wait}")
        if weights is not None:
            if not weights:
                raise TrafficError("weights must not be empty")
            if any(w < 0 for w in weights):
                raise TrafficError(
                    f"weights must be >= 0, got {weights}")
            if sum(weights) < 1:
                raise TrafficError(
                    f"at least one weight must be positive, got "
                    f"{weights}")
        self.weights = tuple(weights) if weights is not None else None
        self.link_cap = link_cap
        self.max_wait = max_wait
        if weights is not None:
            n_classes = len(weights)
        elif n_classes is None:
            n_classes = 1
        elif n_classes < 1:
            raise TrafficError(
                f"n_classes must be >= 1, got {n_classes}")
        #: Cycles per reservation window (1 in FCFS mode).
        self.window = sum(weights) if weights is not None else 1
        #: Beat slots class c owns per window.
        self.quota = (tuple(w * link_cap for w in weights)
                      if weights is not None else None)
        self.stats = [QosClassStats() for _ in range(n_classes)]
        #: claims[cycle] -> total beats granted that cycle.
        self._claims: dict[int, int] = {}
        #: per-class claims[window index] -> beats granted to that
        #: class inside the window.
        self._window_claims: list[dict[int, int]] = [
            {} for _ in range(n_classes)
        ]
        self._bound: dict[int, int] = {}
        self._claim_count = 0

    # ------------------------------------------------------------------
    def bind(self, stream_id: int, cls: int) -> None:
        """Account *stream_id*'s next beats to class *cls*.

        The dispatcher re-binds a cluster's DMA stream every time it
        places a request of a different class on that cluster.
        """
        n_classes = len(self.stats)
        if not 0 <= cls < n_classes:
            raise TrafficError(
                f"class index {cls} out of range for {n_classes} "
                f"class(es)")
        self._bound[stream_id] = cls

    def class_of(self, stream_id: int) -> int:
        """The class *stream_id* currently accounts to (default 0)."""
        return self._bound.get(stream_id, 0)

    # ------------------------------------------------------------------
    def _ideal_done(self, nbeats: int, start: int) -> int:
        """Completion with the link all to ourselves (no contention)."""
        return start + -(-nbeats // self.link_cap)

    def transfer(self, stream_id: int, nbeats: int, start: int) -> int:
        """Arbitrate one transfer of *nbeats* beats issued at *start*.

        The ``TransferEngine.arbiter`` contract: returns the cycle the
        last beat lands (> *start* for any positive beat count; equal
        to *start* for an empty transfer).

        Each beat takes the first cycle at or after the previous beat's
        where the link and the class's window quota have room.  A
        window whose quota is used up is skipped in one step, and the
        beats that fit in one cycle are placed together.
        """
        cls = self._bound.get(stream_id, 0)
        stats = self.stats[cls]
        stats.transfers += 1
        if nbeats <= 0:
            return start
        link_cap = self.link_cap
        window = self.window
        quota = self.quota[cls] if self.quota is not None else _UNLIMITED
        claims = self._claims
        mine = self._window_claims[cls]
        deadline = start + self.max_wait
        t = start + 1                       # first beat lands next cycle
        get = claims.get
        on_link = get(t, 0)                 # beats granted at t
        w = t // window
        edge = (w + 1) * window             # first cycle of window w + 1
        used = mine.get(w, 0)               # class beats in window w
        left = nbeats
        while True:
            if used < quota and on_link < link_cap:
                fit = link_cap - on_link     # beats that fit at t
                if quota - used < fit:
                    fit = quota - used
                if left < fit:
                    fit = left
                on_link += fit
                used += fit
                left -= fit
                claims[t] = on_link
                mine[w] = used
                if not left:
                    break
            if used < quota and t + 1 < edge:
                t += 1                      # the link is full at t
            else:                           # on to window w + 1
                t = edge
                edge += window
                w += 1
                used = mine.get(w, 0)
            if t > deadline:
                self._claim_count += nbeats - left
                share = ("unweighted" if self.quota is None
                         else f"quota {quota}/window")
                raise TrafficError(
                    f"QoS starvation: stream {stream_id} (class "
                    f"{cls}, {share}) waited > {self.max_wait} "
                    f"cycles for a beat slot requested at cycle "
                    f"{start}"
                )
            on_link = get(t, 0)
        self._claim_count += nbeats
        stats.grants += nbeats
        stats.stall_cycles += max(0, t - self._ideal_done(nbeats, start))
        if self._claim_count > PRUNE_AT:
            self._prune(t)
        return t

    def _prune(self, now: int, horizon: int = 1 << 16) -> None:
        """Drop claims far in the past to bound memory."""
        floor = now - horizon
        for cycle in [c for c in self._claims if c < floor]:
            del self._claims[cycle]
        window_floor = floor // self.window
        for table in self._window_claims:
            for index in [w for w in table if w < window_floor]:
                del table[index]
        self._claim_count = len(self._claims) \
            + sum(len(t) for t in self._window_claims)

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
