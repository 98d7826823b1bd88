"""Persistent evaluation service with a content-addressed result cache.

``repro.serve`` is the serving layer over the evaluation stack: repeat
(workload, backend) traffic is answered from a warm, content-addressed
:class:`~repro.api.record.RunRecord` cache, and only genuinely new
cells hit the simulator.  Three layers:

* :mod:`repro.serve.store` — :class:`RunStore`, the on-disk cache.
  Entries are keyed by a hash over the workload spec, the backend's
  full configuration, the record schema version and the timing-model
  fingerprint (:func:`repro.api.timing_fingerprint`), so a source or
  energy-constant change invalidates every key automatically.  Writes
  are write-temp-then-rename atomic; keys are memoized by value, and
  each store answers repeated entries from a bounded in-memory tier.
* :mod:`repro.serve.service` — :class:`EvalService`, a stdlib-asyncio
  front end over a persistent worker pool: coalesces duplicate
  in-flight requests (N clients asking for one cell trigger exactly
  one simulation), bounds the recompute queue for backpressure, and
  tracks hit/miss/in-flight/coalesced counters through the
  observability :class:`~repro.obs.MetricsRegistry`.
* :mod:`repro.serve.client` + :mod:`repro.serve.protocol` — cache
  activation for in-process clients (the :class:`~repro.api.Sweep`
  executor and the ``python -m repro.eval`` dispatcher consult the
  active store per cell) and the JSON-lines request protocol behind
  ``python -m repro.eval --serve`` / ``python -m repro.serve``.

Cached results are bit-identical to uncached runs: a ``RunRecord``
round-trips exactly through its versioned JSON schema, and every hit
is structurally verified against the requesting cell.
"""

from .._lazy import lazy_exports
from .client import active_store, default_cache_dir, resolve_store, use_store
from .store import CacheError, RunStore, StoreStats, cache_key

# The service and the wire protocol (asyncio, the worker pool) load on
# first use: the eval CLI and the Sweep executor only need the store.
__getattr__, __dir__ = lazy_exports(__name__, {
    "protocol": ("ProtocolError", "decode_request", "encode_response"),
    "service": ("EvalService", "ServiceStats", "service_registry"),
})

__all__ = [
    "CacheError",
    "EvalService",
    "ProtocolError",
    "RunStore",
    "ServiceStats",
    "StoreStats",
    "active_store",
    "cache_key",
    "decode_request",
    "default_cache_dir",
    "encode_response",
    "resolve_store",
    "service_registry",
    "use_store",
]
