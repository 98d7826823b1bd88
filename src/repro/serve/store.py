"""Content-addressed on-disk store of :class:`RunRecord` results.

Every cacheable sweep cell maps to one JSON file whose name is a
SHA-256 over everything that determines the result:

* the full workload spec (kernel, variant, n, block, seed);
* the backend's *complete* configuration — not just its spec string:
  ``None`` configs are normalized to the defaults they mean, nested
  config dataclasses are serialized field by field, and a backend
  carrying state the normalizer does not understand is simply
  **uncacheable** (``cache_key`` returns None) rather than wrongly
  shared;
* the record schema version (:data:`repro.api.record.SCHEMA_VERSION`);
* the timing-model fingerprint
  (:func:`repro.api.timing_fingerprint` — package source + energy
  constants), so any code change invalidates every key with zero
  bookkeeping.

Entries live under a per-fingerprint *generation* directory
(``<root>/<fingerprint[:16]>/<key>.json``): after a timing change the
old generation is simply never consulted again.  Writes go to a
uniquely-named temp file in the same directory and are committed with
:func:`os.replace`, so a crashed writer can never tear a committed
entry — leftover ``*.tmp*`` files are ignored by lookups and
overwritten harmlessly.  A *committed* entry that fails to parse, on
the other hand, is reported loudly (:class:`CacheError` naming the
file) instead of being silently recomputed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum

from ..api.backend import ClusterBackend, CoreBackend, SocBackend
from ..api.fingerprint import timing_fingerprint
from ..api.record import SCHEMA_VERSION, RunRecord
from ..api.workload import Workload
from ..cluster import ClusterConfig
from ..energy import EnergyModel
from ..sim import CoreConfig
from ..soc import SocConfig


class CacheError(RuntimeError):
    """A cache operation failed in a way the user must act on."""


class _Uncacheable(Exception):
    """Internal: a value has no stable serialized form."""


def _stable_state(value):
    """Canonical JSON-able form of a config/spec value tree.

    Dataclasses become name-tagged dicts, enums their values, dict
    keys strings; anything without an obviously stable encoding raises
    ``_Uncacheable`` so the caller can refuse to cache rather than
    guess.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Enum):
        return _stable_state(value.value)
    if is_dataclass(value) and not isinstance(value, type):
        state = {"__dataclass__": type(value).__name__}
        for field in fields(value):
            state[field.name] = _stable_state(getattr(value, field.name))
        return state
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            key = key.value if isinstance(key, Enum) else key
            if not isinstance(key, (str, int)):
                raise _Uncacheable(f"dict key {key!r}")
            out[str(key)] = _stable_state(item)
        return out
    if isinstance(value, (list, tuple)):
        return [_stable_state(item) for item in value]
    raise _Uncacheable(f"value of type {type(value).__name__}")


#: Per-backend-type normalization: fields whose ``None`` means "the
#: default instance of this config class".  Filling the defaults in
#: makes ``ClusterBackend(cores=4)`` and
#: ``ClusterBackend(cores=4, config=ClusterConfig())`` share one key —
#: they run the identical machine.
_DEFAULT_FILLERS: dict[type, dict[str, type]] = {
    CoreBackend: {"config": CoreConfig, "energy_model": EnergyModel},
    ClusterBackend: {"config": ClusterConfig,
                     "core_config": CoreConfig},
    SocBackend: {"config": SocConfig, "core_config": CoreConfig},
}


def backend_state(backend) -> dict | None:
    """The backend's complete normalized state, or None if uncacheable.

    Only the known backend types are cacheable: an unfamiliar backend
    implementation may hold state this normalizer cannot see, and a
    wrong cache share is strictly worse than a redundant simulation.
    """
    fillers = _DEFAULT_FILLERS.get(type(backend))
    if fillers is None:
        return None
    state: dict = {"spec": backend.spec}
    try:
        for field in fields(backend):
            value = getattr(backend, field.name)
            if value is None and field.name in fillers:
                value = fillers[field.name]()
            if isinstance(value, EnergyModel):
                value = value.params
            state[field.name] = _stable_state(value)
    except _Uncacheable:
        return None
    return state


def cache_key(workload: Workload, backend,
              fingerprint: str | None = None) -> str | None:
    """Content address of one sweep cell, or None if uncacheable."""
    state = backend_state(backend)
    if state is None:
        return None
    payload = {
        "schema": SCHEMA_VERSION,
        "fingerprint": fingerprint if fingerprint is not None
        else timing_fingerprint(),
        "workload": _stable_state(workload),
        "backend": state,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass
class StoreStats:
    """Counters of one store's traffic (this process, since creation).

    ``deduped`` counts sweep cells answered by fanning out another
    identical cell's in-sweep result (no store file involved).
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    deduped: int = 0

    def to_json(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "deduped": self.deduped}


#: Unique temp-file suffixes within a process (os.replace makes the
#: commit atomic; the counter only keeps concurrent writers from
#: colliding on the staging name).
_TMP_COUNTER = itertools.count()


class RunStore:
    """The on-disk content-addressed RunRecord cache.

    Args:
        root: Cache directory (created on demand).
        fingerprint: Timing-model fingerprint selecting the entry
            generation; defaults to the live
            :func:`~repro.api.timing_fingerprint`.
    """

    #: Basename of the cumulative-stats sidecar at the store root.
    STATS_FILE = "stats.json"

    def __init__(self, root: str | os.PathLike,
                 fingerprint: str | None = None) -> None:
        self.root = os.fspath(root)
        if os.path.exists(self.root) and not os.path.isdir(self.root):
            raise CacheError(
                f"cache path {self.root} exists and is not a "
                f"directory; point --cache-dir at a directory or pass "
                f"--no-cache"
            )
        self.fingerprint = fingerprint if fingerprint is not None \
            else timing_fingerprint()
        self.generation = self.fingerprint[:16]
        self.stats = StoreStats()

    # -- paths ---------------------------------------------------------

    def _makedirs(self, directory: str) -> None:
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise CacheError(
                f"cannot create cache directory {directory}: "
                f"{exc.strerror}; point --cache-dir at a directory or "
                f"pass --no-cache"
            ) from None

    @property
    def generation_dir(self) -> str:
        return os.path.join(self.root, self.generation)

    def entry_path(self, key: str) -> str:
        return os.path.join(self.generation_dir, f"{key}.json")

    # -- keyed access --------------------------------------------------

    def key_for(self, workload: Workload, backend) -> str | None:
        return cache_key(workload, backend,
                         fingerprint=self.fingerprint)

    def get(self, key: str) -> RunRecord | None:
        """The stored record for *key*, or None (counted as a miss).

        Raises :class:`CacheError` for a committed entry that cannot
        be parsed — a torn *temp* file never reaches this path, so any
        unreadable entry means on-disk corruption the user should see.
        """
        path = self.entry_path(key)
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except (FileNotFoundError, NotADirectoryError):
            self.stats.misses += 1
            return None
        try:
            record = RunRecord.from_json(json.loads(text))
        except (ValueError, KeyError, TypeError) as exc:
            raise CacheError(
                f"corrupt cache entry {path} ({exc}); delete the file "
                f"(or the whole cache dir) or re-run with --no-cache"
            ) from None
        self.stats.hits += 1
        return record

    def put(self, key: str, record: RunRecord) -> None:
        """Atomically persist *record* under *key*.

        The payload is staged in a uniquely-named temp file beside the
        entry and committed with ``os.replace``; a writer dying
        mid-write leaves only ignorable ``*.tmp*`` litter, never a
        half-written committed entry.
        """
        self._makedirs(self.generation_dir)
        path = self.entry_path(key)
        tmp = f"{path}.tmp.{os.getpid()}.{next(_TMP_COUNTER)}"
        blob = json.dumps(record.to_json(), sort_keys=True, indent=1)
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(blob)
            handle.write("\n")
        os.replace(tmp, path)
        self.stats.stores += 1

    # -- cell-level access (what Sweep/EvalService use) ----------------

    def lookup(self, workload: Workload, backend,
               key: str | None = None) -> RunRecord | None:
        """Cached record for a sweep cell, identity-checked, or None.

        A hit is asserted to describe exactly the requested cell
        (kernel, variant, n, backend spec); a mismatch means the store
        is corrupted and raises :class:`CacheError` instead of
        returning a wrong result.  *key* skips recomputing the content
        address when the caller already has it.
        """
        if key is None:
            key = self.key_for(workload, backend)
        if key is None:
            return None
        record = self.get(key)
        if record is None:
            return None
        found = (record.kernel, record.variant, record.n,
                 record.backend)
        wanted = (workload.kernel, workload.variant, workload.n,
                  backend.spec)
        if found != wanted:
            raise CacheError(
                f"cache entry {self.entry_path(key)} holds "
                f"{found[0]}/{found[1]} n={found[2]} on {found[3]!r} "
                f"but its key describes {wanted[0]}/{wanted[1]} "
                f"n={wanted[2]} on {wanted[3]!r}; delete the file or "
                f"re-run with --no-cache"
            )
        return record

    def save(self, workload: Workload, backend, record: RunRecord,
             key: str | None = None) -> None:
        """Persist a freshly computed cell result (no-op if uncacheable)."""
        if key is None:
            key = self.key_for(workload, backend)
        if key is not None:
            self.put(key, record)

    # -- stats / introspection -----------------------------------------

    def _stats_path(self) -> str:
        return os.path.join(self.root, self.STATS_FILE)

    def _load_cumulative(self) -> dict:
        try:
            with open(self._stats_path(), encoding="utf-8") as handle:
                data = json.load(handle)
            return data if isinstance(data, dict) else {}
        except (OSError, ValueError):
            return {}

    def flush_stats(self) -> dict:
        """Fold this process's counters into the cumulative sidecar.

        Returns the merged totals.  The in-memory counters are zeroed
        so repeated flushes never double-count; the sidecar write is
        atomic like every other store write.
        """
        merged = self._load_cumulative()
        for name, delta in self.stats.to_json().items():
            if delta:
                merged[name] = int(merged.get(name, 0)) + delta
        self._makedirs(self.root)
        tmp = (f"{self._stats_path()}.tmp.{os.getpid()}"
               f".{next(_TMP_COUNTER)}")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(merged, handle, indent=1, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, self._stats_path())
        self.stats = StoreStats()
        return merged

    def _count_entries(self, directory: str) -> int:
        try:
            names = os.listdir(directory)
        except OSError:
            return 0
        return sum(1 for name in names if name.endswith(".json")
                   and ".tmp." not in name)

    def describe(self) -> dict:
        """Machine-readable store summary (``--list --json``)."""
        stale = 0
        try:
            generations = [name for name in os.listdir(self.root)
                           if os.path.isdir(os.path.join(self.root,
                                                         name))]
        except OSError:
            generations = []
        for name in generations:
            if name != self.generation:
                stale += self._count_entries(
                    os.path.join(self.root, name))
        return {
            "dir": self.root,
            "fingerprint": self.fingerprint,
            "generation": self.generation,
            "entries": self._count_entries(self.generation_dir),
            "stale_entries": stale,
            "cumulative": self._load_cumulative(),
        }
