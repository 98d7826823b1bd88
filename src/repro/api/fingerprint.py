"""Timing-model fingerprint: one hash naming the current simulator.

A cached :class:`~repro.api.record.RunRecord` is only reusable while
the code that produced it is unchanged.  :func:`timing_fingerprint`
hashes the ``repro`` package's own source — every ``*.py`` file under
the installed package, sorted by relative path — plus the energy-model
constants (which turn cycles into power/energy).  The serve layer
(:mod:`repro.serve`) builds every cache key on it, so an upgrade, a
local edit or an energy-constant change invalidates every cache entry
without bookkeeping, whether the package runs from a checkout or from
an install.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields
from pathlib import Path

from ..energy import ClusterEnergyParams, EnergyParams, SocEnergyParams

#: Root of the ``repro`` package whose source names the model.
PACKAGE_ROOT = Path(__file__).resolve().parent.parent

#: The digest, computed once per process on first use.
_FINGERPRINT: str | None = None


def _energy_constants_blob() -> bytes:
    """Stable byte encoding of every energy-model constant."""
    parts = []
    for params_cls in (EnergyParams, ClusterEnergyParams,
                       SocEnergyParams):
        params = params_cls()
        for field in fields(params_cls):
            parts.append(f"{params_cls.__name__}.{field.name}="
                         f"{getattr(params, field.name)!r}")
    return ";".join(parts).encode()


def timing_fingerprint() -> str:
    """Hex digest naming the current code and energy model.

    Stable across runs and processes for an unchanged package; changes
    with any byte of its source or any energy constant.  Memoized for
    the life of the process (the source does not change under a
    running interpreter's imports).
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        digest = hashlib.sha256()
        sources = sorted((path.relative_to(PACKAGE_ROOT).as_posix(), path)
                         for path in PACKAGE_ROOT.rglob("*.py"))
        for rel, path in sources:
            data = path.read_bytes()
            digest.update(f"{rel}\0{len(data)}\0".encode())
            digest.update(data)
        digest.update(b"energy:")
        digest.update(_energy_constants_blob())
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT
