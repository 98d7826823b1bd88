"""Package re-exports resolved on first use (PEP 562).

A package ``__init__`` that re-exports names from its submodules makes
every import of the package, or of any one submodule, pay for all of
them.  :func:`lazy_exports` instead imports a submodule the first time
one of its names is read from the package and then stores the name on
the package, so later reads are plain attribute lookups.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """Module ``__getattr__`` and ``__dir__`` for *package*.

    *exports* maps a submodule (relative to *package*) to the names
    the package re-exports from it.  An exported name must not also
    name a submodule: importing that submodule would rebind the
    package attribute to the module.
    """
    owner = {name: module for module, names in exports.items()
             for name in names}
    clash = set(owner) & set(exports)
    if clash:
        raise ValueError(f"{package}: exports shadow submodules {clash}")

    def __getattr__(name: str):
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"),
                        name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__
