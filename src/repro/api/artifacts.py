"""Artifact registry: declarative eval subcommands.

An *artifact* is a named, reproducible output (Table I, Figure 2, ...)
rendered as human text plus a machine-readable JSON payload
(:class:`ArtifactResult`).  Modules register them with the
:func:`artifact` decorator::

    @artifact("fig3", help="poly_lcg IPC over a block/problem grid",
              sharded=True)
    def fig3_artifact(request: ArtifactRequest) -> ArtifactResult:
        ...

and ``python -m repro.eval`` becomes a generic dispatcher: subcommand
names, ``--list`` output, unknown-artifact errors and the set of
``--jobs``-capable artifacts all come from this registry instead of
hard-coded tables.  Adding a scenario is one registered function — no
CLI surgery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

#: CLI flags every artifact shares; per-artifact extra flags must not
#: collide with these (or with each other).
SHARED_FLAGS = ("--list", "--n", "--full", "--cores", "--jobs",
                "--out", "--json", "--trace", "--profile",
                "--cache-dir", "--no-cache", "--serve")

#: The shared flags that set an :class:`ArtifactRequest` field of the
#: same name.  An artifact lists those it reads in ``reads``; the
#: dispatcher rejects the rest as it rejects a foreign extra flag.
REQUEST_FLAGS = ("n", "full", "cores")


@dataclass(frozen=True)
class ArtifactResult:
    """One regenerated artifact: human text + machine payload."""

    name: str
    text: str
    payload: dict


@dataclass(frozen=True)
class ExtraFlag:
    """One artifact-specific CLI flag (beyond the shared set).

    The dispatcher adds every registered artifact's extra flags to its
    parser, rejects a flag given to an artifact that did not register
    it, and delivers parsed values through ``ArtifactRequest.extras``.

    Attributes:
        name: Flag spelling, e.g. ``"--clusters"``.
        help: argparse help text.
        parse: Value parser (argparse ``type=``); receives the raw
            string, may raise ``argparse.ArgumentTypeError``.
        default: Value when the flag is absent.
        metavar: Placeholder shown in ``--help``.
    """

    name: str
    help: str = ""
    parse: Callable[[str], Any] = str
    default: Any = None
    metavar: str | None = None

    def __post_init__(self) -> None:
        if not self.name.startswith("--"):
            raise ValueError(
                f"extra flag name must start with '--', got "
                f"{self.name!r}"
            )
        if self.name in SHARED_FLAGS:
            raise ValueError(
                f"extra flag {self.name} collides with a shared "
                f"eval flag"
            )

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


@dataclass(frozen=True)
class ArtifactRequest:
    """Normalized CLI/config options an artifact runs with.

    ``n`` and ``cores`` are ``None`` unless the caller explicitly
    chose them — each artifact resolves its own default via
    :meth:`effective_n` / :meth:`effective_cores`, and can warn about
    out-of-range values only when the user actually asked for them.
    ``extras`` holds values of the artifact's own registered
    :class:`ExtraFlag`\\ s, keyed by flag dest.
    """

    n: int | None = None
    full: bool = False
    cores: tuple[int, ...] | None = None
    jobs: int = 1
    extras: dict = field(default_factory=dict)

    def effective_n(self, default: int) -> int:
        """The explicit problem size, or the artifact's *default*."""
        return self.n if self.n is not None else default

    def effective_cores(self, default: tuple[int, ...]
                        ) -> tuple[int, ...]:
        """The explicit core counts, or the artifact's *default*."""
        return self.cores if self.cores is not None else default

    def extra(self, dest: str, default: Any = None) -> Any:
        """An extra-flag value (or *default* when absent/None)."""
        value = self.extras.get(dest)
        return value if value is not None else default


@dataclass(frozen=True)
class ArtifactSpec:
    """One registry entry."""

    name: str
    func: Callable[[ArtifactRequest], ArtifactResult]
    help: str = ""
    #: Whether the artifact's sweep honours ``--jobs`` sharding.
    sharded: bool = False
    #: Alternate CLI names resolving to this artifact (e.g. fig2a).
    aliases: tuple[str, ...] = ()
    #: Composites (all/report) are excluded from the ``all`` bundle.
    composite: bool = False
    #: Listing/report position.  Lower sorts first; ties break on
    #: registration order.  Independent of module import order.
    order: int = 100
    #: Artifact-specific CLI flags (beyond the shared set).
    flags: tuple[ExtraFlag, ...] = ()
    #: The :data:`REQUEST_FLAGS` the artifact reads; a composite reads
    #: every one that any of its members reads.
    reads: tuple[str, ...] = ()
    #: Observability hook for ``--trace`` / ``--profile``:
    #: ``request -> (workload, backend)`` selecting the artifact's
    #: *representative cell* — the single workload x backend pair the
    #: dispatcher re-runs inline (never sharded, so trace bytes are
    #: stable across ``--jobs``) with an ObsSink attached.  None means
    #: the artifact cannot be observed.
    observe: Callable[[ArtifactRequest], tuple] | None = None

    def run(self, request: ArtifactRequest) -> ArtifactResult:
        return self.func(request)


#: The registry, keyed by name; iterate via :func:`specs` for report
#: order (explicit ``order`` field, not import order).
REGISTRY: dict[str, ArtifactSpec] = {}
_ALIASES: dict[str, str] = {}


def specs() -> list[ArtifactSpec]:
    """All registered artifacts, in report order."""
    return sorted(REGISTRY.values(), key=lambda s: s.order)


def artifact(name: str, help: str = "", sharded: bool = False,
             aliases: tuple[str, ...] = (),
             composite: bool = False, order: int = 100,
             flags: tuple[ExtraFlag, ...] = (),
             reads: tuple[str, ...] = (),
             observe: Callable[[ArtifactRequest], tuple] | None = None
             ) -> Callable:
    """Register the decorated function as the artifact *name*."""
    def register(func: Callable) -> Callable:
        if name in REGISTRY or name in _ALIASES:
            raise ValueError(f"artifact {name!r} already registered")
        unknown = set(reads) - set(REQUEST_FLAGS)
        if unknown:
            raise ValueError(
                f"artifact {name!r} reads unknown request flags "
                f"{sorted(unknown)}; known: {', '.join(REQUEST_FLAGS)}"
            )
        # Key on dest, not name: '--foo-bar' and '--foo_bar' are
        # distinct names but collide on the argparse attribute the
        # dispatcher routes values by.  Registering the *same* flag
        # definition on several artifacts is allowed (a shared flag
        # like --writeback); a dest claimed by a different definition
        # is a collision.
        taken = {f.dest: (s.name, f) for s in REGISTRY.values()
                 for f in s.flags}
        for flag in flags:
            if flag.dest in taken and taken[flag.dest][1] != flag:
                raise ValueError(
                    f"extra flag {flag.name} of artifact {name!r} is "
                    f"already registered by {taken[flag.dest][0]!r} "
                    f"with a different definition"
                )
        spec = ArtifactSpec(name=name, func=func, help=help,
                            sharded=sharded,
                            aliases=tuple(aliases),
                            composite=composite, order=order,
                            flags=tuple(flags), reads=tuple(reads),
                            observe=observe)
        REGISTRY[name] = spec
        for alias in spec.aliases:
            if alias in REGISTRY or alias in _ALIASES:
                raise ValueError(
                    f"artifact alias {alias!r} already registered")
            _ALIASES[alias] = name
        return func
    return register


def get(name: str) -> ArtifactSpec:
    """Resolve an artifact (or alias) name, raising ``KeyError``.

    The error message (``exc.args[0]``) lists every valid name,
    aliases included; the CLI reuses it verbatim.
    """
    canonical = _ALIASES.get(name, name)
    try:
        return REGISTRY[canonical]
    except KeyError:
        raise KeyError(
            f"unknown artifact {name!r}; available artifacts: "
            + ", ".join(names(include_aliases=True))
        ) from None


def names(include_aliases: bool = False) -> list[str]:
    """Registered artifact names, in report order."""
    result = [spec.name for spec in specs()]
    if include_aliases:
        result += sorted(_ALIASES)
    return result


def sharded_names() -> list[str]:
    return [spec.name for spec in specs() if spec.sharded]


def extra_flags() -> list[tuple[ExtraFlag, "ArtifactSpec"]]:
    """Every registered extra flag with its owning artifact."""
    return [(flag, spec) for spec in specs() for flag in spec.flags]


def bundle_names() -> list[str]:
    """Artifacts included in the ``all`` composite, in report order."""
    return [spec.name for spec in specs() if not spec.composite]


def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def describe_json() -> dict:
    """Machine-readable registry dump (for ``--list --json``).

    One entry per artifact, in report order, carrying everything a
    tool needs to drive the CLI: name, help, aliases, whether the
    artifact honours ``--jobs`` sharding, whether it is a composite,
    and its extra flags (name/help/metavar/default).
    """
    return {
        "artifacts": [
            {
                "name": spec.name,
                "help": spec.help,
                "aliases": list(spec.aliases),
                "sharded": spec.sharded,
                "composite": spec.composite,
                "flags": [
                    {
                        "name": flag.name,
                        "help": flag.help,
                        "metavar": flag.metavar,
                        "default": _json_safe(flag.default),
                    }
                    for flag in spec.flags
                ],
            }
            for spec in specs()
        ],
    }


def describe() -> str:
    """One line per artifact: name, aliases, help (for ``--list``)."""
    if not REGISTRY:
        return "  (no artifacts registered)"
    width = max(len(name) for name in REGISTRY)
    lines = []
    for spec in specs():
        alias = f" (also: {', '.join(spec.aliases)})" if spec.aliases \
            else ""
        flags = " [" + " ".join(f.name for f in spec.flags) + "]" \
            if spec.flags else ""
        lines.append(f"  {spec.name:<{width}}  {spec.help}{alias}{flags}")
    return "\n".join(lines)


def combine(results: list[ArtifactResult]) -> tuple[str, dict]:
    """Concatenate texts and merge payloads keyed by artifact name."""
    text = "\n\n".join(r.text for r in results)
    payload = {r.name: r.payload for r in results}
    return text, payload


def write_output(text: str, payload: dict, out: str | None,
                 as_json: bool) -> None:
    """Route an artifact to stdout or ``--out``, as text or JSON."""
    content = json.dumps(payload, indent=2, sort_keys=True) \
        if as_json else text
    if out:
        with open(out, "w") as handle:
            handle.write(content)
            if not content.endswith("\n"):
                handle.write("\n")
        print(f"wrote {out}")
    else:
        print(content)
