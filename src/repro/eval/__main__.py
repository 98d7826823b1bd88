"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.eval --list [--json] [--out FILE]
    python -m repro.eval table1
    python -m repro.eval fig2 [--n 4096]
    python -m repro.eval fig3 [--full] [--jobs N]
    python -m repro.eval clusterscale [--n 4096] [--cores 1,2,4,8]
                                      [--jobs N] [--writeback on|off]
    python -m repro.eval socscale [--n 4096] [--clusters 1x4,2x4,4x4]
                                  [--jobs N] [--writeback on|off]
    python -m repro.eval all [--out results.txt] [--json] [--jobs N]
    python -m repro.eval report --out report.md

``--list`` honours ``--json``/``--out`` too, dumping the registry in
machine-readable form for tooling.

Artifacts may register **extra flags** of their own (``socscale
--clusters``); the dispatcher pulls them from the registry and rejects
a flag passed to an artifact that did not register it.  A flag may be
shared by several artifacts (``--writeback`` belongs to both scaling
sweeps).  The shared ``--n``/``--full``/``--cores`` get the same
check: an artifact takes only those it declares it reads.

The subcommands are **registered artifacts** (``repro.api.artifact``):
importing the artifact modules below fills the registry, and everything
else — the available-name list, ``--list`` output, which artifacts
accept ``--jobs`` — is derived from it.  Every artifact (including
``all``) honours ``--out`` and ``--json``: ``--out`` writes the
rendered artifact to a file, ``--json`` switches the output to a
machine-readable JSON payload.

``--jobs N`` shards the simulation sweeps of the artifacts marked
*sharded* in the registry over N host processes.  Sweeps are
deterministic per cell, so the output is bit-identical for every N;
the flag only changes wall-clock time.

**Caching**: artifact sweeps consult a content-addressed result store
(:mod:`repro.serve`) per cell, so a warm re-run performs zero
simulations and emits byte-identical output.  ``--cache-dir DIR``
names the store (default ``$REPRO_CACHE_DIR`` or
``~/.cache/repro-eval``); ``--no-cache`` is the escape hatch; a
cache summary goes to stderr so stdout payloads stay byte-identical
either way.  ``--list --json`` includes the store's entry counts and
cumulative hit/miss stats.  ``--serve`` (no artifact name) runs the
long-lived JSON-lines evaluation service on stdin/stdout instead —
see :mod:`repro.serve.protocol` for the wire format.
"""

from __future__ import annotations

import argparse
import os
import sys

# The package __init__ has already imported every artifact module,
# registering the subcommands this dispatcher serves.
from ..api import CellError, artifacts
from ..api.artifacts import ArtifactRequest, write_output
from ..api.parallel import default_jobs
from ..traffic import TrafficError


def _parse_cores(text: str) -> tuple[int, ...]:
    try:
        cores = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"--cores expects a comma-separated list, got {text!r}"
        ) from exc
    if not cores or any(c < 1 for c in cores):
        raise argparse.ArgumentTypeError(
            f"--cores entries must be >= 1, got {text!r}"
        )
    return cores


def _unwritable(path: str) -> str | None:
    """Why a file cannot be written at *path*, or None if it can."""
    if os.path.isdir(path):
        return "is a directory"
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        return f"parent {parent} is not a directory"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate the paper's tables and figures.",
    )
    # The artifact is validated by hand (not via argparse choices) so
    # unknown names get one clear line listing what exists instead of
    # a usage dump the user has to parse.
    parser.add_argument(
        "artifact", nargs="?", default=None,
        help="Which artifact to regenerate: "
             + ", ".join(artifacts.names(include_aliases=True))
             + " (see --list).",
    )
    parser.add_argument("--list", action="store_true", dest="list_",
                        help="List every registered artifact with its "
                             "description and exit.")
    parser.add_argument("--n", type=int, default=None,
                        help="Problem size for Fig. 2 / clusterscale "
                             "measurements (default 4096; table1 "
                             "defaults to its converged 2048).")
    parser.add_argument("--full", action="store_true",
                        help="Use the paper's full Fig. 3 grid "
                             "(slow sequentially; use --jobs).")
    parser.add_argument("--cores", type=_parse_cores, default=None,
                        help="Core counts for the clusterscale sweep "
                             "(comma-separated, default 1,2,4,8).")
    parser.add_argument("--jobs", type=int, default=1,
                        help="Shard sweep cells over this many host "
                             "processes (sharded artifacts only; "
                             f"this host has {default_jobs()} CPUs). "
                             "Output is identical for every value.")
    parser.add_argument("--out", type=str, default=None,
                        help="Write the artifact to this file instead "
                             "of stdout (honoured by every artifact, "
                             "including 'all').")
    parser.add_argument("--json", action="store_true",
                        help="Emit a machine-readable JSON payload "
                             "instead of the text rendering.")
    parser.add_argument("--trace", type=str, default=None,
                        metavar="FILE",
                        help="Write a Chrome/Perfetto trace of the "
                             "artifact's representative cell to FILE "
                             "(open in ui.perfetto.dev or "
                             "chrome://tracing).")
    parser.add_argument("--profile", action="store_true",
                        help="Append the representative cell's "
                             "cycle-attribution profile tree and "
                             "metrics to the artifact output.")
    parser.add_argument("--cache-dir", type=str, default=None,
                        metavar="DIR",
                        help="Content-addressed result store consulted "
                             "per sweep cell (default $REPRO_CACHE_DIR "
                             "or ~/.cache/repro-eval).")
    parser.add_argument("--no-cache", action="store_true",
                        help="Bypass the result store: simulate every "
                             "cell and persist nothing.")
    parser.add_argument("--serve", action="store_true",
                        help="Run the long-lived evaluation service "
                             "(JSON-lines over stdin/stdout) instead "
                             "of one artifact; honours --cache-dir/"
                             "--no-cache/--jobs.")
    # Per-artifact extra flags come from the registry; the dispatcher
    # accepts them all and validates ownership after parsing, so a
    # flag given to the wrong artifact gets one clear line (same
    # treatment as --jobs on an unsharded artifact).  A flag may be
    # shared by several artifacts (--writeback): it is added once and
    # owned by all of them.
    flag_owner: dict = {}
    for flag, owner in artifacts.extra_flags():
        entry = flag_owner.setdefault(flag.dest, (flag, []))
        entry[1].append(owner)
    for flag, owners in flag_owner.values():
        names = "/".join(o.name for o in owners)
        parser.add_argument(flag.name, type=flag.parse,
                            default=flag.default, metavar=flag.metavar,
                            help=f"{flag.help} ({names} only)")
    args = parser.parse_args(argv)

    # Output paths are checked before anything runs: a bad one would
    # otherwise only fail after the whole artifact has simulated.
    for flag, path in (("--out", args.out), ("--trace", args.trace)):
        problem = path and _unwritable(path)
        if problem:
            print(f"error: {flag} {path}: {problem}", file=sys.stderr)
            return 2

    from ..serve import CacheError, resolve_store, use_store

    if args.no_cache and args.cache_dir is not None:
        parser.error(
            f"--no-cache and --cache-dir {args.cache_dir} are "
            f"mutually exclusive; drop one"
        )

    if args.serve:
        for name, given in (("--list", args.list_),
                            ("--out", args.out is not None),
                            ("--json", args.json),
                            ("--trace", args.trace is not None),
                            ("--profile", args.profile),
                            ("an artifact name",
                             args.artifact is not None)):
            if given:
                parser.error(
                    f"--serve runs the JSON-lines service on "
                    f"stdin/stdout and does not take {name}"
                )
        if args.jobs < 1:
            parser.error(f"--jobs must be >= 1, got {args.jobs}")
        from ..serve.__main__ import serve_main
        return serve_main(cache_dir=args.cache_dir,
                          no_cache=args.no_cache, jobs=args.jobs)

    if args.list_:
        text = "registered artifacts:\n" + artifacts.describe()
        payload = artifacts.describe_json()
        try:
            store = resolve_store(args.cache_dir,
                                  no_cache=args.no_cache)
        except CacheError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        payload["cache"] = {"enabled": store is not None}
        if store is not None:
            payload["cache"].update(store.describe())
        write_output(text, payload, args.out, args.json)
        return 0
    if args.artifact is None:
        parser.error("an artifact name is required (see --list)")

    try:
        spec = artifacts.get(args.artifact)
    except KeyError as exc:
        parser.error(exc.args[0])
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.jobs > 1 and not spec.sharded:
        parser.error(
            f"--jobs applies to sharded sweeps only "
            f"({', '.join(artifacts.sharded_names())}); artifact "
            f"{args.artifact!r} runs a single measurement"
        )
    # The shared request flags join the ownership check: an artifact
    # owns those it reads.
    ownership = {dest: (f"--{dest}", parser.get_default(dest),
                        [s for s in artifacts.specs() if dest in s.reads])
                 for dest in artifacts.REQUEST_FLAGS}
    ownership.update((dest, (flag.name, flag.default, owners))
                     for dest, (flag, owners) in flag_owner.items())
    own_dests = {flag.dest for flag in spec.flags} | set(spec.reads)
    for dest, (name, default, owners) in ownership.items():
        if dest not in own_dests and getattr(args, dest) != default:
            if len(owners) == 1:
                where = f"artifact {owners[0].name!r}"
            else:
                where = "artifacts " + ", ".join(
                    repr(o.name) for o in owners)
            parser.error(
                f"{name} applies to {where} only; artifact "
                f"{args.artifact!r} does not take it"
            )
    extras = {flag.dest: getattr(args, flag.dest) for flag in spec.flags}

    observing = bool(args.trace or args.profile)
    if observing and spec.observe is None:
        parser.error(
            f"--trace/--profile need an artifact with an "
            f"observability hook; artifact {args.artifact!r} has "
            f"none (try: " + ", ".join(
                s.name for s in artifacts.specs()
                if s.observe is not None) + ")"
        )

    request = ArtifactRequest(n=args.n, full=args.full,
                              cores=args.cores, jobs=args.jobs,
                              extras=extras)
    try:
        store = resolve_store(args.cache_dir, no_cache=args.no_cache)
        with use_store(store):
            result = spec.run(request)
        if store is not None:
            # Summary to stderr (never stdout): cached and uncached
            # runs must emit byte-identical payloads.
            s = store.stats
            print(f"cache: {s.hits} hits, {s.misses} misses, "
                  f"{s.deduped} deduped, {s.stores} stored "
                  f"({store.root})", file=sys.stderr)
            store.flush_stats()
    except (CacheError, CellError, TrafficError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text, payload = result.text, result.payload

    if observing:
        # The representative cell re-runs *inline* (never through the
        # sharded sweep), so the trace/profile bytes are identical for
        # every --jobs value.
        from ..obs import (MetricsRegistry, ObsSink, ProfileNode,
                           render_profile, write_chrome_trace)
        workload, backend = spec.observe(request)
        sink = ObsSink()
        record = backend.run(workload, check=False, obs=sink)
        cell = (f"observed cell: {workload.kernel}/{workload.variant} "
                f"n={workload.n} on {backend.spec}")
        if args.trace:
            write_chrome_trace(sink, args.trace)
            print(f"wrote {args.trace} ({len(sink)} events; {cell})")
        if args.profile:
            node = ProfileNode.from_json(record.profile)
            registry = MetricsRegistry.default()
            text = "\n\n".join([
                text, cell,
                render_profile(node),
                registry.render(record),
            ])
            payload = dict(payload)
            payload["profile"] = record.profile
            payload["metrics"] = registry.collect(record)

    write_output(text, payload, args.out, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
