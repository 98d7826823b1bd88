"""Run the evaluation service on stdin/stdout.

Usage::

    python -m repro.serve [--cache-dir DIR] [--no-cache]
                          [--jobs N] [--max-pending N]

(equivalently ``python -m repro.eval --serve``, which forwards here).
The process reads JSON-lines requests from stdin and writes one
response line per request to stdout (see :mod:`repro.serve.protocol`);
diagnostics go to stderr so the response stream stays machine-clean.
EOF or a ``shutdown`` request ends the session, flushing cumulative
cache stats to the store's sidecar on the way out.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys

from ..api.parallel import default_jobs
from .client import default_cache_dir, resolve_store
from .protocol import serve_session
from .service import EvalService
from .store import CacheError


async def _stdin_lines():
    """Async line iterator over stdin (reads on a worker thread).

    Reads the raw fd with ``os.read`` instead of
    ``sys.stdin.readline``: a blocked readline holds the text
    wrapper's internal lock, and a worker process forked off while it
    is held inherits it *locked* — multiprocessing's child bootstrap
    closes stdin and deadlocks.  ``os.read`` blocks without holding
    any Python-level lock, so forking stays safe while a request is
    awaited.
    """
    loop = asyncio.get_running_loop()
    fd = sys.stdin.fileno()
    pending = b""
    while True:
        chunk = await loop.run_in_executor(None, os.read, fd, 65536)
        if not chunk:
            if pending:
                yield pending.decode("utf-8", errors="replace")
            return
        pending += chunk
        while b"\n" in pending:
            line, pending = pending.split(b"\n", 1)
            yield line.decode("utf-8", errors="replace")


def _write_line(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


async def _serve(service: EvalService) -> int:
    try:
        return await serve_session(service, _stdin_lines(),
                                   _write_line)
    finally:
        await service.close()


def serve_main(cache_dir: str | None = None, no_cache: bool = False,
               jobs: int = 1, max_pending: int = 8) -> int:
    """Build the service from CLI options and serve until EOF."""
    try:
        store = resolve_store(cache_dir, no_cache=no_cache)
        service = EvalService(store=store, jobs=jobs,
                              max_pending=max_pending)
    except (CacheError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    where = store.root if store is not None else "disabled (--no-cache)"
    print(f"repro.serve: cache {where}; jobs={jobs} "
          f"max_pending={max_pending}; reading JSON-lines requests "
          f"from stdin", file=sys.stderr)
    try:
        handled = asyncio.run(_serve(service))
    except CacheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"repro.serve: session over after {handled} requests",
          file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Persistent evaluation service (JSON-lines over "
                    "stdin/stdout) with a content-addressed "
                    "RunRecord cache.",
    )
    parser.add_argument("--cache-dir", type=str, default=None,
                        metavar="DIR",
                        help="Result-store directory (default "
                             f"{default_cache_dir()}, or "
                             "$REPRO_CACHE_DIR).")
    parser.add_argument("--no-cache", action="store_true",
                        help="Serve without the result store (every "
                             "request simulates; coalescing still "
                             "applies).")
    parser.add_argument("--jobs", type=int, default=1,
                        help="Worker processes in the simulation pool "
                             f"(this host has {default_jobs()} CPUs).")
    parser.add_argument("--max-pending", type=int, default=8,
                        help="Bound on concurrently admitted "
                             "recomputes (backpressure; default 8).")
    args = parser.parse_args(argv)
    if args.no_cache and args.cache_dir is not None:
        parser.error(
            f"--no-cache and --cache-dir {args.cache_dir} are "
            f"mutually exclusive; drop one"
        )
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.max_pending < 1:
        parser.error(
            f"--max-pending must be >= 1, got {args.max_pending}")
    return serve_main(cache_dir=args.cache_dir,
                      no_cache=args.no_cache, jobs=args.jobs,
                      max_pending=args.max_pending)


if __name__ == "__main__":
    sys.exit(main())
