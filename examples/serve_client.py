"""Talk to the persistent evaluation service over JSON-lines.

Spawns ``python -m repro.eval --serve`` as a subprocess with a
temporary cache directory, then plays a full client session against
its stdin/stdout:

1. ``ping`` — liveness check;
2. a **cold** ``run`` request (``pi_lcg`` copift on ``cluster:2``) —
   the service simulates it and persists the RunRecord in the
   content-addressed store;
3. the **same** request again, twice — each a ``hit`` answered from
   the store's in-memory tier (the cold request committed the entry),
   no simulation, byte-identical records;
4. ``stats`` — the serve-layer counters and host-latency percentiles
   (µs) through the metrics registry;
5. ``shutdown``.

Run with::

    python examples/serve_client.py
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


def request(proc, payload: dict) -> dict:
    """One pipelined exchange: write a request line, read a response."""
    proc.stdin.write(json.dumps(payload) + "\n")
    proc.stdin.flush()
    return json.loads(proc.stdout.readline())


def main() -> None:
    cell = {"kernel": "pi_lcg", "variant": "copift", "n": 1024}
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as cache:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.eval", "--serve",
             "--cache-dir", cache],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, env=env)
        try:
            pong = request(proc, {"id": 0, "op": "ping"})
            assert pong["pong"] is True
            print("service is up (ping -> pong)")

            cold = request(proc, {"id": 1, "op": "run",
                                  "workload": cell,
                                  "backend": "cluster:2"})
            assert cold["ok"], cold
            record = cold["record"]
            print(f"cold request: status={cold['status']} "
                  f"({record['kernel']}/{record['variant']} "
                  f"n={record['n']} on {record['backend']}, "
                  f"{record['cycles']} cycles)")

            for ident in (2, 3):
                warm = request(proc, {"id": ident, "op": "run",
                                      "workload": cell,
                                      "backend": "cluster:2"})
                assert warm["ok"], warm
                print(f"warm request: status={warm['status']}")
                assert warm["status"] == "hit", warm["status"]
                identical = (json.dumps(warm["record"], sort_keys=True)
                             == json.dumps(record, sort_keys=True))
                assert identical
                print("warm record is byte-identical to the cold one")

            stats = request(proc, {"id": 4, "op": "stats"})["stats"]
            print(f"stats: {stats['serve.requests']} requests, "
                  f"{stats['serve.hits']} hit / "
                  f"{stats['serve.misses']} miss; store at "
                  f"{stats['store']['dir']}")
            for status in ("hit", "miss"):
                name = f"serve.{status}_us"
                print(f"{status} service time: "
                      f"{stats[name + '.count']} requests, "
                      + ", ".join(f"{tail} {stats[f'{name}.{tail}']} us"
                                  for tail in ("p50", "p95", "p99")))
            print(f"miss admission wait: p50 "
                  f"{stats['serve.admit_wait_us.p50']} us")

            bye = request(proc, {"id": 5, "op": "shutdown"})
            assert bye["shutdown"] is True
            print("shutdown acknowledged")
        finally:
            proc.stdin.close()
            proc.wait(timeout=60)


if __name__ == "__main__":
    main()
