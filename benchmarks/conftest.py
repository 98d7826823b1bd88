"""Shared benchmark fixtures and the ``BENCH_sim.json`` writer.

The Figure-2 dataset (all six kernels, both variants) is expensive to
simulate, so it is computed once per session and shared by the
fig2a/fig2b/fig2c benchmark modules.  Every benchmark that records a
measurement owns one section of ``BENCH_sim.json`` at the repo root
and writes it through :func:`record_section`.
"""

import json
import os
import tempfile

import pytest

from repro.eval import fig2

BENCH_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_sim.json")


def record_section(name: str, payload: dict) -> None:
    """Store *payload* as section *name* of ``BENCH_sim.json``.

    Every other section is kept.  The merged file is written to a
    temporary file beside it and moved into place with ``os.replace``,
    so a reader never sees a half-written file.
    """
    data = {}
    if os.path.exists(BENCH_PATH):
        with open(BENCH_PATH) as handle:
            data = json.load(handle)
    data[name] = payload
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(BENCH_PATH),
                               prefix=".BENCH_sim.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, BENCH_PATH)
    except BaseException:
        os.unlink(tmp)
        raise

#: Problem size for the shared Figure-2 dataset.  Large enough for
#: steady-state behaviour, small enough for CI.
FIG2_N = 2048


@pytest.fixture(scope="session")
def fig2_data():
    return fig2.generate(n=FIG2_N)


def kernel_row(data, name):
    for row in data.rows:
        if row.name == name:
            return row
    raise KeyError(name)
