"""Shared benchmark fixtures and the ``BENCH_sim.json`` writer.

The Figure-2 dataset (all six kernels, both variants) is expensive to
simulate, so it is computed once per session and shared by the
fig2a/fig2b/fig2c benchmark modules.  Every benchmark that records a
measurement owns one section of ``BENCH_sim.json`` and writes it
through :func:`record_section`.

The tracked ``BENCH_sim.json`` at the repo root is only rewritten when
``REPRO_BENCH_WRITE=1`` is set (the CI benchmarks job, or a deliberate
run).  Otherwise :data:`BENCH_PATH` is a copy of it in a temporary
directory, removed at exit, so a plain test run measures, merges and
asserts exactly as before but leaves the checkout clean.
"""

import atexit
import json
import os
import shutil
import stat
import tempfile

import pytest

from repro.eval import fig2

#: The tracked trajectory file at the repo root.
REPO_BENCH_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_sim.json")


def _bench_path() -> str:
    if os.environ.get("REPRO_BENCH_WRITE") == "1":
        return REPO_BENCH_PATH
    directory = tempfile.mkdtemp(prefix="repro-bench-")
    atexit.register(shutil.rmtree, directory, True)
    path = os.path.join(directory, "BENCH_sim.json")
    if os.path.exists(REPO_BENCH_PATH):
        shutil.copyfile(REPO_BENCH_PATH, path)
    return path


#: The file :func:`record_section` merges into this session.
BENCH_PATH = _bench_path()


def record_section(name: str, payload: dict) -> None:
    """Store *payload* as section *name* of :data:`BENCH_PATH`.

    Every other section is kept.  The merged file is written to a
    temporary file beside it and moved into place with ``os.replace``,
    so a reader never sees a half-written file; the temporary file
    takes the replaced file's mode (0644 for a new file), since
    ``mkstemp`` creates it owner-only.
    """
    data = {}
    mode = 0o644
    if os.path.exists(BENCH_PATH):
        with open(BENCH_PATH) as handle:
            data = json.load(handle)
        mode = stat.S_IMODE(os.stat(BENCH_PATH).st_mode)
    data[name] = payload
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(BENCH_PATH),
                               prefix=".BENCH_sim.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")
        os.chmod(tmp, mode)
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
