"""The ``BENCH_sim.json`` writer: merge, atomic replace, file mode."""

import json
import os
import stat

import conftest


def _mode(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


def test_merge_keeps_other_sections_and_mode(tmp_path, monkeypatch):
    path = tmp_path / "BENCH_sim.json"
    path.write_text(json.dumps({"kept": {"x": 1}}))
    os.chmod(path, 0o664)
    monkeypatch.setattr(conftest, "BENCH_PATH", str(path))
    conftest.record_section("new", {"y": 2})
    assert json.loads(path.read_text()) == {"kept": {"x": 1},
                                            "new": {"y": 2}}
    assert _mode(path) == 0o664
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_new_file_is_world_readable(tmp_path, monkeypatch):
    path = tmp_path / "BENCH_sim.json"
    monkeypatch.setattr(conftest, "BENCH_PATH", str(path))
    conftest.record_section("only", {})
    assert json.loads(path.read_text()) == {"only": {}}
    assert _mode(path) == 0o644


def test_tracked_file_written_only_on_request():
    expected = os.environ.get("REPRO_BENCH_WRITE") == "1"
    assert (conftest.BENCH_PATH == conftest.REPO_BENCH_PATH) == expected
