"""Every example script must run end to end and print its results."""

import io
import runpy
from contextlib import redirect_stdout
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return buffer.getvalue()


def test_quickstart():
    from repro.api import SCHEMA_VERSION

    out = run_example("quickstart.py")
    assert "speedup" in out
    assert "energy improvement" in out
    assert f"RunRecord.to_json() schema v{SCHEMA_VERSION}" in out


def test_sweep_backends():
    out = run_example("sweep_backends.py")
    assert "12 cells" in out
    assert "cluster:4" in out
    assert "4-core speedup" in out


def test_every_example_has_a_test():
    """CI smoke coverage: no example script may go untested."""
    tested = {"quickstart.py", "softmax_llm.py", "montecarlo_pi.py",
              "custom_kernel_copift.py", "pipeline_timeline.py",
              "sweep_backends.py", "soc_sweep.py", "trace_kernel.py",
              "serve_client.py", "stream_qos.py", "batch_sweep.py"}
    on_disk = {p.name for p in EXAMPLES.glob("*.py")}
    assert on_disk == tested


def test_batch_sweep():
    out = run_example("batch_sweep.py")
    assert "byte-identical to scalar engine: True" in out
    assert "16 seeds" in out


def test_soc_sweep():
    out = run_example("soc_sweep.py")
    assert "soc:4x4" in out
    assert "beat-stall cycles" in out
    assert "cycle-identical to cluster:4" in out


def test_softmax_llm():
    out = run_example("softmax_llm.py")
    assert "softmax" in out
    assert "verified against NumPy" in out


def test_montecarlo_pi():
    out = run_example("montecarlo_pi.py")
    assert "pi ~ 3.1" in out
    assert "WB-port stalls" in out


def test_custom_kernel_copift():
    out = run_example("custom_kernel_copift.py")
    assert "Step 1" in out
    assert "phase 2" in out
    assert "2.21x" in out  # the paper's S' for expf


def test_pipeline_timeline():
    out = run_example("pipeline_timeline.py")
    assert "<seq" in out
    assert "dual-issue cycles" in out


def test_trace_kernel(tmp_path, monkeypatch):
    out_path = tmp_path / "dither-trace.json"
    monkeypatch.setattr(
        "sys.argv", ["trace_kernel.py", f"--out={out_path}"])
    out = run_example("trace_kernel.py")
    assert "<seq" in out
    assert "cycles attributed exactly" in out
    assert "Chrome trace events" in out
    assert out_path.exists()


def test_stream_qos():
    out = run_example("stream_qos.py")
    assert "policy fifo" in out
    assert "policy priority+qos" in out
    assert "p99 separation" in out
    assert "hi p99 under priority+qos beats fifo" in out


def test_serve_client():
    out = run_example("serve_client.py")
    assert "ping -> pong" in out
    assert "cold request: status=miss" in out
    assert out.count("warm request: status=hit") == 2
    assert out.count("byte-identical") == 2
    assert "hit service time: 2 requests, p50 " in out
    assert "miss service time: 1 requests, p50 " in out
    assert "shutdown acknowledged" in out
