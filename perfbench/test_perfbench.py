"""Self-tests of the benchmark's statistics, tracing, gate and result format.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402
from tracer import Tracer, frame_bytes  # noqa: E402


@pytest.mark.parametrize("q", [0, 10, 50, 90, 99, 100])
def test_percentile_matches_numpy(q):
    values = list(np.random.default_rng(1).exponential(size=37))
    assert stats.percentile(values, q) == pytest.approx(float(np.percentile(values, q)))


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert not stats.supports_percentile(99, 90.0)
    assert stats.supports_percentile(100, 90.0)
    assert not stats.supports_percentile(999, 99.0)
    assert stats.supports_percentile(1000, 99.0)
    assert stats.supports_percentile(20, 50.0)


def test_failed_share():
    assert stats.failed_share(0, 13) == 0.0
    assert stats.failed_share(13, 26) == 0.5
    with pytest.raises(ValueError):
        stats.failed_share(0, 0)
    with pytest.raises(ValueError):
        stats.failed_share(3, 2)


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0.0, 10.0, -1),  # root
        (1.0, 4.0, 0),  # child
        (2.0, 3.0, 1),  # grandchild
        (5.0, 9.0, 0),  # child
    ]
    assert stats.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_wrappers_pass_through_and_nest():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(3) == 8
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0)]


def test_wrappers_reraise_and_close_the_span():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert tracer.spans[0][2] >= tracer.spans[0][1] > 0
    assert tracer.wrap("after", lambda: 1)() == 1
    assert tracer.spans[1][3] == -1  # the failed span left the stack


def test_opaque_span_hides_its_children():
    tracer = Tracer()
    child = tracer.wrap("child", lambda: 1)
    parent = tracer.wrap("parent", lambda: child() + 1, opaque=True)
    assert parent() == 2
    assert [s[0] for s in tracer.spans] == ["parent"]


def test_installed_restores_every_patched_function():
    from blindtrain import master, nn, obfuscate, protocol

    before = (master.dec, master.enc_left, obfuscate.dec_only, protocol.send_message,
              nn.forward, master.WorkerConnection.__dict__["collect"])
    with Tracer().installed():
        assert master.dec is not before[0]
    after = (master.dec, master.enc_left, obfuscate.dec_only, protocol.send_message,
             nn.forward, master.WorkerConnection.__dict__["collect"])
    assert all(a is b for a, b in zip(after, before))


def test_frame_bytes_is_the_encoded_size():
    from blindtrain import protocol

    rng = np.random.default_rng(2)
    for msg in (protocol.Result(7, ()),
                protocol.Result(8, (rng.standard_normal((3, 5)),)),
                protocol.Result(9, (rng.standard_normal((4, 2)), rng.standard_normal((2, 6)))),
                protocol.Error(2, "no stored pair é")):
        assert frame_bytes(msg) == len(protocol.encode(msg))




def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_metric_of_benchmark_json(trace, section):
    proc = _run(ROOT, "--workload", "train-small", "--seed", "3", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec[section]} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "train-small", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_gate_mismatch_counts_as_failed_and_ends_the_loop():
    import bench

    wl = bench.WORKLOADS["train-small"]
    seeds = [1, 2, 3, 4, 5]
    s = bench.set_up(wl, seeds, trace=False)
    try:
        ref = bench.Reference(wl, s, seeds)
        ref.accuracy += 0.5  # what a wrong offloaded result looks like to the gate
        loop = bench.measure(wl, s, ref, seconds=60.0, seed=1)
    finally:
        s.close()
    assert loop.attempted == loop.failed == wl.steps_per_call
    assert stats.failed_share(loop.failed, loop.attempted) == 1.0
    assert loop.walls == [] and "accuracy" in loop.problems[0]
