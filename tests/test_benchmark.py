"""The benchmark's own correctness gate on the wide workloads: a short
untraced run of perfbench/run.py on train-wide (the pipelined "data"
path) and on infer-wide (offloaded inference) must come out correct
with no failed call."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["train-wide", "infer-wide"])
def test_wide_workload_passes_the_benchmark_gate(workload):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0 and result["attempted"] >= 1, result
