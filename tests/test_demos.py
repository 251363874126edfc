"""Every script in demos/ runs to completion against the current package."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


def _run(script: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(script):
    done = _run(script)
    assert done.returncode == 0, done.stderr


def test_partitioning_demo_prints_its_plan_local_layer_and_counters():
    """Demo 04's lines that hold no rounding error: the plan, the
    "master" layer multiplied at the coordinator, and the counters."""
    lines = _run(ROOT / "demos" / "04_partitioning.py").stdout.splitlines()
    assert lines[:5] == [
        "partition plan with 4 workers:",
        "  layer 0 (8x6)  policy=data    shards=4",
        "  layer 1 (3x8)  policy=tensor  shards=3",
        "  layer 2 (2x3)  policy=master  shards=0",
        "  (the row-split 3-row layer is clipped to 3 shards; the local layer takes none)",
    ]
    assert "layer 2 forward locally: max error vs local 0.000e+00" in lines
    assert "layer 2 backward: T1 (3, 2) err 0.000e+00, T2 (10, 3) err 0.000e+00" in lines
    assert lines[-1] == ("offload counters: {'matrices_encrypted': 21, 'matrices_decrypted': 21, "
                         "'products_offloaded': 21, 'verification_rounds': 126, 'failures': 0}")
