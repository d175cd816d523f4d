"""Runs the benchmark's smoke mode, so a renamed function that the layer
tracer binds, or an output that no longer matches the benchmark's reference
analyses, fails the test suite."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "smoke ok"
