"""The benchmark's self-test as a tier-1 test: every workload of
``perfbench/run.py`` at a tiny size, with its correctness and count
checks, against the sources of this checkout."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, "perfbench/run.py", "--selftest"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
