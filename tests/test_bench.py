"""The micro-benchmarks under bench/ still run against the library they time."""

import subprocess
import sys
from pathlib import Path

import pytest


def test_micro_benchmarks_run_once_each():
    pytest.importorskip("pytest_benchmark")
    # bench/ is outside the default test path: without this run, a library
    # change that breaks a benchmark's calls goes unseen
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "bench/bench_aggregate.py", "bench/bench_setup.py",
         "bench/bench_memory.py::test_stages", "--benchmark-disable"],
        cwd=Path(__file__).resolve().parents[1], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
