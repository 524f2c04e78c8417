"""The benchmark harness runs against this tree and its output checks pass."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_bench(workload, trace):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.5",
            "--trace", str(trace)]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, run.stdout
    return result


@pytest.mark.parametrize("workload", ["msobe_db", "corr_sweep", "single_pcm"])
def test_workload_runs_and_checks_out(workload):
    """A short untraced run of each workload passes the bench's output checks."""
    run_bench(workload, trace=0)


def test_traced_corr_sweep_finds_every_traced_function():
    """The traced run wraps every function bench/spans.py names, so each must still exist under that name."""
    assert run_bench("corr_sweep", trace=1)["metrics"]
