"""The benchmark harness runs against this tree and its output checks pass."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_msobe_db_workload_runs_and_checks_out():
    """A short msobe_db run: build, CSV write, read-back, class summary and table all pass the bench's checks."""
    argv = [sys.executable, "bench/run.py", "--workload", "msobe_db", "--seed", "1", "--seconds", "0.5", "--trace", "0"]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, run.stdout
