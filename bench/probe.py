"""Set-up probe, run in a fresh interpreter: import pcmkit and make a workload's first call.

    python3 bench/probe.py ROOT WORKLOAD WORK_DIR SEED

run.py times this process from start to exit; that wall time is one sample
of the workload's set-up time, including pcmkit's lazy first-call set-up
(error-model verification with its scipy.stats import, the checksummed
built-in table) that module-level caches hide after the first call.
"""
import sys
from pathlib import Path

root, workload, work_dir, seed = sys.argv[1:5]
sys.path.insert(0, str(Path(root) / "src"))

import workloads  # noqa: E402  (needs src/ on sys.path)

workloads.WORKLOADS[workload].first_call(Path(work_dir), int(seed))
