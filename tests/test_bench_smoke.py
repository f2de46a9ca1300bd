"""One traced benchmark round, end to end, in a fresh process.

``pipebench/run.py`` drives the CLI commands and checks their outputs
with its own numpy yardstick, so a change to the core that breaks the
harness, its checks or its counters shows here.  patterns-tv is the
quickest workload: one round takes about 5 s.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_patterns_round_passes_its_checks():
    proc = subprocess.run(
        [sys.executable, os.path.join("pipebench", "run.py"), "--workload",
         "patterns-tv", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    metrics = result["metrics"]
    # 13 refinement stages of refine_iters = 1000, each iteration one
    # Adam step; the generator's 2000 steps add one theta and one eta
    # step each
    assert metrics["training.refine_iters"]["value"] == 13_000
    assert metrics["kernels.adam_calls"]["value"] == 17_000
