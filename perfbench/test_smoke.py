"""Smoke test of the benchmark: every workload over a tiny window, with the
correctness gate, the tracer and the metric schema of BENCHMARK.json."""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def test_smoke_mode_passes_and_reports_every_metric():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == 8  # four workloads, one untraced and one traced sample each
