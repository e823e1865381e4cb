"""Smoke test of the benchmark harness: each workload runs on its small
fixtures and every result digest recorded in perfbench/expected.json still
matches."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["toric-ab", "gkm-hypercube", "cli-check"])
def test_benchmark_smoke_run_passes_every_check(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--seconds", "0.3",
         "--workload", workload, "--seed", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"]
    assert doc["failed"] == 0 and doc["attempted"] > 0
