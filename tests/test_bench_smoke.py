"""The benchmark runs end to end on a short budget, on every workload.

Its build-verify round checks every build, verify and render, and its
control makes `verify` reject a tampered diagram with exit code 2 and a
`FAIL ` line, so this guards the contract between `verify` and the
benchmark.  The `table` and `lens-large` runs guard the harness itself,
for instance its host-speed probe on calls that end fast.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_clean(workload):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1"]
    argv += ["--seconds", "0.5", "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_build_verify_runs_clean():
    run_clean("build-verify")


@pytest.mark.parametrize("workload", ["table", "lens-large"])
def test_search_workload_runs_clean(workload):
    run_clean(workload)
