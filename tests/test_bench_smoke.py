"""The benchmark runs end to end on a short build-verify budget.

Its round checks every build, verify and render, and its control makes
`verify` reject a tampered diagram with exit code 2 and a `FAIL ` line,
so this guards the contract between `verify` and the benchmark.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_build_verify_runs_clean():
    argv = [sys.executable, "perfbench/run.py", "--workload", "build-verify", "--seed", "1"]
    argv += ["--seconds", "0.5", "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0
    assert result["attempted"] > 0
