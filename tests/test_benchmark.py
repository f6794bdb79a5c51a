"""Smoke runs of every benchmark workload through ``perfbench/run.py``.

A change that breaks the benchmark's use of the package (a span the tracer
wraps by name, a CLI flag the walk passes) fails here, not only when the
benchmark itself is run. Each run writes under the gitignored
``.perfbench_out/`` only.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_runs(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.01", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
