"""Smoke-size self-test of the benchmark.

    python3 -m pytest -q perfbench/test_selftest.py

Every workload runs at `--scale 0.1`.  Each must emit every metric named in
BENCHMARK.json with its unit, pass its oracles, and give the same counters
on two traced runs.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, seed=5):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "0.1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def _expect(metrics, declared):
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = _run(workload, 0)
    _expect(metrics, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_and_counters_repeat(workload):
    first, second = _run(workload, 1), _run(workload, 1)
    _expect(first, SPEC["per_layer"])
    counters = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
    assert {k: first[k]["value"] for k in counters} == {k: second[k]["value"] for k in counters}
