"""Smoke test of the E18 benchmark; not collected by tier-1 (pyproject's
`testpaths` is `tests`). Run it explicitly:

    PYTHONPATH=src python -m pytest benchmarks/e18/test_e18_smoke.py -q

`--quick` is one round of small slices, all four workloads in < 30 s.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _quick(workload: str, trace: int) -> tuple:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--quick", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    return out["metrics"], done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics, _stdout = _quick(workload, trace=0)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    metrics, stdout = _quick(workload, trace=1)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    # a trace target that no longer resolves is listed and nulls its
    # layer's metrics; it never fails the run
    lost = "unresolved trace targets" in stdout
    for spec in SPEC["per_layer"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert lost or metrics[spec["name"]]["value"] is not None, spec["name"]
