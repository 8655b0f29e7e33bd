"""Smoke tests of the benchmark itself: every named metric is reported,
a wrong reference is caught, and call counts repeat across processes.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_named_metric_is_reported(workload, trace):
    out = run.measure(workload, seed=3, seconds=0.01, trace=trace, root=ROOT, tiny=True)
    result = out["result"]
    assert result["correct"], out["info"]["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in _spec()["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_planted_wrong_expectation_is_counted_as_failed():
    planted = os.path.join(workloads.FIXTURES, "planted_wrong.json")
    out = run.measure("corpus", seed=3, seconds=0.01, trace=False, root=ROOT, tiny=True,
                      expected_path=planted)
    assert out["info"]["failed_ratio"] > 0
    assert not out["result"]["correct"]
    assert any(f.startswith("figure1.loop") for f in out["info"]["failures"])


def _counts(workload, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.01", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    info = json.loads(proc.stdout.splitlines()[-2])["info"]
    assert info["pythonhashseed"] == hashseed
    return info["counts_per_verdict"]


@pytest.mark.parametrize("workload", ["corpus", "fuzz"])
def test_call_counts_repeat_across_processes(workload):
    assert _counts(workload, "0") == _counts(workload, "1")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
