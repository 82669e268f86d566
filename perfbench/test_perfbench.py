"""The benchmark's own test: every workload at a tiny size, both modes.

Run from the repository root with ``PYTHONPATH=src python -m pytest
perfbench/test_perfbench.py``.  Each case starts ``perfbench/run.py`` as
a subprocess, exactly as the benchmark is run, and parses what it prints.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bft-bulk", "bft-contended", "sweep-mix")

#: The profiler's per-layer self times must account for this share of the
#: traced wall time (the rest is the profiler's own bookkeeping).
ATTRIBUTED_SHARE_RANGE = (0.85, 1.05)


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_benchmark(workload: str, seed: int, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def printed_metrics(stdout: str) -> dict:
    """``metric NAME = VALUE UNIT`` lines -> ``{name: (value, unit)}``."""
    metrics = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            name, _equals, value, unit = line.split()[1:5]
            metrics[name] = (float(value), unit)
    return metrics


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_seed(workload):
    completed = run_benchmark(workload, seed=7, trace=0)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1

    printed = printed_metrics(completed.stdout)
    for metric in benchmark_spec()["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        assert printed[name][1] == unit
        assert result["metrics"][name] == {"value": printed[name][0], "unit": unit}
        assert printed[name][0] > 0, f"{name} must never be 0"

    # The seed argument is the spec's seed: RunSpec.seed for the points,
    # SweepSpec.seed (the root of every point's seed) for the sweep.
    repetitions = [line for line in completed.stdout.splitlines() if line.startswith("repetition ")]
    assert len(repetitions) >= 2
    assert all(" seed_in_spec=7 " in line for line in repetitions)
    other = run_benchmark(workload, seed=8, trace=0)
    assert other.returncode == 0, other.stderr
    digest = [line for line in completed.stdout.splitlines() if line.startswith("result_digest:")]
    other_digest = [line for line in other.stdout.splitlines() if line.startswith("result_digest:")]
    assert digest and other_digest and digest != other_digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_attribution(workload):
    completed = run_benchmark(workload, seed=7, trace=1)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is True

    printed = printed_metrics(completed.stdout)
    expected = {metric["name"]: metric["unit"] for metric in benchmark_spec()["per_layer"]}
    assert {name: unit for name, (_value, unit) in printed.items()} == expected
    assert set(result["metrics"]) == set(expected)

    low, high = ATTRIBUTED_SHARE_RANGE
    assert low <= printed["trace.attributed_share"][0] <= high
    assert printed["trace.overhead_ratio"][0] > 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the command fails without a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bft-bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
