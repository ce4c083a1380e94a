"""Smoke test of the benchmark: every workload at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import E2E_UNITS  # noqa: E402
from tracing import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Counts that depend only on the inputs, so two traced runs must agree.
EXACT = [name for name in PER_LAYER_UNITS
         if any(tag in name for tag in ("lloyd_iters", "solver_steps", "lstsq_solves",
                                        ".pairs_", "_bytes"))]


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def bench(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(result) == E2E_UNITS
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_runs_print_every_layer_metric_with_repeatable_counts(workload):
    first, second = bench(workload, 1), bench(workload, 1)
    assert first["correct"] and second["correct"]
    assert units(first) == PER_LAYER_UNITS
    assert {name: first["metrics"][name]["value"] for name in EXACT} == \
           {name: second["metrics"][name]["value"] for name in EXACT}
    assert first["metrics"]["trace.spans"]["value"] == second["metrics"]["trace.spans"]["value"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    predictions = json.loads((BENCH / "predictions.json").read_text())
    assert set(predictions["workloads"]) == set(WORKLOADS)
    for item in predictions["predictions"]:
        assert item["layer_metric"] in PER_LAYER_UNITS
        for move in item["moves"]:
            assert move["metric"] in E2E_UNITS or move["metric"] in predictions["reported_only"]
            assert set(move["workloads"]) <= set(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, a run exits nonzero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("roll-regress", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
