"""The workloads end to end, through real ``dsspy`` processes."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.e2e import workloads

ROOT = Path(__file__).resolve().parents[3]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_alloc_churn_flags_exactly_the_planted_lists(tmp_path, seed):
    plan, planted = workloads.churn_plan(seed, 400)
    program = workloads.write_churn_program(tmp_path, plan)
    ctx = workloads.Context(seed, 1.0, False, True, tmp_path)
    analysis = workloads.analyze(ctx, program)
    assert analysis.run.returncode == 0, analysis.run.stderr
    assert analysis.instances == 400
    assert planted and analysis.flagged == {(i, "LI") for i in planted}


def test_declared_units_match_the_metric_names():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in bench["end_to_end"] + bench["per_layer"]:
        assert workloads.unit_of(entry["name"]) == entry["unit"], entry["name"]


def test_smoke_run_of_all_four_workloads_is_correct_and_quick():
    began = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--smoke", "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - began
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 4
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for name in workloads.WORKLOADS:
        for entry in declared:
            assert summary["metrics"][f"{name}/{entry['name']}"]["value"] > 0
    assert elapsed < 60
