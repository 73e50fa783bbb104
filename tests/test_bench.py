"""The perf ratchet itself: ``repro.bench.check`` must catch seeded
regressions, hard-ceiling breaks, and schema mismatches — and the
committed baseline must actually satisfy the acceptance bounds it
exists to defend.  (Full benchmark runs are CI's job, not this
suite's; everything here works on synthetic or committed documents.)
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import (
    GATED_METRICS,
    SCHEMA_VERSION,
    _TRAJECTORY_FIELDS,
    append_trajectory,
    check,
)
from repro.cli import DEFAULT_BENCH_BASELINE

REPO = Path(__file__).resolve().parent.parent


def _doc(**overrides) -> dict:
    """A synthetic benchmark document with every gated metric present."""
    derived = {m: 10.0 for m in GATED_METRICS}
    derived.update(overrides.pop("derived", {}))
    doc = {
        "schema": SCHEMA_VERSION,
        "events": 1000,
        "python": "3.11",
        "plain_append_ns": 25.0,
        "derived": derived,
        "gates": {},
    }
    doc.update(overrides)
    return doc


class TestCheck:
    def test_identical_documents_pass(self):
        base = _doc()
        failures, report = check(_doc(), base)
        assert failures == []
        assert len(report) == len(GATED_METRICS)

    def test_within_tolerance_passes(self):
        failures, _ = check(
            _doc(derived={"remote_vs_plain": 10.9}), _doc(), max_regression=0.10
        )
        assert failures == []

    def test_seeded_ten_percent_regression_fails(self):
        # The acceptance scenario: one gated metric 11% over baseline
        # with a 10% allowance must fail, and name the metric.
        failures, _ = check(
            _doc(derived={"guard_vs_plain": 11.1}),
            _doc(),
            max_regression=0.10,
        )
        assert len(failures) == 1
        assert "guard_vs_plain" in failures[0]

    def test_every_overhead_bound_is_enforced(self):
        # No escape hatch: every gated metric past its limit fails, and
        # so does a pinned ceiling, whatever else the documents carry.
        current = _doc(derived={m: 300.0 for m in GATED_METRICS})
        base = _doc(gates={"guard_vs_plain": 50.0})
        failures, report = check(current, base, max_regression=0.10)
        assert len(failures) == len(GATED_METRICS) + 1
        assert not any("NOT ENFORCED" in line for line in report)

    def test_improvement_never_fails(self):
        failures, _ = check(_doc(derived={m: 1.0 for m in GATED_METRICS}), _doc())
        assert failures == []

    def test_hard_ceiling_from_baseline_gates(self):
        base = _doc(gates={"guard_vs_plain": 5.0})
        current = _doc(derived={"guard_vs_plain": 5.2})
        failures, report = check(current, base, max_regression=1000.0)
        # Relative bound is satisfied (huge allowance); the absolute
        # ceiling embedded in the baseline still trips.
        assert len(failures) == 1
        assert "ceiling" in failures[0]
        assert any("hard ceiling" in line for line in report)

    def test_hard_ceiling_at_bound_passes(self):
        base = _doc(gates={"guard_vs_plain": 5.0})
        failures, _ = check(_doc(derived={"guard_vs_plain": 5.0}), base)
        assert failures == []

    def test_metric_missing_from_current_raises(self):
        current = _doc()
        del current["derived"]["remote_vs_plain"]
        with pytest.raises(ValueError, match="remote_vs_plain"):
            check(current, _doc())

    def test_metric_missing_from_baseline_raises(self):
        base = _doc()
        del base["derived"]["journal_vs_plain"]
        with pytest.raises(ValueError, match="journal_vs_plain"):
            check(_doc(), base)

    def test_gated_metric_absent_from_both_is_skipped(self):
        # Forward compatibility: a metric this code gates but neither
        # document measured (e.g. both docs predate it) is not an error.
        current, base = _doc(), _doc()
        del current["derived"]["guard_vs_plain"]
        del base["derived"]["guard_vs_plain"]
        failures, report = check(current, base)
        assert failures == []
        assert any("skipped" in line for line in report)

    def test_absolute_gate_on_unmeasured_metric_raises(self):
        base = _doc(gates={"no_such_metric": 2.0})
        with pytest.raises(ValueError, match="no_such_metric"):
            check(_doc(), base)


class TestCommittedBaseline:
    """The checked-in baseline must defend the ISSUE acceptance bounds."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return json.loads((REPO / DEFAULT_BENCH_BASELINE).read_text(encoding="utf-8"))

    def test_schema_and_metrics_present(self, baseline):
        assert baseline["schema"] == SCHEMA_VERSION
        for metric in GATED_METRICS:
            assert metric in baseline["derived"], metric

    def test_baseline_passes_against_itself(self, baseline):
        failures, _ = check(baseline, baseline)
        assert failures == []


class TestTrajectory:
    def test_header_written_once_then_appends(self, tmp_path):
        csv = tmp_path / "trajectory.csv"
        append_trajectory(_doc(), csv, commit="abcdef0123456789")
        append_trajectory(_doc(), csv, commit="fedcba9876543210")
        lines = csv.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("timestamp,commit,schema,")
        assert lines[1].split(",")[1] == "abcdef012345"  # 12-char short sha
        assert lines[2].split(",")[1] == "fedcba987654"

    def test_row_carries_every_gated_metric(self, tmp_path):
        csv = tmp_path / "t.csv"
        line = append_trajectory(_doc(), csv, commit="c" * 40)
        header = csv.read_text(encoding="utf-8").splitlines()[0].split(",")
        values = line.split(",")
        assert len(values) == len(header)
        for metric in GATED_METRICS:
            assert values[header.index(metric)] == "10.000"

    def test_foreign_header_is_refused(self, tmp_path):
        # Rows appended under another header (e.g. one from before a
        # gated metric was dropped) would land in the wrong columns.
        csv = tmp_path / "trajectory.csv"
        old = "timestamp,commit,schema,events,python,record_kernel,plain_append_ns\n"
        csv.write_text(old, encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            append_trajectory(_doc(), csv, commit="abc")
        assert csv.read_text(encoding="utf-8") == old

    def test_committed_trajectory_parses(self):
        lines = (
            (REPO / "benchmarks" / "results" / "trajectory.csv")
            .read_text(encoding="utf-8")
            .splitlines()
        )
        header = lines[0].split(",")
        # The nightly job appends to this file: its header must be the
        # one append_trajectory writes.
        assert tuple(header) == _TRAJECTORY_FIELDS
        assert len(lines) >= 2
        for line in lines[1:]:
            assert len(line.split(",")) == len(header)


class TestCliCheckMode:
    """``dsspy bench --check`` is the CI ratchet entry point: prove its
    exit codes end to end with --input (no measurement)."""

    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "bench", *argv],
            capture_output=True,
            text=True,
            cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )

    def test_check_fails_on_seeded_regression(self, tmp_path):
        baseline = _doc()
        current = _doc(derived={"guard_vs_plain": 12.0})  # +20%
        (tmp_path / "base.json").write_text(json.dumps(baseline))
        (tmp_path / "cur.json").write_text(json.dumps(current))
        proc = self._run(
            "--input", str(tmp_path / "cur.json"),
            "--check", "--baseline", str(tmp_path / "base.json"),
            "--max-regression", "0.10",
        )
        assert proc.returncode == 1
        assert "PERF RATCHET: FAILED" in proc.stdout
        assert "guard_vs_plain" in proc.stdout

    def test_check_passes_within_tolerance(self, tmp_path):
        (tmp_path / "base.json").write_text(json.dumps(_doc()))
        (tmp_path / "cur.json").write_text(
            json.dumps(_doc(derived={"guard_vs_plain": 10.5}))
        )
        proc = self._run(
            "--input", str(tmp_path / "cur.json"),
            "--check", "--baseline", str(tmp_path / "base.json"),
        )
        assert proc.returncode == 0
        assert "PERF RATCHET: passed" in proc.stdout

    def test_schema_mismatch_is_exit_two(self, tmp_path):
        broken = _doc()
        del broken["derived"]["remote_vs_plain"]
        (tmp_path / "base.json").write_text(json.dumps(_doc()))
        (tmp_path / "cur.json").write_text(json.dumps(broken))
        proc = self._run(
            "--input", str(tmp_path / "cur.json"),
            "--check", "--baseline", str(tmp_path / "base.json"),
        )
        assert proc.returncode == 2
