"""The chaos soak harness: invariant checks in isolation, short seeded
soaks end to end, the trial ledger, and — most importantly — the
harness's own sensitivity: a deliberately broken ledger rung must be
caught within 50 trials.  A soak that cannot fail proves nothing.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service.daemon import ProfilingDaemon
from repro.service.governor import ResourceGovernor
from repro.testing.chaos import ChaosSoak, InvariantMonitor
from repro.testing.faults import FaultFS

REPO = Path(__file__).resolve().parent.parent

#: Small traces keep a single trial well under a second.
SMALL = dict(max_instances=2, max_segments=2, max_segment_events=40)


class TestInvariantMonitor:
    def test_exact_counts_pass(self):
        assert InvariantMonitor().check_counts(100, 100) == []

    def test_event_loss_flagged(self):
        out = InvariantMonitor().check_counts(100, 99)
        assert len(out) == 1 and "event loss" in out[0]

    def test_matching_reports_pass(self):
        summary = {"instances_analyzed": 2, "flagged": {("a", "PIP"): {"n": 1}}}
        assert InvariantMonitor().check_reports(summary, dict(summary)) == []

    def test_diverging_reports_flagged(self):
        a = {"instances_analyzed": 2, "flagged": {("a", "PIP"): {"n": 1}}}
        b = {"instances_analyzed": 2, "flagged": {}}
        assert InvariantMonitor().check_reports(a, b)

    def test_balanced_ledger_passes(self):
        assert InvariantMonitor().check_ledger(observed=4, accounted=4) == []

    def test_over_accounting_is_not_a_violation(self):
        # The server may refuse windows the client never saw (a fault
        # dropped the reply); only *under*-accounting is silent loss.
        assert InvariantMonitor().check_ledger(observed=3, accounted=5) == []

    def test_silent_shed_flagged(self):
        out = InvariantMonitor().check_ledger(observed=5, accounted=3)
        assert len(out) == 1 and "silent shed" in out[0]

    def test_recovery_bound(self):
        monitor = InvariantMonitor(recovery_bound=1.0)
        assert monitor.check_recovery([0.2, 0.9]) == []
        out = monitor.check_recovery([0.2, 1.5])
        assert len(out) == 1 and "recovery bound exceeded" in out[0]

    def test_silent_drops_flagged(self):
        assert InvariantMonitor().check_drops(0) == []
        out = InvariantMonitor().check_drops(3)
        assert len(out) == 1 and "silent drop" in out[0]

    def test_fsck_report_optional_and_checked(self):
        monitor = InvariantMonitor()
        assert monitor.check_fsck(None) == []
        assert monitor.check_fsck({"ok": True, "sessions": []}) == []
        out = monitor.check_fsck(
            {"ok": False, "sessions": [{"session": "s", "problems": ["torn"]}]}
        )
        assert len(out) == 1 and "s: torn" in out[0]


class TestInprocSoak:
    def test_short_soak_holds_every_invariant(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        with ChaosSoak(trace_kwargs=SMALL) as soak:
            summary = soak.run(trials=6, base_seed=0, ledger_path=ledger)
        assert summary["ok"], summary["seeds_with_violations"]
        assert summary["trials"] == 6
        assert summary["violations"] == 0
        assert summary["events"] > 0

        lines = ledger.read_text().splitlines()
        assert len(lines) == 6
        records = [json.loads(line) for line in lines]
        assert [r["seed"] for r in records] == list(range(6))
        assert all(r["ok"] for r in records)
        assert all(r["backend"] == "inproc" for r in records)

    def test_trials_are_seed_deterministic_in_workload(self):
        with ChaosSoak(trace_kwargs=SMALL) as soak:
            a = soak.run_trial(7)
            b = soak.run_trial(7)
        # Timing-dependent fields (recovery, refusals) may wobble; the
        # seeded workload and fault schedule must not.
        assert a.events == b.events
        assert a.faults_injected == b.faults_injected
        assert a.ok and b.ok

    def test_forced_disk_faults_produce_accounted_refusals(self):
        # Every trial gets a tiny ENOSPC budget: refusals are certain,
        # and every one of them must land in the server's ledger.
        soak = ChaosSoak(
            trace_kwargs=SMALL,
            disk_fault_rate=1.0,
            storm_rate=0.0,
            fault_fs_factory=lambda seed: FaultFS(
                enospc_after_bytes=700, partial_writes=seed % 2 == 0
            ),
        )
        with soak:
            summary = soak.run(trials=4, base_seed=100)
        assert summary["ok"], summary["seeds_with_violations"]
        assert summary["refusals_observed"] > 0
        assert summary["refusals_accounted"] >= summary["refusals_observed"]

    def test_duration_box_stops_the_soak(self):
        with ChaosSoak(trace_kwargs=SMALL) as soak:
            summary = soak.run(duration=0.0, base_seed=0)
        assert summary["trials"] == 1  # at least one trial always runs

    def test_stop_on_violation_with_broken_rung_catches_within_50_trials(
        self, monkeypatch
    ):
        # THE sensitivity test: sabotage one rung of the refusal ledger
        # (resource-pressure refusals are sent to the client but no
        # longer counted) and the soak must notice — within 50 trials,
        # in practice on the first trial that trips ENOSPC.
        monkeypatch.setattr(ResourceGovernor, "note_refused", lambda self: None)
        soak = ChaosSoak(
            trace_kwargs=SMALL,
            disk_fault_rate=1.0,
            storm_rate=0.0,
            fault_fs_factory=lambda seed: FaultFS(enospc_after_bytes=700),
        )
        with soak:
            summary = soak.run(trials=50, base_seed=0, stop_on_violation=True)
        assert not summary["ok"]
        assert summary["trials"] <= 50
        first_bad = summary["seeds_with_violations"][0]
        assert first_bad < 50

    def test_ignored_register_is_caught_within_50_trials(self, monkeypatch):
        # Sensitivity of the drop invariant: the daemon silently ignores
        # one REGISTER frame, so the events of those instances are
        # discarded as unknown — the soak must say so.
        original = ProfilingDaemon._register
        ignored: list[str] = []

        def register_ignoring_one(self, session, payload):
            if not ignored:
                ignored.append(session.session_id)
                return
            original(self, session, payload)

        monkeypatch.setattr(ProfilingDaemon, "_register", register_ignoring_one)
        violations: list[str] = []

        def progress(result):
            violations.extend(result.violations)

        with ChaosSoak(trace_kwargs=SMALL) as soak:
            summary = soak.run(
                trials=50, base_seed=0, progress=progress, stop_on_violation=True
            )
        assert ignored
        assert not summary["ok"]
        assert any(v.startswith("silent drop") for v in violations), violations

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ChaosSoak(backend="cloud")


@pytest.mark.slow
class TestFleetSoak:
    def test_single_fleet_trial_holds_invariants(self):
        soak = ChaosSoak(
            backend="fleet",
            fleet_workers=2,
            fleet_sessions=2,
            trace_kwargs=SMALL,
        )
        with soak:
            result = soak.run_trial(3)
        assert result.ok, result.violations
        assert result.backend == "fleet"
        assert result.sessions == 2
        assert result.events > 0


class TestCli:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "chaos", *argv],
            capture_output=True, text=True, cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )

    def test_exit_zero_and_machine_readable_summary(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        proc = self._run("--trials", "2", "--seed", "11", "--ledger", str(ledger))
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout)  # stdout is the JSON summary
        assert summary["ok"] and summary["trials"] == 2
        assert len(ledger.read_text().splitlines()) == 2
        assert "chaos soak (inproc): 2 trials" in proc.stderr
