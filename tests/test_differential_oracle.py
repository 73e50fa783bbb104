"""Differential-correctness trials: batch vs streaming vs daemon.

Every trial here is a :class:`~repro.testing.chaos.ChaosSoak` trial with
disk, storm and upgrade faults switched off: one seeded trace, one
seeded network-fault plan, and the assertion that the batch engine,
the streaming engine and a faulted daemon round trip agree exactly.
The fast tests run a few dozen of them with the full fault vocabulary;
the 500-trial acceptance sweep is marked ``slow`` (locally:
``pytest -m slow tests/test_differential_oracle.py``).

The harness must not just pass on correct code — it must *fail* on
broken code.  ``TestOracleCatchesRealBugs`` deliberately breaks the
daemon's overlap dedup, or the streaming path, and asserts the soak
notices within a bounded number of trials, which is the evidence that
the passing runs mean something.
"""

from __future__ import annotations

import pytest

from repro.service.protocol import ProtocolError
from repro.service.session import Session
from repro.testing import (
    ChaosSoak,
    generate_trace,
    run_batch_path,
    run_streaming_path,
    summarize_report,
)

#: Network faults only: each trial is the plain differential check.
NETWORK_ONLY = dict(disk_fault_rate=0.0, storm_rate=0.0, upgrade_rate=0.0)


def _run_until_violation(soak, trials, base_seed=0):
    results = []
    for seed in range(base_seed, base_seed + trials):
        results.append(soak.run_trial(seed))
        if not results[-1].ok:
            break
    return results


class TestPathAgreementNoFaults:
    def test_batch_and_streaming_agree_over_many_seeds(self):
        for seed in range(40):
            trace = generate_trace(seed)
            batch = summarize_report(run_batch_path(trace))
            streaming = summarize_report(run_streaming_path(trace))
            assert batch == streaming, f"seed {seed}: {trace.describe()}"

    def test_window_size_does_not_matter(self):
        trace = generate_trace(11)
        reference = summarize_report(run_streaming_path(trace, window=64))
        for window in (1, 7, 128, 10_000):
            assert summarize_report(run_streaming_path(trace, window=window)) == (
                reference
            ), f"window {window}"

    def test_faultless_oracle_trials(self):
        with ChaosSoak(fault_intensity=0.0, **NETWORK_ONLY) as soak:
            results = [soak.run_trial(seed) for seed in range(10)]
        assert all(r.ok for r in results), [r.describe() for r in results]
        assert all(r.faults_injected == 0 for r in results)


class TestPathAgreementUnderFaults:
    def test_oracle_trials_with_full_fault_vocabulary(self):
        with ChaosSoak(fault_intensity=0.35, **NETWORK_ONLY) as soak:
            results = [soak.run_trial(seed) for seed in range(25)]
        failures = [r for r in results if not r.ok]
        assert not failures, "\n".join(r.describe() for r in failures)
        # The run must actually have exercised the fault machinery.
        assert sum(r.faults_injected for r in results) >= 10
        kinds = {f.kind for r in results for f in r.plan.injected}
        assert len(kinds) >= 4

    def test_trials_are_reproducible(self):
        with ChaosSoak(fault_intensity=0.35, **NETWORK_ONLY) as soak:
            first = soak.run_trial(3)
            second = soak.run_trial(3)
        assert first.ok and second.ok
        assert first.trace.events == second.trace.events
        assert first.plan.faults == second.plan.faults

    @pytest.mark.slow
    def test_acceptance_sweep_500_trials(self):
        """500 seeded trials through the fault proxy, zero divergence
        between the three paths, with the network-only ``dsspy chaos``
        settings CI runs."""
        with ChaosSoak(
            fault_intensity=0.25, max_faults=8, window=64, **NETWORK_ONLY
        ) as soak:
            summary = soak.run(trials=500, base_seed=0)
        assert summary["ok"], summary["seeds_with_violations"]
        assert summary["faults_injected"] >= 100


def _ingest_without_overlap_skip(self, start, raws, stage=0, data=None):
    """Session.ingest with the dedup rewind removed: retransmitted
    overlap is folded again instead of skipped."""
    with self._lock:
        if self.state == "finished":
            raise ProtocolError(f"session {self.session_id} already finished")
        if start > self.received:
            raise ProtocolError(
                f"event gap: window starts at {start} but only "
                f"{self.received} events were received"
            )
        self.received = max(self.received, start + len(raws))
        self.touch()
        self.pipeline.submit(raws)  # BUG: folds the overlap twice
        self.rate.tick(len(raws))
    return len(raws)


class TestOracleCatchesRealBugs:
    def test_broken_dedup_is_caught_within_50_trials(self, monkeypatch):
        monkeypatch.setattr(Session, "ingest", _ingest_without_overlap_skip)
        with ChaosSoak(
            fault_intensity=0.4, fault_kinds=("duplicate", "reset"), **NETWORK_ONLY
        ) as soak:
            results = _run_until_violation(soak, 50)
            first = results[-1]
            assert not first.ok, (
                "broken overlap dedup survived 50 duplicate/reset trials — "
                "the soak has lost its teeth"
            )
            assert any("chaos-daemon" in v for v in first.violations)
            # Failing trials shrink to something small to stare at.
            minimal = soak.shrink_failure(first, max_rounds=60)
            assert len(minimal.events) <= len(first.trace.events)
            assert not soak.run_trial(first.seed, minimal).ok

    def test_streaming_divergence_is_caught(self, monkeypatch):
        import repro.testing.chaos as chaos

        def one_instance_too_many(trace, window):
            report = run_streaming_path(trace, window=window)
            return {**report, "instances_analyzed": report["instances_analyzed"] + 1}

        monkeypatch.setattr(chaos, "run_streaming_path", one_instance_too_many)
        with ChaosSoak(fault_intensity=0.0, **NETWORK_ONLY) as soak:
            result = soak.run_trial(0)
        assert not result.ok
        assert any("streaming=" in v for v in result.violations)
        assert all("chaos-daemon" not in v for v in result.violations)

    def test_shrunk_failure_replays_with_same_seed(self, monkeypatch):
        monkeypatch.setattr(Session, "ingest", _ingest_without_overlap_skip)
        with ChaosSoak(
            fault_intensity=0.5, fault_kinds=("duplicate",), **NETWORK_ONLY
        ) as soak:
            failing = _run_until_violation(soak, 50, base_seed=100)[-1]
            assert not failing.ok
            # Replay is deterministic: same seed, same verdict.
            assert not soak.run_trial(failing.seed, failing.trace).ok
