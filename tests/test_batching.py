"""Tests for the low-overhead recording pipeline: batching channel,
sampling policies, spill format, and the CI overhead gate."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.events import (
    AccessKind,
    BatchingChannel,
    Burst,
    EventCollector,
    OperationKind,
    SpillWriter,
    StructureKind,
    collecting,
    iter_spill_events,
    read_spill_raw,
)
from repro.cli import build_parser, sampling_policy
from repro.events.sampling import _jitter
from repro.structures import TrackedList
from repro.usecases import UseCaseEngine
from repro.workloads import EVALUATION_WORKLOADS

REPO_ROOT = Path(__file__).resolve().parent.parent


def raw(instance_id: int, position: int, thread_id: int = 0):
    return (
        instance_id,
        int(OperationKind.READ),
        int(AccessKind.READ),
        position,
        1000,
        thread_id,
        None,
    )


class TestBatchingChannel:
    def test_flush_on_drain_preserves_order(self):
        channel = BatchingChannel(batch_size=64)
        for i in range(10_000):
            channel.post(raw(1, i))
        events = channel.drain()
        assert [r[3] for r in events] == list(range(10_000))

    def test_drain_is_idempotent_and_closes(self):
        channel = BatchingChannel()
        channel.post(raw(1, 0))
        assert len(channel.drain()) == 1
        assert len(channel.drain()) == 1
        with pytest.raises(RuntimeError, match="drained"):
            channel.post(raw(1, 1))

    def test_snapshot_sees_everything_posted_before_it(self):
        channel = BatchingChannel()
        produce = channel.producer()
        for i in range(5_000):
            produce(raw(1, i))
        snap = channel.snapshot()
        assert len(snap) == 5_000
        for i in range(5_000, 6_000):
            produce(raw(1, i))
        assert len(channel.drain()) == 6_000

    def test_multithread_interleaving_keeps_per_thread_order(self):
        channel = BatchingChannel(flush_interval=0.001)

        def worker(tid: int, count: int) -> None:
            produce = channel.producer()
            for i in range(count):
                produce(raw(tid, i, thread_id=tid))

        threads = [
            threading.Thread(target=worker, args=(tid, 5_000)) for tid in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        events = channel.drain()
        assert len(events) == 20_000
        for tid in range(4):
            positions = [r[3] for r in events if r[0] == tid]
            assert positions == list(range(5_000))

    def test_block_policy_raises_when_pipeline_is_wedged(self):
        channel = BatchingChannel(
            max_buffered=100,
            flush_interval=0.001,
            block_timeout=0.2,
        )
        produce = channel.producer()
        with pytest.raises(RuntimeError, match="backpressure"):
            for i in range(100_000):
                produce(raw(1, i))
        channel.drain()

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            BatchingChannel(batch_size=0)
        with pytest.raises(ValueError, match="max_buffered"):
            BatchingChannel(max_buffered=0)

    def test_collector_integration(self):
        with collecting(channel=BatchingChannel()) as session:
            xs = TrackedList(label="batched")
            for i in range(500):
                xs.append(i)
            for i in range(500):
                _ = xs[i]
        profile = session.profiles_by_label()["batched"]
        # 500 appends + 500 reads + the construction event
        assert len(profile) == 1_001


class TestSpill:
    def test_spill_roundtrip_equals_in_memory_capture(self, tmp_path):
        events = [raw(7, i) for i in range(20_000)]
        memory = BatchingChannel()
        spilled = BatchingChannel(spill=tmp_path / "capture.spill")
        for channel in (memory, spilled):
            produce = channel.producer()
            for r in events:
                produce(r)
        assert spilled.drain() == memory.drain() == events

    def test_spill_preserves_none_position_and_wall_time(self, tmp_path):
        path = tmp_path / "x.spill"
        rows = [
            (1, int(OperationKind.CLEAR), int(AccessKind.WRITE), None, 0, 0, None),
            (2, int(OperationKind.READ), int(AccessKind.READ), 5, 10, 1, 0.25),
        ]
        with SpillWriter(path) as writer:
            writer.write_batch(rows)
        assert read_spill_raw(path) == rows

    def test_spill_reader_rehydrates_access_events(self, tmp_path):
        path = tmp_path / "x.spill"
        with SpillWriter(path) as writer:
            writer.write_batch([raw(3, i) for i in range(10)])
        events = list(iter_spill_events(path))
        assert [e.position for e in events] == list(range(10))
        assert [e.seq for e in events] == list(range(10))
        assert events[0].op is OperationKind.READ

    def test_spill_reader_tolerates_truncated_tail(self, tmp_path):
        path = tmp_path / "x.spill"
        with SpillWriter(path) as writer:
            writer.write_batch([raw(1, i) for i in range(5)])
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        assert len(read_spill_raw(path)) == 4

    def test_cli_spill_alone_writes_every_event(self, tmp_path, capsys):
        from repro.cli import main

        program = tmp_path / "prog.py"
        program.write_text(
            "def main():\n"
            "    xs = []\n"
            "    for i in range(300):\n"
            "        xs.append(i)\n"
            "    return sum(xs[i] for i in range(300))\n",
            encoding="utf-8",
        )
        spill = tmp_path / "x.spill"
        rc = main(["analyze", str(program), "--entry", "main", "--spill", str(spill)])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"raw events spilled to {spill}" in out
        recorded = int(re.search(r"(\d+) access events", out).group(1))
        assert recorded >= 600
        assert len(read_spill_raw(spill)) == recorded


def _sample_choices() -> tuple[str, ...]:
    """The ``--sample`` values ``dsspy analyze`` accepts."""
    analyze = build_parser()._subparsers._group_actions[0].choices["analyze"]
    (action,) = [a for a in analyze._actions if a.dest == "sample"]
    return tuple(action.choices)


#: Every sampled ``--sample`` value, read from the parser so that a value
#: added later cannot skip the fidelity gate.
SAMPLED_CHOICES = tuple(c for c in _sample_choices() if sampling_policy(c) is not None)


class TestSamplingPolicies:
    def test_decimate_rate_is_exactly_one_in_n(self):
        # Past the burst, the tail keeps exactly 1 event in every 10.
        policy = Burst(100, 10)
        admitted = sum(policy.admit(1) for _ in range(10_100))
        assert admitted == 100 + 1_000

    def test_decimate_counts_per_instance(self):
        policy = Burst(5, 10)
        for _ in range(100):
            policy.admit(1)
        assert sum(policy.admit(2) for _ in range(15)) == 5 + 1

    def test_decimate_jitter_breaks_phase_alignment(self):
        # A period-2 op stream strided 1-in-10 would capture only one
        # phase; the jittered tail must admit both parities.
        policy = Burst(100, 10)
        parities = {i % 2 for i in range(10_100) if policy.admit(1) and i >= 100}
        assert parities == {0, 1}

    def test_burst_keeps_first_k_exactly_then_decimates(self):
        policy = Burst(100, 10)
        flags = [policy.admit(1) for _ in range(1_100)]
        assert all(flags[:100])
        assert sum(flags[100:]) == 100
        assert not policy.is_exact(1)
        assert policy.exact_prefix(1) == 100

    def test_burst_tail_keeps_its_jitter(self):
        # One instance's admitted tail events, pinned: a change to the
        # jitter hash would move every sampled report.
        policy = Burst(1_000, 10)
        admitted = [c for c in range(1_060) if policy.admit(3)]
        assert admitted[1_000:] == [1002, 1017, 1024, 1039, 1046, 1051]

    def test_burst_small_instances_are_exact(self):
        policy = Burst(100, 10)
        assert all(policy.admit(5) for _ in range(100))
        assert policy.is_exact(5)
        assert policy.exact_prefix(5) == 0

    def test_parse_sampling_specs(self, capsys):
        parser = build_parser()
        assert _sample_choices() == ("all", "burst:1000/10")
        assert sampling_policy("all") is None
        burst = sampling_policy("burst:1000/10")
        assert (burst.keep, burst.n) == (1000, 10)
        assert burst.describe() == "burst:1000/10"
        # Any other spelling, 1-in-N decimation under either name
        # included, is an argparse error, and so is --sample-seed.
        for argv in (
            ["--sample", "1/10"],
            ["--sample", "1:10"],
            ["--sample", "burst:0/10"],
            ["--sample", "burst:100/10"],
            ["--sample", "full"],
            ["--sample", "1/1"],
            ["--sample-seed", "7"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args(["analyze", "prog.py", *argv])
            assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("keep", [0, 1, 7, 100])
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 64])
    @pytest.mark.parametrize("extra_iid", [None, 0, 5])
    def test_admitted_sets_equal_the_per_event_jitter_formula(
        self, keep, n, extra_iid
    ):
        """Admission hashes once per block, yet admits exactly the
        events of the per-event rule: offset ``(c - keep) % n`` equals
        the block's jitter.  ``extra_iid`` interleaves one more instance
        (none, the zero id, or a small id) so the instance term of the
        hash is checked at more than the fixed ids."""

        def reference(iid, total):
            admitted = []
            for c in range(total):
                block, offset = divmod(c - keep, n)
                if c < keep or offset == _jitter(block, iid, n):
                    admitted.append(c)
            return admitted

        policy = Burst(keep, n)
        totals = {1: 1_000, 2: 377, 99: keep + 1}
        if extra_iid is not None:
            totals[extra_iid] = 251
        seen = {iid: [] for iid in totals}
        counters = dict.fromkeys(totals, 0)
        # Interleave the instances: each one's counter is its own.
        for step in range(max(totals.values())):
            for iid, total in totals.items():
                if step < total:
                    if policy.admit(iid):
                        seen[iid].append(counters[iid])
                    counters[iid] += 1
        for iid, total in totals.items():
            assert seen[iid] == reference(iid, total)
            assert policy.observed(iid) == total

    def test_collector_counts_sampled_out_events(self):
        collector = EventCollector(sampling=Burst(100, 10))
        iid = collector.register_instance(StructureKind.LIST)
        for i in range(1_100):
            collector.record(iid, OperationKind.READ, AccessKind.READ, i, 1_100)
        assert collector.sampled_out == 900
        assert len(collector.finish()[iid]) == 200


def _use_cases(collector) -> set[tuple[str, object]]:
    return {
        (u.profile.label, u.kind)
        for u in UseCaseEngine().analyze_collector(collector).use_cases
    }


class TestSamplingDetectionFidelity:
    """Every ``--sample`` value the CLI accepts must find the same use
    cases as full capture, with all rules, on the Table V workloads at
    Table IV's scale (0.5) and at the e2e programs' scale (1.0)."""

    @pytest.mark.parametrize("spec", SAMPLED_CHOICES)
    @pytest.mark.parametrize("scale", [0.5, 1.0])
    @pytest.mark.parametrize(
        "workload", EVALUATION_WORKLOADS, ids=lambda w: w.name
    )
    def test_burst_sampling_matches_full_capture(self, workload, scale, spec):
        with collecting() as full:
            workload.run_tracked(scale=scale)
        with collecting(sampling=sampling_policy(spec)) as sampled:
            workload.run_tracked(scale=scale)
        assert sampled.sampled_out > 0
        assert _use_cases(sampled) == _use_cases(full)

    def test_decimation_matches_full_capture_on_synthetic_usecases(self):
        from repro.workloads.generators import (
            gen_frequent_long_read,
            gen_long_insert,
        )

        for generator in (gen_frequent_long_read, gen_long_insert):
            with collecting() as full:
                generator(label="g")
            # A short burst, so the generated instance's tail is decimated.
            policy = Burst(100, 10)
            with collecting(sampling=policy) as sampled:
                generator(label="g")
            assert not policy.is_exact(sampled.profiles_by_label()["g"].instance_id)
            full_kinds = {kind for _, kind in _use_cases(full)}
            assert full_kinds
            assert {kind for _, kind in _use_cases(sampled)} == full_kinds

    def test_for_sampling_recalibrates_detector_and_thresholds(self):
        engine = UseCaseEngine.for_sampling(Burst(1_000, 10))
        assert engine.detector.config.max_gap == 19
        assert engine.thresholds.li_long_phase == 10
        # pattern counts and positional spans deliberately don't scale
        assert engine.thresholds.flr_min_patterns == 10
        assert engine.thresholds.flr_min_pattern_span == 8


class TestOverheadGate:
    def _doc(self, value: float) -> dict:
        # Both gated metrics move together here, so a regression in
        # either would trip the gate.
        return {
            "schema": 2,
            "derived": {"batching_vs_plain": value, "remote_vs_plain": value},
            "channels": {},
        }

    def _run_gate(self, tmp_path, current: float, baseline: float) -> int:
        current_path = tmp_path / "current.json"
        baseline_path = tmp_path / "baseline.json"
        current_path.write_text(json.dumps(self._doc(current)))
        baseline_path.write_text(json.dumps(self._doc(baseline)))
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "examples" / "ci_gate.py"),
                "--overhead",
                str(current_path),
                "--baseline",
                str(baseline_path),
                "--max-regression",
                "0.25",
            ],
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True,
            text=True,
        )
        return proc.returncode

    def test_gate_passes_at_baseline(self, tmp_path):
        assert self._run_gate(tmp_path, current=3.0, baseline=3.0) == 0

    def test_gate_fails_on_injected_2x_regression(self, tmp_path):
        assert self._run_gate(tmp_path, current=6.0, baseline=3.0) == 1

    def test_gate_allows_regression_inside_budget(self, tmp_path):
        assert self._run_gate(tmp_path, current=3.6, baseline=3.0) == 0
