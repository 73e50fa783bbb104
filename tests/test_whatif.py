"""What-if profiler tests: work/span property tests against the
brute-force DAG oracle, degenerate-case laws, lane-summary round trips,
prediction semantics, and the golden measured-vs-predicted differential
on the Table V workloads."""

import os

import pytest

from repro.eval.speedup_eval import (
    WHATIF_TOLERANCE,
    run_whatif_validation,
)
from repro.events.types import StructureKind
from repro.parallel.machine import MachineConfig, SimulatedMachine
from repro.parallel.transforms import execute_transform, transform_ways
from repro.service.streaming import StreamingUseCaseEngine
from repro.testing.traces import generate_trace
from repro.usecases.features import InstanceFold
from repro.whatif import (
    LaneSummary,
    WorkSpan,
    longest_path_span,
    potential_speedup,
)

from .reference_analysis import reference_lane_feed

_READ_KIND = 0  # AccessKind.READ == 0 is asserted below; traces use ints


def _span_by_fold(events):
    """events: [(tid, is_read)] -> work/span via the analysis fold."""
    fold = InstanceFold(0, StructureKind.LIST, None, "", 1)
    code = {True: 0, False: 1}  # READ / WRITE, as both op and access kind
    fold.fold_raws([(0, code[r], code[r], None, 0, tid, None) for tid, r in events])
    return fold.lanes.workspan()


class TestFoldVsBruteForce:
    """The O(1)-per-event fold must equal the O(n^2)-edge longest-path
    DP over the materialized happens-before DAG."""

    def test_access_kind_read_value(self):
        from repro.events.types import AccessKind

        assert int(AccessKind.READ) == _READ_KIND

    @pytest.mark.parametrize("seed", range(30))
    def test_random_traces_match_oracle(self, seed):
        trace = generate_trace(
            seed, max_instances=4, max_segments=5, max_segment_events=40
        )
        # The interleaved trace goes through the streaming engine, whose
        # per-instance folds carry the lane summaries.
        engine = StreamingUseCaseEngine()
        for inst in trace.instances:
            engine.register_instance(inst.instance_id, inst.kind)
        engine.feed_window(trace.events)
        workspans = engine.workspans()
        checked = 0
        for inst in trace.instances:
            raws = trace.events_of(inst.instance_id)
            if not raws:
                continue
            # raw = (iid, op, kind, position, size, thread_id, wall)
            events = [(raw[5], raw[2] == _READ_KIND) for raw in raws]
            ws = workspans[inst.instance_id]
            assert ws.work == float(len(events))
            assert ws.span == longest_path_span(events), (
                f"seed {seed} instance {inst.instance_id}"
            )
            checked += 1
        assert checked > 0 or not trace.events

    @pytest.mark.parametrize("seed", range(10))
    def test_random_mixed_streams_match_oracle(self, seed):
        import random

        rng = random.Random(seed * 7919 + 13)
        events = [
            (rng.randrange(4), rng.random() < 0.6) for _ in range(rng.randrange(1, 120))
        ]
        assert _span_by_fold(events).span == longest_path_span(events)


class TestDegenerateLaws:
    def test_single_thread_speedup_is_one(self):
        events = [(0, i % 3 != 0) for i in range(100)]
        ws = _span_by_fold(events)
        assert ws.span == ws.work == 100.0
        for k in (1, 2, 8, 64):
            assert potential_speedup(ws.work, ws.span, k) == 1.0

    def test_independent_read_lanes_approach_k(self):
        k, per_lane = 4, 50
        events = []
        for i in range(per_lane):
            for tid in range(k):
                events.append((tid, True))
        ws = _span_by_fold(events)
        assert ws.work == float(k * per_lane)
        assert ws.span == float(per_lane)
        assert potential_speedup(ws.work, ws.span, k) == pytest.approx(k)
        # More cores than lanes cannot beat the lane count.
        assert potential_speedup(ws.work, ws.span, 2 * k) == pytest.approx(k)

    def test_writes_serialize_across_threads(self):
        events = [(tid, False) for tid in (0, 1, 2, 3) * 25]
        ws = _span_by_fold(events)
        assert ws.span == ws.work  # every write orders after the previous
        assert potential_speedup(ws.work, ws.span, 8) == 1.0

    def test_empty_stream(self):
        ws = LaneSummary().workspan()
        assert ws.work == 0.0 and ws.span == 0.0
        assert potential_speedup(ws.work, ws.span, 8) == 1.0

    def test_potential_speedup_rejects_bad_cores(self):
        with pytest.raises(ValueError):
            potential_speedup(10.0, 5.0, 0)


class TestLaneSummary:
    def test_round_trip(self):
        lanes = LaneSummary()
        import random

        rng = random.Random(42)
        for _ in range(200):
            reference_lane_feed(lanes, rng.randrange(3), rng.random() < 0.5)
        clone = LaneSummary.from_dict(lanes.to_dict())
        assert clone == lanes
        # The restored summary keeps folding identically.
        for args in ((0, True), (2, False), (1, True)):
            reference_lane_feed(lanes, *args)
            reference_lane_feed(clone, *args)
        assert clone == lanes and clone.span == lanes.span

    def test_missing_dict_yields_empty(self):
        lanes = LaneSummary.from_dict(None)
        assert lanes.work == 0 and lanes.span == 0.0


class TestPrediction:
    def test_sequential_kind_predicts_one(self):
        from repro.events.collector import collecting
        from repro.usecases import UseCaseEngine
        from repro.whatif import annotate_report
        from repro.workloads import workload_by_name

        # Algorithmia's stack demo flags Stack-Implementation — advice
        # with no parallel potential.
        with collecting() as session:
            workload_by_name("Algorithmia").run_tracked(scale=1.0)
        report = UseCaseEngine().analyze_collector(session)
        machine = SimulatedMachine(MachineConfig(cores=8))
        annotated = annotate_report(report, machine)
        sequential = [u for u in annotated.use_cases if not u.parallel]
        assert sequential, "expected a sequential-advice use case"
        assert all(u.predicted_speedup == 1.0 for u in sequential)

    def test_transform_ways_caps(self):
        assert transform_ways(1000.0, None, 8) == 8
        assert transform_ways(1000.0, 2, 8) == 2
        assert transform_ways(3.0, None, 8) == 3
        assert transform_ways(0.0, None, 8) == 1


class TestExecutedTransform:
    def test_real_execution_matches_sequential(self):
        from repro.events.collector import collecting
        from repro.usecases import UseCaseEngine
        from repro.usecases.rules import PARALLEL_RULES
        from repro.workloads import workload_by_name

        with collecting() as session:
            workload_by_name("Mandelbrot").run_tracked(scale=1.0)
        report = UseCaseEngine(rules=PARALLEL_RULES).analyze_collector(session)
        top = next(u for u in report.use_cases if u.parallel)
        machine = SimulatedMachine(MachineConfig(cores=8))
        executed = execute_transform(top, machine)
        assert executed.matches_sequential
        assert executed.ways >= 1
        assert sum(executed.chunk_sizes) == max(
            int(round(executed.region.work)), 1
        )
        assert executed.speedup > 1.0


class TestMeasuredVsPredicted:
    """The golden differential: on every Table V workload the measured
    speedup of the executed top-ranked transform must land within the
    committed tolerance band of the analytic prediction."""

    def test_shape_and_determinism(self):
        rows = run_whatif_validation()
        assert len(rows) == 7
        again = run_whatif_validation()
        assert [(r.workload, r.predicted) for r in rows] == [
            (r.workload, r.predicted) for r in again
        ]

    def test_all_workloads_within_band(self):
        cores = os.cpu_count() or 1
        if cores < 4:
            pytest.skip(
                f"SKIPPED LOUDLY: measured-vs-predicted gate needs >= 4 "
                f"cores for a meaningful parallel rehearsal, this box has "
                f"{cores} (mirrors the fleet_4w_vs_1w floor rule)"
            )
        rows = run_whatif_validation()
        offenders = [
            f"{r.workload}: predicted {r.predicted:.2f} vs measured "
            f"{r.measured:.2f} (err {r.relative_error:.1%}, "
            f"band {WHATIF_TOLERANCE:.0%}, "
            f"matches_sequential={r.matches_sequential})"
            for r in rows
            if not r.within_band
        ]
        assert not offenders, "\n".join(offenders)

    def test_band_math_is_honest(self):
        ws = WorkSpan(work=100.0, span=100.0)
        assert ws.parallelism == 1.0
        # A row exactly at the band edge is within; just past is not.
        from repro.eval.speedup_eval import WhatIfRow

        edge = WhatIfRow("w", "u", 2.0, 2.0 * (1 + WHATIF_TOLERANCE), True)
        past = WhatIfRow("w", "u", 2.0, 2.0 * (1 + WHATIF_TOLERANCE) + 0.01, True)
        mismatch = WhatIfRow("w", "u", 2.0, 2.0, False)
        assert edge.within_band
        assert not past.within_band
        assert not mismatch.within_band
