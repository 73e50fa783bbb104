"""Microbenchmarks: the cost of the pieces.

Not a paper table — these quantify the substrate itself: per-event
recording overhead (the source of Table IV's slowdown column), channel
throughput, detector and engine throughput, and the simulated machine.
pytest-benchmark runs these with many rounds, so they are the one place
timings are statistically meaningful.
"""

from __future__ import annotations

import pytest

from repro.events import (
    AccessKind,
    EventCollector,
    OperationKind,
    StructureKind,
    collecting,
)
from repro.parallel import MachineConfig, SimulatedMachine
from repro.patterns import PatternDetector
from repro.structures import TrackedList
from repro.usecases import UseCaseEngine

N = 5_000


class TestRecordingCosts:
    def test_plain_list_append_baseline(self, benchmark):
        def run():
            xs = []
            for i in range(N):
                xs.append(i)
            return xs

        assert len(benchmark(run)) == N

    def test_tracked_list_append(self, benchmark):
        def run():
            with collecting():
                xs = TrackedList()
                for i in range(N):
                    xs.append(i)
            return xs

        assert len(benchmark(run)) == N

    def test_tracked_list_read(self, benchmark):
        with collecting():
            xs = TrackedList(range(N))

            def run():
                total = 0
                for i in range(N):
                    total += xs[i]
                return total

            assert benchmark(run) == sum(range(N))

    def test_collector_record_raw(self, benchmark):
        collector = EventCollector()
        iid = collector.register_instance(StructureKind.LIST)

        def run():
            for i in range(N):
                collector.record(
                    iid, OperationKind.READ, AccessKind.READ, i % 50, 50
                )

        benchmark(run)


class TestAnalysisThroughput:
    @pytest.fixture(scope="class")
    def big_profile(self):
        with collecting():
            xs = TrackedList()
            for round_ in range(10):
                for i in range(2_000):
                    xs.append(i)
                for i in range(len(xs)):
                    _ = xs[i]
                xs.clear()
            return xs.profile()

    def test_detector_throughput(self, benchmark, big_profile):
        detector = PatternDetector()
        analysis = benchmark(lambda: detector.detect(big_profile))
        assert len(analysis.patterns) == 20

    def test_engine_throughput(self, benchmark, big_profile):
        engine = UseCaseEngine()
        cases = benchmark(lambda: engine.analyze_profile(big_profile))
        assert cases  # LI fires

    def test_vectorized_views(self, benchmark, big_profile):
        def run():
            big_profile._arrays = None  # force rebuild
            return big_profile.positions.sum()

        benchmark(run)


class TestMachineModelCost:
    def test_makespan_large(self, benchmark):
        machine = SimulatedMachine(MachineConfig(cores=8))
        costs = [float((i * 37) % 1000 + 1) for i in range(2_000)]
        result = benchmark(lambda: machine.makespan(costs))
        assert result > 0


class TestOverheadBudget:
    """The 100k-event overhead benchmark that feeds the CI gate.

    One real run of :func:`benchmarks.overhead.run_overhead_benchmark`,
    shared by all assertions; the JSON document is saved next to the
    other benchmark artifacts so a CI job can upload and gate on it.
    """

    @pytest.fixture(scope="class")
    def overhead_doc(self):
        from benchmarks.overhead import run_overhead_benchmark

        return run_overhead_benchmark(events=100_000, repeats=3)

    def test_doc_saved_for_ci_gate(self, overhead_doc, results_dir):
        import json

        from benchmarks.conftest import save_result
        from repro.bench import SCHEMA_VERSION

        save_result(
            results_dir, "overhead.json", json.dumps(overhead_doc, indent=2)
        )
        assert overhead_doc["schema"] == SCHEMA_VERSION
        assert overhead_doc["events"] == 100_000

    def test_batching_is_near_plain_append(self, overhead_doc):
        # The machine-normalized metric the CI gate tracks: batched
        # posting costs a small constant factor over a plain
        # list.append.  Generous bound — the checked-in baseline is
        # ~3x; 8x means the fast path grew real per-event work.
        assert overhead_doc["derived"]["batching_vs_plain"] < 8.0

    def test_sampling_stays_on_budget(self, overhead_doc):
        recording = overhead_doc["recording"]
        # Sampling's payoff is the 90% cut in downstream volume
        # (materialization, analysis, spill, memory), not the record
        # call itself: admit() costs about what the skipped batched
        # post would have.  Guard that the admit check never becomes a
        # per-event regression of its own.
        full = recording["batching"]["per_event_ns"]
        assert recording["batching_decimate10"]["per_event_ns"] <= full * 1.5
        assert recording["batching_burst1000_10"]["per_event_ns"] <= full * 1.5
