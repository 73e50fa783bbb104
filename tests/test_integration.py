"""Integration tests: whole-pipeline scenarios across modules.

These exercise the seams unit tests don't: multithreaded capture →
per-thread detection, selective profiling, capture → persist → mine,
detect → auto-transform, and the batching channel under the full pipeline.
"""

from __future__ import annotations

import textwrap
import threading

from repro.events import collecting, read_profiles, save_collector
from repro.instrument import run_instrumented, transform_source
from repro.patterns import PatternType, detect
from repro.structures import TrackedList, TrackedQueue
from repro.usecases import UseCaseEngine, UseCaseKind
from repro.viz import render_thread_lanes, thread_interleaving_ratio


class TestMultithreadedCapture:
    """The paper: 'We want to be able to support single- and
    multithreaded code so we are aware of access events that occur in
    parallel' (§IV)."""

    def _two_thread_profile(self):
        with collecting() as session:
            xs = TrackedList(range(64), label="shared")
            barrier = threading.Barrier(2)

            def forward():
                barrier.wait()
                for _ in range(3):
                    for i in range(len(xs)):
                        _ = xs[i]

            def backward():
                barrier.wait()
                for _ in range(3):
                    for i in range(len(xs) - 1, -1, -1):
                        _ = xs[i]

            threads = [
                threading.Thread(target=forward),
                threading.Thread(target=backward),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        return session.profiles_by_label()["shared"]

    def test_per_thread_patterns_recovered(self):
        profile = self._two_thread_profile()
        assert profile.is_multithreaded
        analysis = detect(profile)
        directions = {
            p.thread_id: set()
            for p in analysis.patterns
            if p.pattern_type is not PatternType.UNCLASSIFIED
        }
        for p in analysis.patterns:
            if p.pattern_type in (
                PatternType.READ_FORWARD,
                PatternType.READ_BACKWARD,
            ):
                directions[p.thread_id].add(p.pattern_type)
        # Each worker thread shows a single, consistent scan direction.
        per_thread = [d for d in directions.values() if d]
        assert {PatternType.READ_FORWARD} in per_thread
        assert {PatternType.READ_BACKWARD} in per_thread

    def test_thread_lane_rendering(self):
        profile = self._two_thread_profile()
        text = render_thread_lanes(profile, width=60)
        assert "threads" in text
        assert text.count("|") >= 4  # at least two lanes
        assert 0.0 <= thread_interleaving_ratio(profile) <= 1.0

    def test_split_by_thread_totals(self):
        profile = self._two_thread_profile()
        parts = profile.split_by_thread()
        assert sum(len(p) for p in parts.values()) == len(profile)


class TestSelectiveProfiling:
    """The paper's second usage mode: 'An engineer can use DSspy as a
    selective profiler that only analyzes instances that he manually
    instrumented before' (§IV)."""

    def test_only_wrapped_instances_profiled(self):
        with collecting() as session:
            hot = TrackedList(label="suspect")
            cold = list(range(1000))  # plain: invisible to DSspy
            for i in range(300):
                hot.append(cold[i % 1000])
        assert session.instance_count == 1
        report = UseCaseEngine().analyze_collector(session)
        assert {u.kind for u in report.use_cases} == {UseCaseKind.LONG_INSERT}


class TestCaptureToArchiveToMine:
    def test_full_decoupled_workflow(self, tmp_path):
        # Capture on "machine A" ...
        source = textwrap.dedent(
            """
            def main():
                log = []
                for i in range(400):
                    log.append(i)
                hits = 0
                for _ in range(15):
                    for i in range(len(log)):
                        if log[i] % 7 == 0:
                            hits += 1
                return hits
            """
        )
        run = run_instrumented(source, entry="main")
        archive = save_collector(run.collector, tmp_path / "capture.jsonl")

        # ... mine on "machine B" from the archive alone.
        profiles = read_profiles(archive)
        report = UseCaseEngine().analyze(profiles)
        kinds = {u.kind for u in report.use_cases}
        assert UseCaseKind.FREQUENT_LONG_READ in kinds
        site = report.use_cases[0].site
        assert site is not None and site.function == "main"


class TestDetectThenTransform:
    def test_li_detection_drives_the_transform(self):
        """End of the paper's loop: DSspy flags a Long-Insert, the
        autotransformer parallelizes exactly that loop, results agree."""
        source = textwrap.dedent(
            """
            def build():
                samples = []
                for i in range(500):
                    samples.append(i * 3 + 1)
                return samples
            """
        )
        # 1. DSspy finds the Long-Insert.
        run = run_instrumented(source, entry="build")
        report = UseCaseEngine().analyze(run.profiles)
        assert any(
            u.kind is UseCaseKind.LONG_INSERT for u in report.use_cases
        )

        # 2. The transform rewrites the flagged loop.
        transformed, transform_report = transform_source(source)
        assert transform_report.count == 1

        # 3. The parallel version computes the same list.
        namespace: dict = {}
        exec(compile(transformed, "<t>", "exec"), namespace)
        assert namespace["build"]() == run.result


class TestBatchingPipeline:
    def test_batching_channel_end_to_end(self):
        from repro.events import BatchingChannel, EventCollector, pop_collector, push_collector

        collector = EventCollector(channel=BatchingChannel())
        push_collector(collector)
        try:
            xs = TrackedList(label="batched")
            for i in range(2000):
                xs.append(i)
        finally:
            pop_collector()
        collector.finish()
        report = UseCaseEngine().analyze_collector(collector)
        assert {u.kind for u in report.use_cases} == {UseCaseKind.LONG_INSERT}
        profile = collector.profiles_by_label()["batched"]
        assert list(profile.seqs) == list(range(len(profile)))


class TestQueueMigration:
    def test_recommendation_round_trip(self):
        """Implement-Queue fires on the list; after migrating to the
        real queue type, the diagnosis disappears."""
        engine = UseCaseEngine()
        with collecting():
            as_list = TrackedList()
            for i in range(120):
                as_list.append(i)
            drained = []
            while len(as_list):
                drained.append(as_list.pop(0))
            before = engine.analyze_profile(as_list.profile())
        assert any(u.kind is UseCaseKind.IMPLEMENT_QUEUE for u in before)
        assert drained == list(range(120))

        with collecting():
            as_queue = TrackedQueue()
            for i in range(120):
                as_queue.enqueue(i)
            drained2 = []
            while len(as_queue):
                drained2.append(as_queue.dequeue())
            after = engine.analyze_profile(as_queue.profile())
        assert not any(u.kind is UseCaseKind.IMPLEMENT_QUEUE for u in after)
        assert drained2 == drained
