"""StreamingUseCaseEngine must converge to the batch engine exactly."""

from __future__ import annotations

import pytest

from repro.events import EventCollector, collecting
from repro.service import StreamingUseCaseEngine
from repro.usecases import UseCaseEngine
from repro.workloads import EVALUATION_WORKLOADS, USE_CASE_GENERATORS

WINDOW = 256


def _raw(event):
    return (
        event.instance_id,
        int(event.op),
        int(event.kind),
        event.position,
        event.size,
        event.thread_id,
        event.wall_time,
    )


def _stream_collector(collector: EventCollector, window: int = WINDOW):
    """Replay a finished collector into a fresh streaming engine the way
    the daemon would see it: registrations first, then windowed events
    in global capture order."""
    engine = StreamingUseCaseEngine()
    profiles = collector.profiles()
    for profile in profiles:
        engine.register_instance(
            profile.instance_id, profile.kind, profile.site, profile.label
        )
    events = sorted(
        (event for profile in profiles for event in profile), key=lambda e: e.seq
    )
    batch: list = []
    for event in events:
        batch.append(_raw(event))
        if len(batch) >= window:
            engine.feed_window(batch)
            batch = []
    if batch:
        engine.feed_window(batch)
    return engine


def _signature(report):
    """Everything that defines a report: per-instance kinds + evidence."""
    return sorted(
        (u.instance_id, u.kind.abbreviation, tuple(sorted(u.evidence.items())))
        for u in report.use_cases
    )


class TestTableVEquivalence:
    @pytest.mark.parametrize("workload", EVALUATION_WORKLOADS, ids=lambda w: w.name)
    def test_streaming_matches_batch(self, workload):
        with collecting() as collector:
            workload.run_tracked(scale=0.5)
        batch_report = UseCaseEngine().analyze(collector.profiles())

        engine = _stream_collector(collector)
        streaming_report = engine.report()

        assert _signature(streaming_report) == _signature(batch_report)
        assert streaming_report.instances_analyzed == batch_report.instances_analyzed
        assert (
            streaming_report.search_space_reduction
            == batch_report.search_space_reduction
        )
        # The bounded-memory claim: the engine never held more than one
        # window of events at a time.
        assert engine.peak_resident_events <= WINDOW
        assert engine.events_folded == sum(len(p) for p in collector.profiles())


class TestGeneratorEquivalence:
    @pytest.mark.parametrize(
        "generator", USE_CASE_GENERATORS.values(), ids=USE_CASE_GENERATORS.keys()
    )
    def test_streaming_matches_batch(self, generator):
        with collecting() as collector:
            generator()
        batch_report = UseCaseEngine().analyze(collector.profiles())
        streaming_report = _stream_collector(collector, window=64).report()
        assert _signature(streaming_report) == _signature(batch_report)


class TestStreamingBehavior:
    def test_interim_report_is_non_destructive(self):
        from repro.workloads import gen_long_insert

        with collecting() as collector:
            gen_long_insert()
        engine = StreamingUseCaseEngine()
        profiles = collector.profiles()
        for p in profiles:
            engine.register_instance(p.instance_id, p.kind, p.site, p.label)
        events = sorted((e for p in profiles for e in p), key=lambda e: e.seq)
        half = len(events) // 2
        engine.feed_window([_raw(e) for e in events[:half]])
        interim = engine.report()  # snapshot mid-stream
        engine.feed_window([_raw(e) for e in events[half:]])
        final = engine.report()
        batch = UseCaseEngine().analyze(profiles)
        assert _signature(final) == _signature(batch)
        assert interim.instances_analyzed == final.instances_analyzed

    def test_unknown_instance_events_dropped_and_counted(self):
        engine = StreamingUseCaseEngine()
        engine.feed_window([(99, 0, 0, 0, 1, 0, None)] * 5)
        assert engine.unknown_instance_events == 5
        assert engine.events_folded == 0
        assert engine.report().instances_analyzed == 0

    def test_registration_is_idempotent(self):
        from repro.events import StructureKind

        engine = StreamingUseCaseEngine()
        engine.register_instance(1, StructureKind.LIST, None, "first")
        engine.feed_window([(1, 2, 1, 0, 1, 0, None)])
        engine.register_instance(1, StructureKind.ARRAY, None, "second")
        report = engine.report()
        assert engine.events_folded == 1
        assert report.instances_analyzed == 1

    def test_empty_instances_count_toward_search_space(self):
        from repro.events import StructureKind

        engine = StreamingUseCaseEngine()
        engine.register_instance(0, StructureKind.LIST, None, "idle")
        report = engine.report()
        assert report.instances_analyzed == 1
        assert report.use_cases == ()


class TestLaneSummaryRetention:
    """ISSUE 8 fix: the fold discards events after feature extraction,
    so the happens-before lane summary must survive serialization for
    snapshots to seed the what-if DAG."""

    def test_lanes_match_batch_workspans(self):
        from repro.whatif import fold_profile

        with collecting() as collector:
            EVALUATION_WORKLOADS[0].run_tracked(scale=0.5)
        engine = _stream_collector(collector)
        streamed = engine.workspans()
        for profile in collector.profiles():
            if len(profile) == 0:
                continue
            batch = fold_profile(profile)
            assert streamed[profile.instance_id] == batch

    def test_lanes_round_trip_through_engine_dict(self):
        from repro.service.durability import engine_from_dict, engine_to_dict

        with collecting() as collector:
            EVALUATION_WORKLOADS[0].run_tracked(scale=0.5)
        engine = _stream_collector(collector)
        restored = engine_from_dict(engine_to_dict(engine))
        assert restored.workspans() == engine.workspans()
        # The restored lanes keep folding: same event -> same state.
        iid = next(iter(engine._folds))
        raw = (iid, 2, 1, 0, 1, 3, None)
        engine.feed(raw)
        restored.feed(raw)
        assert engine._folds[iid].lanes == restored._folds[iid].lanes

    def test_pre_lane_checkpoints_still_load(self):
        from repro.service.durability import engine_from_dict, engine_to_dict

        with collecting() as collector:
            EVALUATION_WORKLOADS[0].run_tracked(scale=0.5)
        engine = _stream_collector(collector)
        old_doc = engine_to_dict(engine)
        for fold_obj in old_doc["folds"]:
            del fold_obj["lanes"]  # a checkpoint written before ISSUE 8
        restored = engine_from_dict(old_doc)
        # Loads fine; lane data is honestly empty, and the report is
        # unaffected (lanes feed only the what-if profiler).
        assert restored.workspans() == {}
        assert _signature(restored.report()) == _signature(engine.report())


class TestSnapshotIsolation:
    """Features classify their patterns on first read, and the fold keeps
    extending its open runs afterwards, so an interim report and an
    interim ``features()`` must hold what the fold had when they were
    taken, however late their patterns are read."""

    def test_interim_report_and_features_ignore_later_windows(self):
        from repro.events import AccessKind, OperationKind, StructureKind
        from repro.patterns import DetectorConfig

        insert, read = int(OperationKind.INSERT), int(OperationKind.READ)
        write_kind, read_kind = int(AccessKind.WRITE), int(AccessKind.READ)

        def appends(start, stop):
            """Instance 0: appends at the back, one open insert run."""
            return [(0, insert, write_kind, i, i + 1, 0, None) for i in range(start, stop)]

        def interleaved(start, stop):
            """Instance 1: appends on thread 0, reads of them on thread 1."""
            out = []
            for i in range(start, stop):
                out.append((1, insert, write_kind, i, i + 1, 0, None))
                out.append((1, read, read_kind, i, i + 1, 1, None))
            return out

        config = DetectorConfig()
        engine = StreamingUseCaseEngine(detector_config=config)
        engine.register_instance(0, StructureKind.LIST, None, "grows")
        engine.register_instance(1, StructureKind.LIST, None, "two threads")
        engine.feed_window(appends(0, 150) + interleaved(0, 120))

        interim = engine.report()
        features = {iid: fold.features(config) for iid, fold in engine._folds.items()}
        eager = {iid: fold.patterns(config) for iid, fold in engine._folds.items()}

        # Every open run grows: more appends on both instances, more
        # reads on instance 1's second thread.
        engine.feed_window(appends(150, 260) + interleaved(120, 200))
        for iid, fold in engine._folds.items():
            assert fold.patterns(config) != eager[iid]

        assert {u.instance_id: u.evidence["longest_phase"] for u in interim.use_cases} == {
            0: 150,
            1: 120,
        }
        for use_case in interim.use_cases:
            assert use_case.analysis.patterns == eager[use_case.instance_id]
        # Read only now, after the fold moved on.
        for iid, snapshot in features.items():
            assert snapshot.patterns == eager[iid]
