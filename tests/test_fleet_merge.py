"""Fleet merge correctness: a report merged from sharded engines must
be *identical* to one engine that saw the union of the streams.

This is the invariant the whole fleet subsystem rests on — folds are
strictly per-instance and ``report()`` evaluates instances
independently, so partitioning instances across shards loses nothing.
Exercised through :meth:`FleetCoordinator.merge`, the one merge, on
every Table V workload, under both a disjoint split (each shard owns a
contiguous block of instances) and an interleaved one (instances
round-robined across shards, events fed window-by-window in
alternating shard order, with mid-stream report() calls thrown in).
The merge gives every fold a fleet-wide id, so merged use cases are
compared with the reference through their ``origin``.
"""

from __future__ import annotations

import pytest

from repro.events import collecting
from repro.service import StreamingUseCaseEngine, engine_from_dict, engine_to_dict
from repro.service.fleet import FleetCoordinator
from repro.usecases.json_export import report_to_dict
from repro.workloads import EVALUATION_WORKLOADS

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


def _signature(report):
    return sorted(
        (u.instance_id, u.kind.abbreviation, tuple(sorted(u.evidence.items())))
        for u in report.use_cases
    )


def _capture(workload):
    """(profiles, events-in-capture-order) for one tracked run."""
    with collecting() as collector:
        workload.run_tracked(scale=0.5)
    profiles = collector.profiles()
    events = sorted(
        (event for profile in profiles for event in profile), key=lambda e: e.seq
    )
    return profiles, events


def _feed(engine, events, window=WINDOW):
    for i in range(0, len(events), window):
        engine.feed_window([_raw(e) for e in events[i : i + window]])


def _reference_engine(profiles, events):
    engine = StreamingUseCaseEngine()
    for p in profiles:
        engine.register_instance(p.instance_id, p.kind, p.site, p.label)
    _feed(engine, events)
    return engine


def _shard_engines(profiles, events, n_shards, assign):
    """One engine per shard; instance ``assign(iid) -> shard`` decides
    ownership of registrations and events alike."""
    engines = [StreamingUseCaseEngine() for _ in range(n_shards)]
    for p in profiles:
        engines[assign(p.instance_id)].register_instance(
            p.instance_id, p.kind, p.site, p.label
        )
    for shard, engine in enumerate(engines):
        _feed(engine, [e for e in events if assign(e.instance_id) == shard])
    return engines


def _assert_equivalent(merged, reference):
    assert _signature(merged.report()) == _signature(reference.report())
    assert (
        merged.report().instances_analyzed
        == reference.report().instances_analyzed
    )
    assert (
        merged.report().search_space_reduction
        == reference.report().search_space_reduction
    )
    assert merged.events_folded == reference.events_folded
    assert merged.unknown_instance_events == reference.unknown_instance_events


def _merge(engines):
    """Each shard engine as one session's SNAPSHOT on its own worker,
    merged by the fleet coordinator."""
    return FleetCoordinator([]).merge(
        [
            {
                "session": f"shard-{shard}",
                "worker": shard,
                "state": "streaming",
                "received": engine.events_folded,
                "engine": engine_to_dict(engine),
            }
            for shard, engine in enumerate(engines)
        ]
    )


def _evidence(use_case):
    return tuple(sorted(use_case["evidence"].items()))


def _assert_merged_equivalent(engines, reference, assign):
    merged = _merge(engines)
    report = merged["report"]
    expected = report_to_dict(reference.report())
    # Merged ids are fleet-wide; each origin names the shard's own id.
    assert sorted(
        (u["origin"]["instance_id"], u["abbreviation"], _evidence(u))
        for u in report["use_cases"]
    ) == sorted(
        (u["instance_id"], u["abbreviation"], _evidence(u))
        for u in expected["use_cases"]
    )
    for use_case in report["use_cases"]:
        shard = assign(use_case["origin"]["instance_id"])
        assert use_case["origin"]["worker"] == shard
        assert use_case["origin"]["session"] == f"shard-{shard}"
    assert report["instances_analyzed"] == expected["instances_analyzed"]
    assert report["search_space_reduction"] == expected["search_space_reduction"]
    assert merged["events_folded"] == reference.events_folded
    assert merged["unknown_instance_events"] == reference.unknown_instance_events
    assert merged["complete"]


@pytest.mark.parametrize("workload", EVALUATION_WORKLOADS, ids=lambda w: w.name)
class TestTableVMergeEquivalence:
    def test_round_trip_preserves_report(self, workload):
        profiles, events = _capture(workload)
        reference = _reference_engine(profiles, events)
        restored = engine_from_dict(engine_to_dict(reference))
        _assert_equivalent(restored, reference)

    def test_disjoint_split_merges_to_reference(self, workload):
        profiles, events = _capture(workload)
        reference = _reference_engine(profiles, events)
        n = max(p.instance_id for p in profiles) + 1
        # Contiguous halves: shard 0 gets the low instance ids.
        assign = lambda iid: 0 if iid < n // 2 else 1  # noqa: E731
        engines = _shard_engines(profiles, events, 2, assign)
        _assert_merged_equivalent(engines, reference, assign)

    def test_interleaved_split_merges_to_reference(self, workload):
        profiles, events = _capture(workload)
        reference = _reference_engine(profiles, events)
        # Round-robin ownership over three shards; feed the shards'
        # windows in alternating order with interim report() calls, the
        # way a live fleet is snapshotted mid-stream.
        assign = lambda iid: iid % 3  # noqa: E731
        engines = [StreamingUseCaseEngine() for _ in range(3)]
        for p in profiles:
            engines[assign(p.instance_id)].register_instance(
                p.instance_id, p.kind, p.site, p.label
            )
        per_shard = [
            [e for e in events if assign(e.instance_id) == shard]
            for shard in range(3)
        ]
        cursors = [0, 0, 0]
        while any(c < len(s) for c, s in zip(cursors, per_shard)):
            for shard in range(3):
                chunk = per_shard[shard][cursors[shard] : cursors[shard] + WINDOW]
                cursors[shard] += WINDOW
                if chunk:
                    engines[shard].feed_window([_raw(e) for e in chunk])
            engines[0].report()  # interim snapshot must be non-destructive
        _assert_merged_equivalent(engines, reference, assign)


class TestMergeSemantics:
    def test_same_instance_id_in_two_sessions_stays_apart(self):
        from repro.events import AccessKind, OperationKind, StructureKind

        append = (int(OperationKind.INSERT), int(AccessKind.WRITE))
        engines = [StreamingUseCaseEngine(), StreamingUseCaseEngine()]
        for engine, label in zip(engines, ("left", "right")):
            engine.register_instance(7, StructureKind.LIST, None, label)
            # Enough appends to flag a use case on each.
            engine.feed_window([(7, *append, i, i + 1, 0, None) for i in range(2000)])
        merged = _merge(engines)
        assert merged["report"]["instances_analyzed"] == 2
        origins = sorted(
            (u["origin"]["session"], u["origin"]["instance_id"], u["label"])
            for u in merged["report"]["use_cases"]
        )
        assert origins and {o[:2] for o in origins} == {("shard-0", 7), ("shard-1", 7)}
        assert {label for *_, label in origins} == {"left", "right"}

    def test_counters_sum_and_peak_maxes(self, monkeypatch):
        from repro.service import durability

        seen = []

        def spy(obj, **kwargs):
            seen.append(obj)
            return engine_from_dict(obj, **kwargs)

        monkeypatch.setattr(durability, "engine_from_dict", spy)
        a = StreamingUseCaseEngine()
        b = StreamingUseCaseEngine()
        a.feed_window([(99, 0, 0, 0, 1, 0, None)] * 3)  # unknown instance
        b.feed_window([(98, 0, 0, 0, 1, 0, None)] * 2)
        merged = _merge([a, b])
        assert merged["unknown_instance_events"] == 5
        (engine_dict,) = seen
        assert engine_dict["unknown_instance_events"] == 5
        assert engine_dict["peak_resident_events"] == 3

    def test_merge_of_empty_is_empty_engine(self):
        merged = _merge([])
        assert merged["report"]["instances_analyzed"] == 0
        assert merged["events_folded"] == 0
