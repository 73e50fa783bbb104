"""Unit tests for the access-event substrate (repro.events)."""

from __future__ import annotations

import threading

import pytest

from repro.events import (
    AccessKind,
    AllocationSite,
    BatchingChannel,
    EventCollector,
    NO_POSITION,
    OperationKind,
    RuntimeProfile,
    StructureKind,
    SynchronousChannel,
    collecting,
    end_of,
    get_collector,
    materialize,
)

from .conftest import make_event, make_profile


class TestOperationKind:
    def test_read_like_ops(self):
        assert OperationKind.READ.is_read_like
        assert OperationKind.SEARCH.is_read_like
        assert OperationKind.COPY.is_read_like
        assert OperationKind.FORALL.is_read_like

    def test_write_like_ops(self):
        for op in (
            OperationKind.WRITE,
            OperationKind.INSERT,
            OperationKind.DELETE,
            OperationKind.CLEAR,
            OperationKind.SORT,
            OperationKind.REVERSE,
            OperationKind.RESIZE,
        ):
            assert op.is_write_like, op

    def test_read_write_partition(self):
        for op in OperationKind:
            if op is OperationKind.INIT:
                continue
            assert op.is_read_like != op.is_write_like, op

    def test_linear_kinds(self):
        assert StructureKind.LIST.is_linear
        assert StructureKind.ARRAY.is_linear
        assert StructureKind.STACK.is_linear
        assert not StructureKind.DICTIONARY.is_linear
        assert not StructureKind.HASH_SET.is_linear

    def test_end_of(self):
        assert end_of(10) == 9
        assert end_of(0) == 0


class TestAccessEvent:
    def test_front_back_helpers(self):
        ev = make_event(0, OperationKind.READ, 0, 10)
        assert ev.targets_front and not ev.targets_back
        ev = make_event(1, OperationKind.READ, 9, 10)
        assert ev.targets_back and not ev.targets_front
        ev = make_event(2, OperationKind.CLEAR, None, 10)
        assert not ev.targets_front and not ev.targets_back

    def test_size_zero_never_back(self):
        ev = make_event(0, OperationKind.READ, 0, 0)
        assert not ev.targets_back

    def test_describe_mentions_fields(self):
        ev = make_event(7, OperationKind.INSERT, 3, 4)
        text = ev.describe()
        assert "#7" in text and "insert" in text and "pos=3" in text

    def test_materialize_roundtrip(self):
        raw = (5, int(OperationKind.SORT), int(AccessKind.WRITE), None, 12, 2, None)
        ev = materialize(99, raw)
        assert ev.seq == 99
        assert ev.op is OperationKind.SORT
        assert ev.kind is AccessKind.WRITE
        assert ev.position is None
        assert ev.size == 12
        assert ev.thread_id == 2
        assert ev.instance_id == 5

    def test_events_are_frozen(self):
        ev = make_event(0, OperationKind.READ, 0, 1)
        with pytest.raises(AttributeError):
            ev.size = 5  # type: ignore[misc]


class TestRuntimeProfile:
    def test_vectorized_views_match_events(self):
        profile = make_profile(
            [
                (OperationKind.INSERT, 0, 1),
                (OperationKind.INSERT, 1, 2),
                (OperationKind.READ, 0, 2),
                (OperationKind.CLEAR, None, 0),
            ]
        )
        assert list(profile.seqs) == [0, 1, 2, 3]
        assert list(profile.positions) == [0, 1, 0, NO_POSITION]
        assert list(profile.sizes) == [1, 2, 2, 0]
        assert profile.count(OperationKind.INSERT) == 2
        assert profile.count(OperationKind.CLEAR) == 1

    def test_fractions(self):
        profile = make_profile(
            [
                (OperationKind.READ, 0, 2),
                (OperationKind.READ, 1, 2),
                (OperationKind.WRITE, 0, 2),
                (OperationKind.WRITE, 1, 2),
            ]
        )
        assert profile.read_fraction == pytest.approx(0.5)
        assert profile.write_fraction == pytest.approx(0.5)

    def test_empty_profile_safe(self):
        profile = RuntimeProfile(0)
        assert len(profile) == 0
        assert profile.read_fraction == 0.0
        assert profile.max_size == 0
        assert profile.final_size == 0
        assert profile.thread_ids == []
        assert profile.op_histogram() == {}

    def test_append_invalidates_cache(self):
        profile = make_profile([(OperationKind.READ, 0, 1)])
        assert profile.max_size == 1
        profile.append(make_event(1, OperationKind.INSERT, 1, 5))
        assert profile.max_size == 5

    def test_split_by_thread(self):
        events = [
            make_event(0, OperationKind.READ, 0, 2, thread_id=0),
            make_event(1, OperationKind.READ, 1, 2, thread_id=1),
            make_event(2, OperationKind.READ, 1, 2, thread_id=0),
        ]
        profile = RuntimeProfile.from_events(events)
        assert profile.is_multithreaded
        parts = profile.split_by_thread()
        assert len(parts[0]) == 2
        assert len(parts[1]) == 1
        assert parts[0][0].seq == 0 and parts[0][1].seq == 2

    def test_slice(self):
        profile = make_profile(
            [(OperationKind.READ, i, 10) for i in range(10)]
        )
        part = profile.slice(2, 5)
        assert len(part) == 3
        assert part[0].position == 2

    def test_op_histogram(self):
        profile = make_profile(
            [
                (OperationKind.INSERT, 0, 1),
                (OperationKind.INSERT, 1, 2),
                (OperationKind.SORT, None, 2),
            ]
        )
        hist = profile.op_histogram()
        assert hist[OperationKind.INSERT] == 2
        assert hist[OperationKind.SORT] == 1

    def test_from_events_empty(self):
        profile = RuntimeProfile.from_events([])
        assert len(profile) == 0


class TestAllocationSite:
    def test_str_with_variable(self):
        site = AllocationSite("a.py", 12, "main", "xs")
        assert "a.py:12" in str(site)
        assert "xs" in str(site)


class TestChannels:
    def test_synchronous_order(self):
        ch = SynchronousChannel()
        for i in range(100):
            ch.post((i,))
        assert ch.pending == 100
        drained = ch.drain()
        assert drained == [(i,) for i in range(100)]
        with pytest.raises(RuntimeError):
            ch.post((0,))


class TestEventCollector:
    def test_register_and_record(self, collector):
        iid = collector.register_instance(StructureKind.LIST, label="xs")
        collector.record(iid, OperationKind.INSERT, AccessKind.WRITE, 0, 1)
        collector.record(iid, OperationKind.READ, AccessKind.READ, 0, 1)
        profiles = collector.finish()
        assert len(profiles[iid]) == 2
        assert profiles[iid][0].op is OperationKind.INSERT
        assert profiles[iid][1].seq == 1

    def test_finish_idempotent(self, collector):
        iid = collector.register_instance(StructureKind.LIST)
        collector.record(iid, OperationKind.READ, AccessKind.READ, 0, 1)
        first = collector.finish()
        second = collector.finish()
        assert first is second or len(first[iid]) == len(second[iid]) == 1

    def test_events_route_to_right_instance(self, collector):
        a = collector.register_instance(StructureKind.LIST)
        b = collector.register_instance(StructureKind.ARRAY)
        collector.record(a, OperationKind.READ, AccessKind.READ, 0, 1)
        collector.record(b, OperationKind.WRITE, AccessKind.WRITE, 0, 1)
        collector.record(a, OperationKind.READ, AccessKind.READ, 0, 1)
        profiles = collector.finish()
        assert len(profiles[a]) == 2
        assert len(profiles[b]) == 1
        assert profiles[b].kind is StructureKind.ARRAY

    def test_dense_thread_ids(self, collector):
        iid = collector.register_instance(StructureKind.LIST)

        def worker():
            collector.record(iid, OperationKind.READ, AccessKind.READ, 0, 1)

        threads = [threading.Thread(target=worker) for _ in range(3)]
        collector.record(iid, OperationKind.READ, AccessKind.READ, 0, 1)
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        profile = collector.finish()[iid]
        ids = profile.thread_ids
        assert ids[0] == 0
        assert max(ids) <= 3

    def test_collecting_context_scopes_collector(self):
        outer = get_collector()
        with collecting() as session:
            assert get_collector() is session
        assert get_collector() is outer
        assert session.finished

    def test_nested_collecting(self):
        with collecting() as outer_session:
            with collecting() as inner_session:
                assert get_collector() is inner_session
            assert get_collector() is outer_session

    def test_wall_time_capture(self):
        collector = EventCollector(capture_wall_time=True)
        iid = collector.register_instance(StructureKind.LIST)
        collector.record(iid, OperationKind.READ, AccessKind.READ, 0, 1)
        ev = collector.finish()[iid][0]
        assert ev.wall_time is not None and ev.wall_time > 0

    def test_profiles_by_label(self, collector):
        collector.register_instance(StructureKind.LIST, label="a")
        collector.register_instance(StructureKind.LIST, label="b")
        by_label = collector.profiles_by_label()
        assert set(by_label) == {"a", "b"}

    def test_nonempty_profiles(self, collector):
        a = collector.register_instance(StructureKind.LIST)
        collector.register_instance(StructureKind.LIST)  # never touched
        collector.record(a, OperationKind.READ, AccessKind.READ, 0, 1)
        assert len(collector.nonempty_profiles()) == 1
        assert len(collector.profiles()) == 2

    def test_batching_channel_collector(self):
        collector = EventCollector(channel=BatchingChannel())
        iid = collector.register_instance(StructureKind.LIST)
        for i in range(500):
            collector.record(iid, OperationKind.INSERT, AccessKind.WRITE, i, i + 1)
        profile = collector.finish()[iid]
        assert len(profile) == 500
        assert list(profile.seqs) == list(range(500))
