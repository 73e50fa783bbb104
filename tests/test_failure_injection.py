"""Failure-injection and stress tests for the collection substrate.

The recording path runs inside someone else's program; it must fail
loudly on misuse (recording after the terminal drain), stay exact under
thread stress, and never corrupt profiles when sessions nest or
interleave.
"""

from __future__ import annotations

import threading

import pytest

from repro.events import (
    AccessKind,
    BatchingChannel,
    EventCollector,
    OperationKind,
    StructureKind,
    collecting,
    pop_collector,
    push_collector,
)
from repro.structures import TrackedList


class TestLifecycleMisuse:
    def test_record_after_finish_raises(self):
        collector = EventCollector()
        iid = collector.register_instance(StructureKind.LIST)
        collector.finish()
        with pytest.raises(RuntimeError):
            collector.record(iid, OperationKind.READ, AccessKind.READ, 0, 1)

    def test_structure_outliving_its_session(self):
        with collecting():
            xs = TrackedList([1, 2])
        # The session is finished; further tracked operations must fail
        # loudly, not silently drop events.
        with pytest.raises(RuntimeError):
            xs.append(3)
        # Mutate-then-record semantics: the element landed before the
        # recording failed (contents stay consistent and readable).
        assert xs.raw() == [1, 2, 3]

    def test_assemble_after_finish_is_stable(self):
        collector = EventCollector()
        iid = collector.register_instance(StructureKind.LIST)
        collector.record(iid, OperationKind.READ, AccessKind.READ, 0, 1)
        collector.finish()
        before = len(collector.assemble()[iid])
        after = len(collector.assemble()[iid])
        assert before == after == 1

    def test_unregistered_instance_events_dropped(self):
        """Events for unknown instance ids (e.g. a stale id from another
        session) are discarded at assembly, not crashing it."""
        collector = EventCollector()
        collector.record(999, OperationKind.READ, AccessKind.READ, 0, 1)
        assert collector.finish() == {}

    def test_pop_without_push_is_callers_bug(self):
        push_collector(EventCollector())
        pop_collector()
        with pytest.raises(IndexError):
            pop_collector()


class TestThreadStress:
    @pytest.mark.parametrize("channel_factory", [None, BatchingChannel])
    def test_concurrent_producers_exact_counts(self, channel_factory):
        collector = EventCollector(
            channel=channel_factory() if channel_factory else None
        )
        ids = [
            collector.register_instance(StructureKind.LIST) for _ in range(4)
        ]
        per_thread = 2_000
        threads = 4

        def worker(tid: int) -> None:
            iid = ids[tid]
            for i in range(per_thread):
                collector.record(
                    iid, OperationKind.INSERT, AccessKind.WRITE, i, i + 1
                )

        workers = [
            threading.Thread(target=worker, args=(t,)) for t in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        profiles = collector.finish()
        for iid in ids:
            profile = profiles[iid]
            assert len(profile) == per_thread
            # Per-instance event order is each producer's program order.
            assert list(profile.positions) == list(range(per_thread))

    def test_global_seq_strictly_increasing(self):
        collector = EventCollector()
        ids = [collector.register_instance(StructureKind.LIST) for _ in range(3)]

        def worker(iid):
            for i in range(500):
                collector.record(iid, OperationKind.READ, AccessKind.READ, i, 501)

        threads = [threading.Thread(target=worker, args=(iid,)) for iid in ids]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        profiles = collector.finish()
        seqs = sorted(
            e.seq for p in profiles.values() for e in p
        )
        assert seqs == list(range(1500))

    def test_tracked_structures_from_threads(self):
        with collecting() as session:
            done = threading.Barrier(3)

            def make_and_fill(k):
                xs = TrackedList(label=f"t{k}")
                for i in range(200):
                    xs.append(i)
                done.wait()

            threads = [
                threading.Thread(target=make_and_fill, args=(k,))
                for k in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert session.instance_count == 3
        for profile in session.nonempty_profiles():
            assert profile.count(OperationKind.INSERT) == 200


class TestSessionNesting:
    def test_inner_session_does_not_steal_outer_structures(self):
        with collecting() as outer:
            xs = TrackedList(label="outer")
            xs.append(1)
            with collecting() as inner:
                ys = TrackedList(label="inner")
                ys.append(2)
            # Structures bind to the collector active at construction.
            xs.append(3)
        assert {p.label for p in outer.nonempty_profiles()} == {"outer"}
        assert {p.label for p in inner.nonempty_profiles()} == {"inner"}
        assert len(outer.profiles_by_label()["outer"]) == 3  # init? no: 2 inserts + ...

    def test_interleaved_sessions_isolated(self):
        first = EventCollector()
        second = EventCollector()
        push_collector(first)
        a = TrackedList(label="a")
        push_collector(second)
        b = TrackedList(label="b")
        a.append(1)  # records into *first* (bound at construction)
        b.append(2)
        pop_collector()
        pop_collector()
        assert len(first.finish()) == 1
        assert len(second.finish()) == 1
        assert first.event_count > 0 and second.event_count > 0
