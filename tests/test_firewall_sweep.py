"""Differential firewall sweep: hostile profiler ⇒ host behaves as plain.

Every public method of every tracked structure is exercised twice — on
the plain builtin reference and on the tracked structure wired to a
hostile (raising) profiler under an armed firewall — and both the
per-operation results and the final container state must be identical.
The complementary healthy-path class proves the guard is a true no-op
for correctness: with a firewall armed and no faults, all 7 Table V
workloads still produce tracked results equal to plain and a streaming
report equal to batch.
"""

from __future__ import annotations

import bisect

import pytest

from repro.events import BatchingChannel, EventCollector, collecting
from repro.runtime import firewall
from repro.service import StreamingUseCaseEngine
from repro.structures import (
    TrackedArray,
    TrackedDict,
    TrackedLinkedList,
    TrackedList,
    TrackedQueue,
    TrackedSet,
    TrackedSortedList,
    TrackedStack,
)
from repro.testing import HostileCollector, RaisingChannel, make_hostile_collector
from repro.usecases import UseCaseEngine
from repro.workloads import EVALUATION_WORKLOADS

# ---------------------------------------------------------------------------
# Operation scripts: (name, tracked_fn, plain_fn) triples.  Each fn takes
# the container and returns a comparable result; user-level exceptions
# (IndexError, KeyError, ValueError) are part of the observable contract
# and are captured as results, not failures.
# ---------------------------------------------------------------------------


def _iadd(c, items):
    c += items
    return None


LIST_OPS = [
    ("append", lambda c: c.append(5), lambda c: c.append(5)),
    ("add", lambda c: c.add(3), lambda c: c.append(3)),
    ("insert", lambda c: c.insert(1, 9), lambda c: c.insert(1, 9)),
    ("extend", lambda c: c.extend([7, 8]), lambda c: c.extend([7, 8])),
    ("add_range", lambda c: c.add_range([6]), lambda c: c.extend([6])),
    ("iadd", lambda c: _iadd(c, [4]), lambda c: _iadd(c, [4])),
    ("dunder_add", lambda c: c + [1], lambda c: c + [1]),
    ("setitem", lambda c: c.__setitem__(0, 2), lambda c: c.__setitem__(0, 2)),
    ("getitem", lambda c: c[0], lambda c: c[0]),
    ("getslice", lambda c: c[1:4], lambda c: c[1:4]),
    ("setslice", lambda c: c.__setitem__(slice(1, 3), [11, 12]),
     lambda c: c.__setitem__(slice(1, 3), [11, 12])),
    ("delitem", lambda c: c.__delitem__(1), lambda c: c.__delitem__(1)),
    ("pop", lambda c: c.pop(), lambda c: c.pop()),
    ("pop_index", lambda c: c.pop(0), lambda c: c.pop(0)),
    ("remove", lambda c: c.remove(8), lambda c: c.remove(8)),
    ("remove_missing", lambda c: c.remove(404), lambda c: c.remove(404)),
    ("index", lambda c: c.index(6), lambda c: c.index(6)),
    ("index_missing", lambda c: c.index(404), lambda c: c.index(404)),
    ("count", lambda c: c.count(6), lambda c: c.count(6)),
    ("contains_method", lambda c: c.contains(6), lambda c: 6 in c),
    ("contains", lambda c: 404 in c, lambda c: 404 in c),
    ("sort", lambda c: c.sort(), lambda c: c.sort()),
    ("sort_reverse", lambda c: c.sort(reverse=True), lambda c: c.sort(reverse=True)),
    ("reverse", lambda c: c.reverse(), lambda c: c.reverse()),
    ("copy", lambda c: c.copy(), lambda c: c.copy()),
    ("to_list", lambda c: c.to_list(), lambda c: list(c)),
    ("for_each", lambda c: [x for x in _collect_for_each(c)],
     lambda c: [x for x in list(c)]),
    ("iter", lambda c: list(c), lambda c: list(c)),
    ("len", lambda c: len(c), lambda c: len(c)),
    ("bool", lambda c: bool(c), lambda c: bool(c)),
    ("eq", lambda c: c == [1, 2, 3], lambda c: c == [1, 2, 3]),
    ("clear", lambda c: c.clear(), lambda c: c.clear()),
    ("refill", lambda c: c.extend([1, 2]), lambda c: c.extend([1, 2])),
]


def _collect_for_each(c):
    out = []
    c.for_each(out.append)
    return out


ARRAY_OPS = [
    ("setitem", lambda c: c.__setitem__(2, 42), lambda c: c.__setitem__(2, 42)),
    ("getitem", lambda c: c[2], lambda c: c[2]),
    ("getitem_neg", lambda c: c[-1], lambda c: c[-1]),
    ("getslice", lambda c: c[1:4], lambda c: c[1:4]),
    ("setslice", lambda c: c.__setitem__(slice(0, 2), [8, 9]),
     lambda c: c.__setitem__(slice(0, 2), [8, 9])),
    ("resize_grow", lambda c: c.resize(8, fill=1), lambda c: c.extend([1] * 3)),
    ("resize_shrink", lambda c: c.resize(6), lambda c: c.__delitem__(slice(6, None))),
    ("insert", lambda c: c.insert(2, 77), lambda c: c.insert(2, 77)),
    ("delete", lambda c: c.delete(3), lambda c: c.__delitem__(3)),
    ("index", lambda c: c.index(77), lambda c: c.index(77)),
    ("index_missing", lambda c: c.index(404), lambda c: c.index(404)),
    ("fill_all", lambda c: c.fill_all(7), lambda c: c.__setitem__(slice(None), [7] * len(c))),
    ("setitem2", lambda c: c.__setitem__(0, 3), lambda c: c.__setitem__(0, 3)),
    ("sort", lambda c: c.sort(), lambda c: c.sort()),
    ("reverse", lambda c: c.reverse(), lambda c: c.reverse()),
    ("copy", lambda c: c.copy(), lambda c: c.copy()),
    ("iter", lambda c: list(c), lambda c: list(c)),
    ("len", lambda c: len(c), lambda c: len(c)),
]

DICT_OPS = [
    ("set_a", lambda c: c.__setitem__("a", 1), lambda c: c.__setitem__("a", 1)),
    ("set_b", lambda c: c.__setitem__("b", 2), lambda c: c.__setitem__("b", 2)),
    ("overwrite", lambda c: c.__setitem__("a", 3), lambda c: c.__setitem__("a", 3)),
    ("getitem", lambda c: c["a"], lambda c: c["a"]),
    ("getitem_missing", lambda c: c["zz"], lambda c: c["zz"]),
    ("get_hit", lambda c: c.get("b"), lambda c: c.get("b")),
    ("get_miss", lambda c: c.get("zz", -1), lambda c: c.get("zz", -1)),
    ("setdefault_new", lambda c: c.setdefault("d", 4), lambda c: c.setdefault("d", 4)),
    ("setdefault_old", lambda c: c.setdefault("a", 9), lambda c: c.setdefault("a", 9)),
    ("pop_hit", lambda c: c.pop("d"), lambda c: c.pop("d")),
    ("pop_default", lambda c: c.pop("zz", -1), lambda c: c.pop("zz", -1)),
    ("pop_missing", lambda c: c.pop("zz"), lambda c: c.pop("zz")),
    ("update", lambda c: c.update({"e": 5}), lambda c: c.update({"e": 5})),
    ("contains", lambda c: "e" in c, lambda c: "e" in c),
    ("keys", lambda c: sorted(c.keys()), lambda c: sorted(c.keys())),
    ("values", lambda c: sorted(c.values()), lambda c: sorted(c.values())),
    ("items", lambda c: sorted(c.items()), lambda c: sorted(c.items())),
    ("copy", lambda c: c.copy(), lambda c: c.copy()),
    ("delitem", lambda c: c.__delitem__("b"), lambda c: c.__delitem__("b")),
    ("iter", lambda c: sorted(c), lambda c: sorted(c)),
    ("len", lambda c: len(c), lambda c: len(c)),
    ("clear", lambda c: c.clear(), lambda c: c.clear()),
    ("refill", lambda c: c.__setitem__("z", 0), lambda c: c.__setitem__("z", 0)),
]

STACK_OPS = [
    ("push1", lambda c: c.push(1), lambda c: c.append(1)),
    ("push2", lambda c: c.push(2), lambda c: c.append(2)),
    ("push3", lambda c: c.push(3), lambda c: c.append(3)),
    ("peek", lambda c: c.peek(), lambda c: c[-1]),
    ("pop", lambda c: c.pop(), lambda c: c.pop()),
    ("contains", lambda c: 1 in c, lambda c: 1 in c),
    ("iter", lambda c: list(c), lambda c: list(reversed(c))),  # LIFO order
    ("len", lambda c: len(c), lambda c: len(c)),
    ("bool", lambda c: bool(c), lambda c: bool(c)),
    ("clear", lambda c: c.clear(), lambda c: c.clear()),
    ("pop_empty", lambda c: c.pop(), lambda c: c.pop()),
    ("repush", lambda c: c.push(9), lambda c: c.append(9)),
]

QUEUE_OPS = [
    ("enq1", lambda c: c.enqueue(1), lambda c: c.append(1)),
    ("enq2", lambda c: c.enqueue(2), lambda c: c.append(2)),
    ("enq3", lambda c: c.enqueue(3), lambda c: c.append(3)),
    ("peek", lambda c: c.peek(), lambda c: c[0]),
    ("deq", lambda c: c.dequeue(), lambda c: c.pop(0)),
    ("contains", lambda c: 3 in c, lambda c: 3 in c),
    ("iter", lambda c: list(c), lambda c: list(c)),
    ("len", lambda c: len(c), lambda c: len(c)),
    ("clear", lambda c: c.clear(), lambda c: c.clear()),
    ("deq_empty", lambda c: c.dequeue(), lambda c: c.pop(0)),
    ("reenq", lambda c: c.enqueue(9), lambda c: c.append(9)),
]

SET_OPS = [
    ("add1", lambda c: c.add(1), lambda c: c.add(1)),
    ("add2", lambda c: c.add(2), lambda c: c.add(2)),
    ("add_dup", lambda c: c.add(1), lambda c: c.add(1)),
    ("discard_hit", lambda c: c.discard(2), lambda c: c.discard(2)),
    ("discard_miss", lambda c: c.discard(404), lambda c: c.discard(404)),
    ("add3", lambda c: c.add(3), lambda c: c.add(3)),
    ("remove_hit", lambda c: c.remove(3), lambda c: c.remove(3)),
    ("remove_miss", lambda c: c.remove(404), lambda c: c.remove(404)),
    ("contains", lambda c: 1 in c, lambda c: 1 in c),
    ("union", lambda c: sorted(c.union({5, 6})), lambda c: sorted(c.union({5, 6}))),
    ("iter", lambda c: sorted(c), lambda c: sorted(c)),
    ("len", lambda c: len(c), lambda c: len(c)),
    ("clear", lambda c: c.clear(), lambda c: c.clear()),
    ("readd", lambda c: c.add(9), lambda c: c.add(9)),
]

SORTED_OPS = [
    ("add5", lambda c: c.add(5), lambda c: bisect.insort(c, 5)),
    ("add1", lambda c: c.add(1), lambda c: bisect.insort(c, 1)),
    ("add3", lambda c: c.add(3), lambda c: bisect.insort(c, 3)),
    ("getitem", lambda c: c[0], lambda c: c[0]),
    ("getitem_neg", lambda c: c[-1], lambda c: c[-1]),
    ("index_hit", lambda c: c.index(3), lambda c: c.index(3)),
    ("index_miss", lambda c: c.index(404), lambda c: c.index(404)),
    ("contains_hit", lambda c: 5 in c, lambda c: 5 in c),
    ("contains_miss", lambda c: 404 in c, lambda c: 404 in c),
    ("remove", lambda c: c.remove(3), lambda c: c.remove(3)),
    ("delitem", lambda c: c.__delitem__(0), lambda c: c.__delitem__(0)),
    ("iter", lambda c: list(c), lambda c: list(c)),
    ("len", lambda c: len(c), lambda c: len(c)),
    ("bool", lambda c: bool(c), lambda c: bool(c)),
    ("clear", lambda c: c.clear(), lambda c: c.clear()),
    ("readd", lambda c: c.add(9), lambda c: bisect.insort(c, 9)),
]

LINKED_OPS = [
    ("append1", lambda c: c.append(1), lambda c: c.append(1)),
    ("append2", lambda c: c.append(2), lambda c: c.append(2)),
    ("append_left", lambda c: c.append_left(0), lambda c: c.insert(0, 0)),
    ("pop_left", lambda c: c.pop_left(), lambda c: c.pop(0)),
    ("getitem", lambda c: c[1], lambda c: c[1]),
    ("getitem_oob", lambda c: c[99], lambda c: c[99]),
    ("contains_hit", lambda c: 2 in c, lambda c: 2 in c),
    ("contains_miss", lambda c: 404 in c, lambda c: 404 in c),
    ("iter", lambda c: list(c), lambda c: list(c)),
    ("len", lambda c: len(c), lambda c: len(c)),
    ("bool", lambda c: bool(c), lambda c: bool(c)),
    ("clear", lambda c: c.clear(), lambda c: c.clear()),
    ("pop_empty", lambda c: c.pop_left(), lambda c: c.pop(0)),
    ("reappend", lambda c: c.append(9), lambda c: c.append(9)),
]

#: kind -> (tracked factory, plain factory, ops, final-state reader)
STRUCTURES = {
    "list": (
        lambda coll: TrackedList([1, 2, 3], collector=coll),
        lambda: [1, 2, 3],
        LIST_OPS,
        lambda c: list(c.raw()),
    ),
    "array": (
        lambda coll: TrackedArray(5, fill=0, collector=coll),
        lambda: [0] * 5,
        ARRAY_OPS,
        lambda c: list(c.raw()),
    ),
    "dict": (
        lambda coll: TrackedDict(collector=coll),
        lambda: {},
        DICT_OPS,
        lambda c: dict(c.raw()),
    ),
    "stack": (
        lambda coll: TrackedStack(collector=coll),
        lambda: [],
        STACK_OPS,
        lambda c: list(c.raw()),
    ),
    "queue": (
        lambda coll: TrackedQueue(collector=coll),
        lambda: [],
        QUEUE_OPS,
        lambda c: list(c.raw()),
    ),
    "set": (
        lambda coll: TrackedSet(collector=coll),
        lambda: set(),
        SET_OPS,
        lambda c: set(c.raw()),
    ),
    "sorted_list": (
        lambda coll: TrackedSortedList(collector=coll),
        lambda: [],
        SORTED_OPS,
        lambda c: list(c.raw()),
    ),
    "linked_list": (
        lambda coll: TrackedLinkedList(collector=coll),
        lambda: [],
        LINKED_OPS,
        lambda c: list(c.raw()),
    ),
}

class ProducerRaisingChannel(BatchingChannel):
    """A batching channel whose per-thread producer lookup dies: every
    record faults inside ``EventCollector._thread_state``, after the
    structure has cached ``collector.record``, so nothing is ever bound
    and each event retries (and faults) again."""

    def producer(self):
        raise RuntimeError("hostile bind")


#: Hostile profiler variants the firewall must contain.
FAULTS = {
    "record-every-call": lambda: HostileCollector(every=1),
    "record-every-3rd": lambda: HostileCollector(every=3),
    "register-raises": lambda: HostileCollector(fail_record=False, fail_register=True),
    "channel-post-raises": lambda: EventCollector(channel=RaisingChannel()),
    "producer-raises": lambda: EventCollector(channel=ProducerRaisingChannel()),
}


def run_script(container, ops, which: str):
    """Run every op, capturing results and user-level exceptions."""
    results = []
    for name, tracked_fn, plain_fn in ops:
        fn = tracked_fn if which == "tracked" else plain_fn
        try:
            results.append((name, fn(container)))
        except (IndexError, KeyError, ValueError) as exc:
            results.append((name, ("raised", type(exc).__name__)))
    return results


class TestHostileSweep:
    @pytest.mark.parametrize("fault", sorted(FAULTS), ids=str)
    @pytest.mark.parametrize("kind", sorted(STRUCTURES), ids=str)
    def test_every_method_matches_plain_builtin(self, kind, fault):
        make_tracked, make_plain, ops, state_of = STRUCTURES[kind]

        plain = make_plain()
        plain_results = run_script(plain, ops, "plain")

        with firewall(budget=10**6) as guard:
            tracked = make_tracked(FAULTS[fault]())
            tracked_results = run_script(tracked, ops, "tracked")
            tracked_state = state_of(tracked)

        assert tracked_results == plain_results
        assert tracked_state == plain
        report = guard.report()
        assert report.state == "closed"  # huge budget: contained, not tripped
        assert report.faults > 0  # ...and the profiler really was hostile

    @pytest.mark.parametrize("kind", sorted(STRUCTURES), ids=str)
    def test_breaker_trips_after_budget_and_still_matches(self, kind):
        make_tracked, make_plain, ops, state_of = STRUCTURES[kind]
        budget = 5

        plain = make_plain()
        plain_results = run_script(plain, ops, "plain")

        with firewall(budget=budget) as guard:
            collector = HostileCollector(every=1)
            tracked = make_tracked(collector)
            tracked_results = run_script(tracked, ops, "tracked")
            tracked_state = state_of(tracked)

        assert tracked_results == plain_results
        assert tracked_state == plain
        report = guard.report()
        assert report.tripped
        assert report.faults == budget
        # Pass-through really engaged: the hostile collector stopped
        # being called once the breaker opened.
        assert collector.record_calls + collector.register_calls <= budget + 1

    @pytest.mark.parametrize("kind", sorted(STRUCTURES), ids=str)
    def test_register_failure_behaves_like_plain(self, kind):
        """An instance whose registration failed is a plain delegate."""
        make_tracked, make_plain, ops, state_of = STRUCTURES[kind]

        plain = make_plain()
        plain_results = run_script(plain, ops, "plain")

        with firewall(budget=10**6):
            tracked = make_tracked(make_hostile_collector("raising-register"))
            assert not tracked.tracked
            tracked_results = run_script(tracked, ops, "tracked")
            tracked_state = state_of(tracked)

        assert tracked_results == plain_results
        assert tracked_state == plain


class TestHealthyBatchingUnderFirewall:
    @pytest.mark.parametrize("kind", sorted(STRUCTURES), ids=str)
    def test_healthy_batching_under_guard_is_faultless(self, kind):
        make_tracked, _make_plain, ops, _state_of = STRUCTURES[kind]

        channel = BatchingChannel()
        collector = EventCollector(channel=channel)
        with firewall(budget=25) as guard:
            run_script(make_tracked(collector), ops, "tracked")

        report = guard.report()
        assert report.faults == 0
        assert not report.tripped
        # The drainer kept harvesting while guarded: events are all there.
        assert len(channel.drain()) > 0


# ---------------------------------------------------------------------------
# Healthy-guard convergence: the firewall must be invisible when the
# profiler is healthy — same workload results AND the exact streaming ==
# batch equivalence of the Table V evaluation.
# ---------------------------------------------------------------------------


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


def _stream_collector(collector, window: int = 256):
    engine = StreamingUseCaseEngine()
    profiles = collector.profiles()
    for profile in profiles:
        engine.register_instance(
            profile.instance_id, profile.kind, profile.site, profile.label
        )
    events = sorted(
        (event for profile in profiles for event in profile), key=lambda e: e.seq
    )
    for start in range(0, len(events), window):
        engine.feed_window([_raw(e) for e in events[start : start + window]])
    return engine


def _signature(report):
    return sorted(
        (u.instance_id, u.kind.abbreviation, tuple(sorted(u.evidence.items())))
        for u in report.use_cases
    )


class TestHealthyGuardConvergence:
    @pytest.mark.parametrize("workload", EVALUATION_WORKLOADS, ids=lambda w: w.name)
    def test_guarded_run_matches_plain_and_streaming_matches_batch(self, workload):
        plain_result = workload.run_plain(scale=0.3)
        with firewall(budget=25) as guard:
            with collecting() as collector:
                tracked_result = workload.run_tracked(scale=0.3)

        # (1) Observer contract: identical program results under guard.
        assert tracked_result == plain_result
        # (2) Zero contained faults on the healthy path.
        report = guard.report()
        assert report.faults == 0
        assert not report.tripped
        # (3) The streaming engine still converges to the exact batch
        # report — the guard perturbed nothing in the event stream.
        batch_report = UseCaseEngine().analyze(collector.profiles())
        streaming_report = _stream_collector(collector).report()
        assert _signature(streaming_report) == _signature(batch_report)
