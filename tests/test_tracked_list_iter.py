"""``TrackedList.__iter__`` records exactly what its former helper-based
loop recorded.

:func:`reference_iter` is the former ``TrackedList.__iter__``, kept
verbatim: one ``_record`` call (and one ``_reported_size`` call) per
element.  Each case drives the production iterator and the reference on
two identically built lists in separate collectors, applies the same
mutations at the same elements, and compares the recorded raw tuples.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Any, Callable, Iterator

import pytest

from repro.events import AccessKind, OperationKind, collecting
from repro.structures import TrackedList

_READ = AccessKind.READ
_OP = OperationKind


def reference_iter(self: TrackedList) -> Iterator[Any]:
    self._record(_OP.FORALL, _READ, None, self._reported_size())
    for j in range(len(self._data)):
        if j >= len(self._data):  # mutated during iteration
            return
        self._record(_OP.READ, _READ, j, self._reported_size())
        yield self._data[j]


def _no_mutation(xs: TrackedList, j: int) -> None:
    pass


def _shrink(xs: TrackedList, j: int) -> None:
    if j % 2 == 0 and len(xs) > 1:
        xs.pop()


def _grow(xs: TrackedList, j: int) -> None:
    if j < 6:
        xs.append(j)


def _clear_midway(xs: TrackedList, j: int) -> None:
    if j == 3:
        xs.clear()


def _record_iteration(
    iterate: Callable[[TrackedList], Iterator[Any]],
    build: Callable[[], TrackedList],
    mutate: Callable[[TrackedList, int], None],
) -> tuple[list[Any], list[tuple]]:
    with collecting() as collector:
        xs = build()
        seen = []
        for j, value in enumerate(iterate(xs)):
            seen.append(value)
            mutate(xs, j)
    raws = [raw[:6] for profile in collector.profiles() for raw in profile.raws]
    return seen, raws


BUILDS = {
    "plain": lambda: TrackedList(range(9)),
    "pre-sized": lambda: TrackedList(range(5), capacity=16),
    "pre-sized-full": lambda: TrackedList(range(4), capacity=4),
    "empty": lambda: TrackedList(),
}

MUTATIONS = {
    "none": _no_mutation,
    "shrinking": _shrink,
    "growing": _grow,
    "cleared": _clear_midway,
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("build", sorted(BUILDS))
def test_iteration_records_what_the_reference_records(build, mutation):
    got = _record_iteration(iter, BUILDS[build], MUTATIONS[mutation])
    want = _record_iteration(reference_iter, BUILDS[build], MUTATIONS[mutation])
    assert got == want


def test_growing_presized_list_reports_the_grown_capacity():
    # Appends during iteration resize the capacity; each read reports
    # the size at that moment, and the range stays fixed at the start.
    def build():
        return TrackedList(range(3), capacity=3)

    got = _record_iteration(iter, build, _grow)
    assert got == _record_iteration(reference_iter, build, _grow)
    seen, raws = got
    assert seen == [0, 1, 2]
    read_sizes = [raw[4] for raw in raws if raw[1] == int(OperationKind.READ)]
    assert read_sizes == [3, 6, 6]


def test_each_element_costs_one_record_frame():
    # A generator frame is entered once per element plus once to finish;
    # below it, only the collector's record hook runs (FORALL + reads).
    n = 50
    calls: Counter = Counter()

    def profiler(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    def loop(xs):
        for _ in xs:
            pass

    with collecting():
        xs = TrackedList(range(n))
        sys.setprofile(profiler)
        try:
            loop(xs)
        finally:
            sys.setprofile(None)
    assert calls == Counter({"loop": 1, "__iter__": n + 1, "record": n + 1})
