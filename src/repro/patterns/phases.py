"""Phase segmentation: splitting an event stream into consistent runs.

DSspy "executes the phase detection on the access profiles" after the
instrumented program terminates (§IV).  A *run* is a maximal sequence of
consecutive same-thread events of one operation category whose target
positions move consistently: adjacent steps (|Δpos| ≤ ``max_gap``) in a
single direction.  Runs are the raw material the
:mod:`~repro.patterns.detector` classifies into the eight pattern types.

Whole-structure events (``Clear``, ``Sort``, ``Reverse``, ``Copy``,
``Resize``) terminate the current run of their thread; ``Init`` and
``ForAll`` markers are transparent (a ``ForAll`` is immediately followed
by the per-element reads that *are* the pattern); ``Search`` events are
opaque single operations counted separately by the use-case rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..events.profile import RuntimeProfile
from ..events.types import OperationKind

#: Operation categories that can form positional runs.
_RUN_OPS = {
    OperationKind.READ: "read",
    OperationKind.WRITE: "write",
    OperationKind.INSERT: "insert",
    OperationKind.DELETE: "delete",
}

#: Operations that are transparent to segmentation.
_TRANSPARENT = {OperationKind.FORALL, OperationKind.INIT}

#: Operations that end the current run of their thread.
_BREAKERS = {
    OperationKind.CLEAR,
    OperationKind.SORT,
    OperationKind.REVERSE,
    OperationKind.COPY,
    OperationKind.RESIZE,
    OperationKind.SEARCH,
}


@dataclass(slots=True)
class Run:
    """A maximal consistent event run, before classification."""

    category: str
    thread_id: int
    start: int
    stop: int
    length: int
    direction: int  # +1 forward, -1 backward, 0 stationary
    first_position: int
    last_position: int
    positions: set[int] = field(default_factory=set)
    size_at_end: int = 0
    all_front: bool = True  # every position == 0
    all_back: bool = True  # every event targeted the (then-)back

    @property
    def distinct_positions(self) -> int:
        return len(self.positions)

    # -- serialization (checkpoint / SNAPSHOT payloads) ------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "category": self.category,
            "thread_id": self.thread_id,
            "start": self.start,
            "stop": self.stop,
            "length": self.length,
            "direction": self.direction,
            "first_position": self.first_position,
            "last_position": self.last_position,
            "positions": sorted(self.positions),
            "size_at_end": self.size_at_end,
            "all_front": self.all_front,
            "all_back": self.all_back,
        }

    @classmethod
    def from_dict(cls, obj: dict[str, Any]) -> "Run":
        return cls(
            category=obj["category"],
            thread_id=obj["thread_id"],
            start=obj["start"],
            stop=obj["stop"],
            length=obj["length"],
            direction=obj["direction"],
            first_position=obj["first_position"],
            last_position=obj["last_position"],
            positions=set(obj["positions"]),
            size_at_end=obj["size_at_end"],
            all_front=obj["all_front"],
            all_back=obj["all_back"],
        )


class RunSegmenter:
    """Incremental segmentation: one event in, runs out.

    Holds each thread's open run plus every run already closed, and
    applies the decision order once for every caller: transparent
    operations are skipped, breakers and position-less events close
    their thread's run, positional operations extend or restart it.
    :func:`segment` drives it over a whole profile and
    :class:`~repro.usecases.features.InstanceFold` one event at a time,
    so the two cannot disagree.

    ``open`` maps every thread that raised a non-transparent event to
    its open run (``None`` after a break).
    """

    __slots__ = ("max_gap", "open", "completed")

    def __init__(self, max_gap: int) -> None:
        self.max_gap = max_gap
        self.open: dict[int, Run | None] = {}
        self.completed: list[Run] = []

    def feed(
        self, index: int, op: int, position: int | None, size: int, thread_id: int
    ) -> None:
        """Add the event at profile-relative ``index``."""
        if op in _TRANSPARENT:
            return
        run = self.open.get(thread_id)
        if op in _BREAKERS or position is None:
            if run is not None:
                self.completed.append(run)
            self.open[thread_id] = None
            return
        category = _RUN_OPS.get(op)
        if category is None:
            self.open.setdefault(thread_id, None)
            return
        # AccessEvent.targets_back: an empty structure has no back.
        targets_back = size != 0 and position >= size - 1
        if run is not None:
            delta = position - run.last_position
            if (
                category == run.category
                and abs(delta) <= self.max_gap
                and (delta == 0 or run.direction == 0 or (delta > 0) == (run.direction > 0))
            ):
                if delta != 0 and run.direction == 0:
                    run.direction = 1 if delta > 0 else -1
                run.length += 1
                run.stop = index + 1
                run.last_position = position
                run.positions.add(position)
                run.size_at_end = size
                run.all_front = run.all_front and position == 0
                run.all_back = run.all_back and targets_back
                return
            self.completed.append(run)
        self.open[thread_id] = Run(
            category=category,
            thread_id=thread_id,
            start=index,
            stop=index + 1,
            length=1,
            direction=0,
            first_position=position,
            last_position=position,
            positions={position},
            size_at_end=size,
            all_front=position == 0,
            all_back=targets_back,
        )

    def runs(self) -> list[Run]:
        """Closed and open runs in ``start`` order.

        Open runs are read, not closed, so feeding can continue after a
        snapshot.
        """
        out = self.completed + [run for run in self.open.values() if run is not None]
        out.sort(key=lambda r: r.start)
        return out


def segment(profile: RuntimeProfile, max_gap: int = 1) -> list[Run]:
    """Split ``profile`` into maximal consistent runs, in ``start`` order.

    Each run covers events of a single thread.  Single-event runs are
    included -- the detector filters by minimum length.
    """
    segmenter = RunSegmenter(max_gap)
    feed = segmenter.feed
    for index, (_, op, _, position, size, thread_id, _) in enumerate(profile.raws):
        feed(index, op, position, size, thread_id)
    return segmenter.runs()
