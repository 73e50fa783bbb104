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
from operator import attrgetter
from typing import Any, NamedTuple

from ..events.profile import RuntimeProfile
from ..events.types import OperationKind

# The segmentation decision tables, keyed by plain op codes (what raw
# event tuples carry).

#: Operation categories that can form positional runs.
RUN_CATEGORIES = {
    int(OperationKind.READ): "read",
    int(OperationKind.WRITE): "write",
    int(OperationKind.INSERT): "insert",
    int(OperationKind.DELETE): "delete",
}

#: Operations that are transparent to segmentation.
TRANSPARENT_OPS = frozenset({int(OperationKind.FORALL), int(OperationKind.INIT)})

#: Operations that end the current run of their thread.
BREAKER_OPS = frozenset(
    int(op)
    for op in (
        OperationKind.CLEAR,
        OperationKind.SORT,
        OperationKind.REVERSE,
        OperationKind.COPY,
        OperationKind.RESIZE,
        OperationKind.SEARCH,
    )
)


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

    def snapshot(self) -> "RunSnapshot":
        """This run's classification inputs as of now."""
        return RunSnapshot(
            self.category,
            self.thread_id,
            self.start,
            self.stop,
            self.length,
            self.direction,
            self.first_position,
            self.last_position,
            len(self.positions),
            self.size_at_end,
            self.all_front,
            self.all_back,
        )

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


class RunSnapshot(NamedTuple):
    """An open run frozen at one instant: what the classifier reads of a
    :class:`Run`, so feeding the run further cannot change it."""

    category: str
    thread_id: int
    start: int
    stop: int
    length: int
    direction: int
    first_position: int
    last_position: int
    distinct_positions: int
    size_at_end: int
    all_front: bool
    all_back: bool


_run_start = attrgetter("start")


class RunSegmenter:
    """Segmentation state: each thread's open run plus every run
    already closed.

    :meth:`~repro.usecases.features.InstanceFold.fold_raws` advances it
    — the one place the decision order is applied: transparent
    operations are skipped, breakers and position-less events close
    their thread's run, positional operations extend or restart it —
    and :func:`segment` drives that same fold over a whole profile, so
    batch and streaming segmentation cannot disagree.

    ``open`` maps every thread that raised a non-transparent event to
    its open run (``None`` after a break).
    """

    __slots__ = ("max_gap", "open", "completed")

    def __init__(self, max_gap: int) -> None:
        self.max_gap = max_gap
        self.open: dict[int, Run | None] = {}
        self.completed: list[Run] = []

    def runs(self) -> list[Run]:
        """Closed and open runs in ``start`` order.

        Open runs are read, not closed, so feeding can continue after a
        snapshot.
        """
        out = self.completed + [run for run in self.open.values() if run is not None]
        out.sort(key=_run_start)
        return out

    def snapshot(self) -> list[Run | RunSnapshot]:
        """:meth:`runs`, frozen: closed runs never change, and each open
        run is copied as a :class:`RunSnapshot`, so later feeding cannot
        move what the list classifies into."""
        out = self.completed + [
            run.snapshot() for run in self.open.values() if run is not None
        ]
        out.sort(key=_run_start)
        return out


def segment(profile: RuntimeProfile, max_gap: int = 1) -> list[Run]:
    """Split ``profile`` into maximal consistent runs, in ``start`` order.

    Each run covers events of a single thread.  Single-event runs are
    included -- the detector filters by minimum length.  A thin call of
    the analysis fold (imported here: the fold builds on this module).
    """
    from ..usecases.features import InstanceFold

    return InstanceFold.of_profile(profile, max_gap).segmenter.runs()
