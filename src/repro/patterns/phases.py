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

from copy import copy
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Any

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
    """A maximal consistent event run, before classification.

    Every field is a scalar, so a shallow copy is a frozen snapshot.
    ``distinct_positions`` is a count, not a set: a run moves in one
    direction, so each nonzero step reaches a position it has not
    touched, and the run has touched 1 plus its nonzero steps.
    """

    category: str
    thread_id: int
    start: int
    stop: int
    length: int
    direction: int  # +1 forward, -1 backward, 0 stationary
    first_position: int
    last_position: int
    distinct_positions: int
    size_at_end: int = 0
    all_front: bool = True  # every position == 0
    all_back: bool = True  # every event targeted the (then-)back

    # -- serialization (checkpoint / SNAPSHOT payloads) ------------------

    def to_dict(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in _RUN_FIELDS}

    @classmethod
    def from_dict(cls, obj: dict[str, Any]) -> "Run":
        """Accepts every checkpoint generation: v1 and v2 list each
        distinct position (``positions``) where v3 keeps their count."""
        if "positions" in obj:
            obj = {**obj, "distinct_positions": len(obj["positions"])}
        return cls(*[obj[name] for name in _RUN_FIELDS])


#: :class:`Run`'s fields, in order: its one field list.
_RUN_FIELDS = tuple(f.name for f in fields(Run))

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

    def snapshot(self) -> list[Run]:
        """:meth:`runs`, frozen: closed runs never change, and each open
        run is copied, so later feeding cannot move what the list
        classifies into."""
        out = self.completed + [copy(run) for run in self.open.values() if run is not None]
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
