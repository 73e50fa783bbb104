"""Test-only references for the analysis fold.

:class:`repro.usecases.features.InstanceFold` computes every
:class:`~repro.usecases.features.ProfileFeatures` scalar, the runs and
the lane summary in one batched loop (``fold_raws``).  This module
keeps two independent implementations to check it against:

- :func:`reference_features` computes the scalars the other way round —
  vectorized numpy masks over a finished profile, the way the rules
  originally read them.  Patterns are taken from the analysis as given;
  only the scalar counters are recomputed here.
- :func:`reference_feed` (with :func:`reference_segmenter_feed` and
  :func:`reference_lane_feed`) is the fold's former per-event chain —
  ``InstanceFold.feed`` → ``LaneSummary.feed`` + ``RunSegmenter.feed``
  — kept verbatim (bar the names of the segmentation tables, now keyed
  by op code), operating on the production state objects, so the
  batched loop can be compared with it byte for byte through
  ``InstanceFold.to_dict``.  Where the fold counts a run's distinct
  positions, the reference's runs (:class:`ReferenceRun`) still keep
  the set of them and write its size into the count, so the count is
  checked against a set rather than against itself.
"""

from __future__ import annotations

import numpy as np

from repro.events.profile import NO_POSITION
from repro.events.types import AccessKind, OperationKind
from repro.patterns.model import PatternAnalysis
from repro.patterns.phases import BREAKER_OPS, RUN_CATEGORIES, TRANSPARENT_OPS, Run, RunSegmenter
from repro.usecases.features import InstanceFold, ProfileFeatures
from repro.whatif.dag import LaneSummary

_READ = int(AccessKind.READ)
_INSERT = int(OperationKind.INSERT)
_DELETE = int(OperationKind.DELETE)
_OP_READ = int(OperationKind.READ)
_SORT = int(OperationKind.SORT)
_INIT = int(OperationKind.INIT)


# -- the per-event fold, as it was before the batched loop ----------------------


def reference_lane_feed(self: LaneSummary, thread_id: int, is_read: bool) -> None:
    start = self.lane_end.get(thread_id, 0.0)
    if self.last_write_end > start:
        start = self.last_write_end
    if is_read:
        end = start + 1.0
        if end > self.max_read_end:
            self.max_read_end = end
    else:
        if self.max_read_end > start:
            start = self.max_read_end
        end = start + 1.0
        self.last_write_end = end
    self.lane_end[thread_id] = end
    self.work += 1


class ReferenceRun(Run):
    """A :class:`Run` that also keeps the set of positions it touched;
    ``to_dict`` writes only the count."""

    __slots__ = ("positions",)


def reference_segmenter_feed(
    self: RunSegmenter, index: int, op: int, position: int | None, size: int, thread_id: int
) -> None:
    """Add the event at profile-relative ``index``."""
    if op in TRANSPARENT_OPS:
        return
    run = self.open.get(thread_id)
    if op in BREAKER_OPS or position is None:
        if run is not None:
            self.completed.append(run)
        self.open[thread_id] = None
        return
    category = RUN_CATEGORIES.get(op)
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
            run.distinct_positions = len(run.positions)
            run.size_at_end = size
            run.all_front = run.all_front and position == 0
            run.all_back = run.all_back and targets_back
            return
        self.completed.append(run)
    self.open[thread_id] = run = ReferenceRun(
        category=category,
        thread_id=thread_id,
        start=index,
        stop=index + 1,
        length=1,
        direction=0,
        first_position=position,
        last_position=position,
        distinct_positions=1,
        size_at_end=size,
        all_front=position == 0,
        all_back=targets_back,
    )
    run.positions = {position}


def reference_feed(
    self: InstanceFold, op: int, kind: int, position: int | None, size: int, thread_id: int
) -> None:
    i = self.index
    self.index = i + 1
    is_read = kind == _READ
    reference_lane_feed(self.lanes, thread_id, is_read)

    counts = self.op_counts
    counts[op] = counts.get(op, 0) + 1

    # Write-without-read tail: non-Init events after the last
    # read-kind event.  A read resets the tail; an Init neither
    # joins nor resets it.
    if is_read:
        self.read_kind += 1
        if self.trailing:
            self.trailing = 0
            self.trailing_ops.clear()
            self.trailing_positions.clear()
            self.trailing_max_size = 0
    elif op != _INIT:
        self.trailing += 1
        self.trailing_ops.add(op)
        if position is not None:
            self.trailing_positions.add(position)
        if size > self.trailing_max_size:
            self.trailing_max_size = size

    if position is not None:
        at_front = position == 0
        at_back = position >= size - 1
        if at_front or at_back:
            self.end_events += 1
        if op == _INSERT:
            if at_front:
                self.insert_front += 1
            if at_back:
                self.insert_back += 1
        elif op == _DELETE:
            if at_front:
                self.delete_front += 1
            if at_back:
                self.delete_back += 1
        elif op == _OP_READ:
            if at_front:
                self.read_front += 1
            if at_back:
                self.read_back += 1

    if op == _SORT:
        self.sort_count += 1
        self.last_sort_index = i

    reference_segmenter_feed(self.segmenter, i, op, position, size, thread_id)


def reference_fold_raws(fold: InstanceFold, raws) -> InstanceFold:
    """Feed raw tuples one event at a time through the reference chain."""
    for _, op, kind, position, size, thread_id, _ in raws:
        reference_feed(fold, op, kind, position, size, thread_id)
    return fold


# -- the feature scalars from numpy masks ---------------------------------------


def reference_features(analysis: PatternAnalysis) -> ProfileFeatures:
    """Extract :class:`ProfileFeatures` from a batch pattern analysis
    with whole-profile numpy masks."""
    profile = analysis.profile
    n = len(profile)
    if n == 0:
        return ProfileFeatures(
            kind=profile.kind, total_events=0, patterns=analysis.patterns
        )

    ops = profile.ops
    kinds = profile.kinds
    positions = profile.positions
    sizes = profile.sizes

    has_pos = positions != NO_POSITION
    at_front = has_pos & (positions == 0)
    at_back = has_pos & (positions >= sizes - 1)

    def _front_back(op: OperationKind) -> tuple[int, int]:
        mask = ops == op
        return (
            int(np.count_nonzero(mask & at_front)),
            int(np.count_nonzero(mask & at_back)),
        )

    insert_front, insert_back = _front_back(OperationKind.INSERT)
    delete_front, delete_back = _front_back(OperationKind.DELETE)
    read_front, read_back = _front_back(OperationKind.READ)

    sort_indices = np.flatnonzero(ops == OperationKind.SORT)

    # Write-without-read tail: non-Init events after the last read.
    reads = np.flatnonzero(kinds == AccessKind.READ)
    first_trailing = int(reads[-1]) + 1 if reads.size else 0
    trailing = [
        i
        for i in range(first_trailing, n)
        if OperationKind(int(ops[i])) is not OperationKind.INIT
    ]
    trailing_ops = frozenset(OperationKind(int(ops[i])) for i in trailing)
    trailing_positions = {
        int(positions[i]) for i in trailing if positions[i] != NO_POSITION
    }
    trailing_max_size = max((int(sizes[i]) for i in trailing), default=0)

    return ProfileFeatures(
        kind=profile.kind,
        total_events=n,
        read_kind_events=int(np.count_nonzero(kinds == AccessKind.READ)),
        op_counts=profile.op_histogram(),
        insert_front=insert_front,
        insert_back=insert_back,
        delete_front=delete_front,
        delete_back=delete_back,
        read_front=read_front,
        read_back=read_back,
        end_events=int(np.count_nonzero(at_front | at_back)),
        sort_count=int(sort_indices.size),
        last_sort_index=int(sort_indices[-1]) if sort_indices.size else -1,
        trailing_writes=len(trailing),
        trailing_ops=trailing_ops,
        trailing_distinct_positions=len(trailing_positions),
        trailing_max_size=trailing_max_size,
        patterns=analysis.patterns,
    )
