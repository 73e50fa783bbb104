"""Per-instance analysis as one fold: features, patterns and work/span.

Every quantity a use-case rule thresholds is an order-preserving fold
over an instance's events, so :class:`InstanceFold` computes all of
them in a single O(1)-per-event pass — the scalar counters of
:class:`ProfileFeatures`, phase segmentation into the runs of a
:class:`~repro.patterns.phases.RunSegmenter`, and the happens-before
:class:`~repro.whatif.dag.LaneSummary` the what-if profiler reads
(TASKPROF-style work/span, PAPERS.md).  Memory is O(threads + runs)
plus the write-without-read tail's distinct positions
(``InstanceFold.trailing_positions``), which a read empties and which
never holds more than the instance's largest size: Write-Without-Read
thresholds their exact count against that size.  A run keeps a count of
its distinct positions, not the positions, so a long run costs what a
short one does.

The fold has one entry, :meth:`InstanceFold.fold_raws`: a batch of raw
event tuples folded in one loop with the whole state in locals.  It is
the only analysis implementation:

- batch :class:`~repro.usecases.engine.UseCaseEngine` runs it once
  over a finished profile via :func:`features_of`, whose features also
  carry the lanes' work/span for the what-if ranking;
- :func:`~repro.patterns.phases.segment` and
  :func:`~repro.whatif.dag.fold_profile` are thin calls of it; and
- :class:`~repro.service.streaming.StreamingUseCaseEngine` keeps one
  fold per live instance, folds each window's events of that instance
  as they arrive, and checkpoints it through :meth:`InstanceFold.to_dict`.

Both hand the resulting :class:`ProfileFeatures` to the same
:meth:`~repro.usecases.rules.Rule.evaluate_features` implementations,
so equal event streams yield equal use cases *and* equal evidence.

Patterns are built when they are read, not when features are taken.
Most instances fire no rule, and the rules test their scalar
preconditions first, so an instance pays for classification only once
a rule that scans patterns passes its checks (or a rule fires and the
report needs them).  :meth:`InstanceFold.features` is a snapshot: it
copies the scalars and op counts, keeps the closed runs (which never
change) and copies each open run's state, so features read after the
fold moved on still describe the events folded when they were taken.
The batch :func:`features_of` owns its fold and skips those copies.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from ..events.event import RawEvent
from ..events.profile import AllocationSite, RuntimeProfile, site_from_dict, site_to_dict
from ..events.types import AccessKind, OperationKind, StructureKind
from ..patterns.detector import DetectorConfig, patterns_from_runs
from ..patterns.model import AccessPattern
from ..patterns.phases import BREAKER_OPS, RUN_CATEGORIES, TRANSPARENT_OPS, Run, RunSegmenter
from ..whatif.dag import LaneSummary, WorkSpan

_READ = int(AccessKind.READ)
_INSERT = int(OperationKind.INSERT)
_DELETE = int(OperationKind.DELETE)
_OP_READ = int(OperationKind.READ)
_SORT = int(OperationKind.SORT)
_INIT = int(OperationKind.INIT)

#: ``_OPS[code]`` is the :class:`OperationKind` member of an op code — an
#: index instead of the enum's call-by-value lookup.
_OPS = tuple(OperationKind)

_NO_OPS: frozenset = frozenset()


class ProfileFeatures:
    """Everything the eight use-case rules measure, as plain scalars.

    Attributes
    ----------
    kind:
        Container species of the instance.
    total_events:
        Number of events in the profile (all operations, including
        transparent ``Init``/``ForAll`` markers).
    read_kind_events:
        Events whose trivial :class:`AccessKind` is ``READ``.
    op_counts:
        Event count per compound :class:`OperationKind` (zero entries
        may be omitted; use :meth:`count`).
    insert_front / insert_back (and delete/read twins):
        Positional events of that operation targeting the front
        (``position == 0``) resp. the back (``position >= size - 1``).
        An event can hit both ends of a one-element structure and then
        counts in both.  Here "back" is ``position >= size - 1`` with no
        ``size == 0`` guard, unlike the segmenter's ``targets_back``.
    end_events:
        Events that hit the front or the back (each counted once).
    sort_count / last_sort_index:
        ``Sort`` operations seen, and the profile-relative index of the
        last one (``-1`` when none) — the Sort-After-Insert rule only
        needs the latest sort to decide "a sort follows this phase".
    trailing_writes / trailing_ops / trailing_distinct_positions /
    trailing_max_size:
        State of the write-without-read tail: non-``Init`` events after
        the last read-kind event, the operation kinds among them, how
        many distinct positions they touched, and the largest structure
        size they observed.
    patterns:
        The detected access patterns (maximal consistent runs), in
        ``start`` order.  Features from a fold classify them on first
        read (see :meth:`InstanceFold.features`); the tuple is then kept.
    workspan:
        Work and span of the instance's happens-before DAG, from the
        fold's lane summary — what the what-if ranking reads.  Not a
        rule input, so it takes no part in equality.
    max_size:
        Largest structure size among the folded events — what the
        what-if region estimates read.  ``None`` when the fold was
        restored from a checkpoint, which does not carry it.  Not a
        rule input, so it takes no part in equality.
    """

    #: The rule inputs, in constructor order: what equality compares.
    _COMPARED = (
        "kind",
        "total_events",
        "read_kind_events",
        "op_counts",
        "insert_front",
        "insert_back",
        "delete_front",
        "delete_back",
        "read_front",
        "read_back",
        "end_events",
        "sort_count",
        "last_sort_index",
        "trailing_writes",
        "trailing_ops",
        "trailing_distinct_positions",
        "trailing_max_size",
        "patterns",
    )

    # ``patterns``, the last rule input, is a property over ``_patterns``.
    __slots__ = (*_COMPARED[:-1], "_patterns", "_runs", "_config", "workspan", "max_size")

    def __init__(
        self,
        kind: StructureKind,
        total_events: int,
        read_kind_events: int = 0,
        op_counts: Mapping[OperationKind, int] | None = None,
        insert_front: int = 0,
        insert_back: int = 0,
        delete_front: int = 0,
        delete_back: int = 0,
        read_front: int = 0,
        read_back: int = 0,
        end_events: int = 0,
        sort_count: int = 0,
        last_sort_index: int = -1,
        trailing_writes: int = 0,
        trailing_ops: frozenset = _NO_OPS,
        trailing_distinct_positions: int = 0,
        trailing_max_size: int = 0,
        patterns: tuple[AccessPattern, ...] = (),
        workspan: WorkSpan | None = None,
        max_size: int | None = None,
    ) -> None:
        self.kind = kind
        self.total_events = total_events
        self.read_kind_events = read_kind_events
        self.op_counts = {} if op_counts is None else op_counts
        self.insert_front = insert_front
        self.insert_back = insert_back
        self.delete_front = delete_front
        self.delete_back = delete_back
        self.read_front = read_front
        self.read_back = read_back
        self.end_events = end_events
        self.sort_count = sort_count
        self.last_sort_index = last_sort_index
        self.trailing_writes = trailing_writes
        self.trailing_ops = trailing_ops
        self.trailing_distinct_positions = trailing_distinct_positions
        self.trailing_max_size = trailing_max_size
        self._patterns = patterns
        self._runs = None
        self._config = None
        self.workspan = workspan
        self.max_size = max_size

    @property
    def patterns(self) -> tuple[AccessPattern, ...]:
        runs = self._runs
        if runs is not None:
            self._patterns = patterns_from_runs(runs, self._config)
            self._runs = self._config = None
        return self._patterns

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in self._COMPARED
        )

    __hash__ = None  # type: ignore[assignment]  # op_counts is a dict

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name in (*self._COMPARED, "workspan", "max_size")
        )
        return f"ProfileFeatures({fields})"

    # -- derived quantities the rules threshold --------------------------

    def count(self, op: OperationKind) -> int:
        """Events with the given compound operation kind."""
        return self.op_counts.get(op, 0)

    @property
    def read_fraction(self) -> float:
        """Share of events that are trivial reads; 0.0 when empty."""
        if self.total_events == 0:
            return 0.0
        return self.read_kind_events / self.total_events

    @property
    def end_fraction(self) -> float:
        """Share of events that hit the front or back of the structure."""
        if self.total_events == 0:
            return 0.0
        return self.end_events / self.total_events

    def patterns_where(self, predicate) -> list[AccessPattern]:
        return [p for p in self.patterns if predicate(p)]

    def events_in(self, predicate) -> int:
        """Total events across patterns selected by ``predicate``."""
        return sum(p.length for p in self.patterns if predicate(p))

    def fraction_in(self, predicate) -> float:
        """Share of the profile's events inside matching patterns."""
        if self.total_events == 0:
            return 0.0
        return self.events_in(predicate) / self.total_events


def end_purity(count: int, front: int, back: int) -> tuple[str | None, float, int]:
    """Which end an operation targets and how consistently.

    Mirrors the rules' historical ``_end_purity`` mask arithmetic:
    ``count`` is every event of the operation (positional or not),
    ``front``/``back`` the positional subsets.  Returns ``(end, purity,
    count)`` where ``end`` is ``"front"`` / ``"back"`` / ``None``.
    """
    if count == 0:
        return None, 0.0, 0
    if front >= back:
        return "front", front / count, count
    return "back", back / count, count


class InstanceFold:
    """All analysis state of one instance, updated a batch at a time.

    :meth:`fold_raws` takes raw event tuples in per-instance order;
    ``index`` counts events folded so far, which makes every pattern
    bound profile-relative exactly as in a batch profile.  Snapshots
    (:meth:`patterns`, :meth:`features`) are non-destructive, so the
    fold keeps accepting events afterwards.
    """

    #: Integer counters serialized verbatim by :meth:`to_dict`.
    _COUNTERS = (
        "insert_front",
        "insert_back",
        "delete_front",
        "delete_back",
        "read_front",
        "read_back",
        "end_events",
        "sort_count",
        "last_sort_index",
    )

    __slots__ = (
        "instance_id",
        "kind",
        "site",
        "label",
        "index",
        "read_kind",
        "op_counts",
        *_COUNTERS,
        "trailing",
        "trailing_ops",
        "trailing_positions",
        "trailing_max_size",
        "segmenter",
        "lanes",
        "max_size",
    )

    def __init__(
        self,
        instance_id: int,
        kind: StructureKind,
        site: AllocationSite | None,
        label: str,
        max_gap: int,
    ) -> None:
        self.instance_id = instance_id
        self.kind = kind
        self.site = site
        self.label = label
        self.index = 0
        self.read_kind = 0
        self.op_counts: dict[int, int] = {}
        self.insert_front = 0
        self.insert_back = 0
        self.delete_front = 0
        self.delete_back = 0
        self.read_front = 0
        self.read_back = 0
        self.end_events = 0
        self.sort_count = 0
        self.last_sort_index = -1
        self.trailing = 0
        self.trailing_ops: set[int] = set()
        self.trailing_positions: set[int] = set()
        self.trailing_max_size = 0
        self.segmenter = RunSegmenter(max_gap)
        self.lanes = LaneSummary()
        #: Largest size folded so far; not checkpointed, so ``None``
        #: after :meth:`from_dict`.
        self.max_size: int | None = 0

    @classmethod
    def of_profile(cls, profile: RuntimeProfile, max_gap: int) -> "InstanceFold":
        """A fold over a whole batch profile (one pass over its raws)."""
        fold = cls(profile.instance_id, profile.kind, profile.site, profile.label, max_gap)
        fold.fold_raws(profile.raws)
        return fold

    def fold_raws(self, raws: Iterable[RawEvent]) -> None:
        """Fold raw event tuples of this instance, in per-instance order.

        One loop, with every counter, the trailing tail, the open runs
        and the lane summary's scalars held in locals and written back
        at the end; the result equals folding the events one at a time
        in any window split.  Per event, in order: the lane summary
        (a read follows its lane and the latest write; a write also
        follows the latest read; one unit each), the op count, the
        write-without-read tail (a read resets it, ``Init`` neither
        joins nor resets it), the front/back counters, the last sort,
        and segmentation (transparent ops are skipped; breakers and
        position-less events close their thread's run; run operations
        extend or restart it).  The largest size seen is tracked too
        (not checkpointed).
        """
        counts = self.op_counts
        read_kind = self.read_kind
        insert_front = self.insert_front
        insert_back = self.insert_back
        delete_front = self.delete_front
        delete_back = self.delete_back
        read_front = self.read_front
        read_back = self.read_back
        end_events = self.end_events
        sort_count = self.sort_count
        last_sort_index = self.last_sort_index
        trailing = self.trailing
        trailing_ops = self.trailing_ops
        trailing_positions = self.trailing_positions
        trailing_max_size = self.trailing_max_size
        segmenter = self.segmenter
        max_gap = segmenter.max_gap
        open_runs = segmenter.open
        completed = segmenter.completed
        lanes = self.lanes
        lane_end = lanes.lane_end
        last_write_end = lanes.last_write_end
        max_read_end = lanes.max_read_end
        max_size = self.max_size or 0
        first = self.index
        i = first - 1
        # The current thread's lane end and open run are held in locals
        # until the thread changes (most instances see one thread).  Its
        # lane end goes back to the dict then, and at the end; every
        # change of an open run is written through at once.
        current = None
        lane = 0.0
        run = None

        for i, (_, op, kind, position, size, thread_id, _) in enumerate(raws, first):
            if size > max_size:
                max_size = size
            if thread_id != current:
                if current is not None:
                    lane_end[current] = lane
                current = thread_id
                lane = lane_end.get(thread_id, 0.0)
                run = open_runs.get(thread_id)
            start = lane if lane > last_write_end else last_write_end
            try:
                counts[op] += 1
            except KeyError:
                counts[op] = 1
            if kind == _READ:
                end = start + 1.0
                if end > max_read_end:
                    max_read_end = end
                read_kind += 1
                if trailing:
                    trailing = 0
                    trailing_ops.clear()
                    trailing_positions.clear()
                    trailing_max_size = 0
            else:
                if max_read_end > start:
                    start = max_read_end
                end = start + 1.0
                last_write_end = end
                if op != _INIT:
                    trailing += 1
                    trailing_ops.add(op)
                    if position is not None:
                        trailing_positions.add(position)
                    if size > trailing_max_size:
                        trailing_max_size = size
            lane = end

            if op == _SORT:
                sort_count += 1
                last_sort_index = i

            if position is None:
                if op in TRANSPARENT_OPS:
                    continue
                if run is not None:
                    completed.append(run)
                    run = None
                open_runs[thread_id] = None
                continue

            at_front = position == 0
            at_back = position >= size - 1
            if at_front or at_back:
                end_events += 1
                if op == _INSERT:
                    if at_front:
                        insert_front += 1
                    if at_back:
                        insert_back += 1
                elif op == _DELETE:
                    if at_front:
                        delete_front += 1
                    if at_back:
                        delete_back += 1
                elif op == _OP_READ:
                    if at_front:
                        read_front += 1
                    if at_back:
                        read_back += 1

            category = RUN_CATEGORIES.get(op)
            if category is None:
                if op in TRANSPARENT_OPS:
                    continue
                if op in BREAKER_OPS:
                    if run is not None:
                        completed.append(run)
                        run = None
                    open_runs[thread_id] = None
                else:
                    open_runs.setdefault(thread_id, None)
                continue
            if run is not None:
                delta = position - run.last_position
                if (
                    category == run.category
                    and -max_gap <= delta <= max_gap
                    and (delta == 0 or run.direction == 0 or (delta > 0) == (run.direction > 0))
                ):
                    if delta != 0 and run.direction == 0:
                        run.direction = 1 if delta > 0 else -1
                    run.length += 1
                    run.stop = i + 1
                    if delta != 0:
                        # One direction: a nonzero step is a new position.
                        run.distinct_positions += 1
                    run.last_position = position
                    run.size_at_end = size
                    if run.all_front and not at_front:
                        run.all_front = False
                    if run.all_back and (size == 0 or not at_back):
                        run.all_back = False
                    continue
                completed.append(run)
            # Positional, in field order (category, thread_id, start,
            # stop, length, direction, first/last position, distinct
            # positions, size_at_end, all_front, all_back).
            open_runs[thread_id] = run = Run(
                category,
                thread_id,
                i,
                i + 1,
                1,
                0,
                position,
                position,
                1,
                size,
                at_front,
                size != 0 and at_back,
            )

        if current is not None:
            lane_end[current] = lane
        self.index = i + 1
        lanes.work += self.index - first
        self.read_kind = read_kind
        self.insert_front = insert_front
        self.insert_back = insert_back
        self.delete_front = delete_front
        self.delete_back = delete_back
        self.read_front = read_front
        self.read_back = read_back
        self.end_events = end_events
        self.sort_count = sort_count
        self.last_sort_index = last_sort_index
        self.trailing = trailing
        self.trailing_max_size = trailing_max_size
        lanes.last_write_end = last_write_end
        lanes.max_read_end = max_read_end
        if self.max_size is not None:
            self.max_size = max_size

    # -- snapshots (non-destructive) ------------------------------------

    def patterns(self, config: DetectorConfig) -> tuple[AccessPattern, ...]:
        """Classified patterns as the batch detector would emit them now."""
        return patterns_from_runs(self.segmenter.runs(), config)

    def features(self, config: DetectorConfig, final: bool = False) -> ProfileFeatures:
        """Features of everything folded so far, patterns classified on
        first read.

        They are a snapshot: the op counts are copied, closed runs never
        change, and open runs are copied, so folding more events
        afterwards leaves them as they were.
        ``final=True`` skips those copies, for a caller that folds
        nothing more into this fold (:func:`features_of`).
        """
        trailing_ops = self.trailing_ops
        # Positional, in field order: this runs once per instance.
        features = ProfileFeatures(
            self.kind,
            self.index,
            self.read_kind,
            self.op_counts if final else dict(self.op_counts),
            self.insert_front,
            self.insert_back,
            self.delete_front,
            self.delete_back,
            self.read_front,
            self.read_back,
            self.end_events,
            self.sort_count,
            self.last_sort_index,
            self.trailing,
            frozenset([_OPS[op] for op in trailing_ops]) if trailing_ops else _NO_OPS,
            len(self.trailing_positions),
            self.trailing_max_size,
            (),
            self.lanes.workspan(),
            self.max_size,
        )
        segmenter = self.segmenter
        features._runs = segmenter.runs() if final else segmenter.snapshot()
        features._config = config
        return features

    # -- serialization (checkpoint / SNAPSHOT payloads) ------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "instance_id": self.instance_id,
            "kind": self.kind.value,
            "site": site_to_dict(self.site),
            "label": self.label,
            "index": self.index,
            "read_kind": self.read_kind,
            "op_counts": {str(op): n for op, n in self.op_counts.items()},
            **{name: getattr(self, name) for name in self._COUNTERS},
            "trailing": self.trailing,
            "trailing_ops": sorted(self.trailing_ops),
            "trailing_positions": sorted(self.trailing_positions),
            "trailing_max_size": self.trailing_max_size,
            "builders": {
                str(tid): (None if run is None else run.to_dict())
                for tid, run in self.segmenter.open.items()
            },
            "completed_runs": [run.to_dict() for run in self.segmenter.completed],
            "lanes": self.lanes.to_dict(),
        }

    @classmethod
    def from_dict(cls, obj: dict[str, Any], max_gap: int) -> "InstanceFold":
        fold = cls(
            int(obj["instance_id"]),
            StructureKind(obj["kind"]),
            site_from_dict(obj.get("site")),
            obj.get("label", ""),
            max_gap,
        )
        fold.index = obj["index"]
        fold.read_kind = obj["read_kind"]
        fold.op_counts = {int(op): n for op, n in obj["op_counts"].items()}
        for name in cls._COUNTERS:
            setattr(fold, name, obj[name])
        fold.trailing = obj["trailing"]
        fold.trailing_ops = set(obj["trailing_ops"])
        fold.trailing_positions = set(obj["trailing_positions"])
        fold.trailing_max_size = obj["trailing_max_size"]
        fold.segmenter.open = {
            int(tid): (None if run is None else Run.from_dict(run))
            for tid, run in obj["builders"].items()
        }
        fold.segmenter.completed = [Run.from_dict(r) for r in obj["completed_runs"]]
        # Checkpoints written before the what-if profiler existed have no
        # lane summary; recover them with an empty one rather than failing.
        fold.lanes = LaneSummary.from_dict(obj.get("lanes"))
        fold.max_size = None
        return fold


def features_of(profile: RuntimeProfile, config: DetectorConfig) -> ProfileFeatures:
    """Fold a whole batch profile, in one pass over its raws, into its
    :class:`ProfileFeatures` (work/span included)."""
    return InstanceFold.of_profile(profile, config.max_gap).features(config, final=True)
