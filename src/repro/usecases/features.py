"""Per-instance analysis as one fold: features, patterns and work/span.

Every quantity a use-case rule thresholds is an order-preserving fold
over an instance's events, so :class:`InstanceFold` computes all of
them in a single O(1)-per-event pass — the scalar counters of
:class:`ProfileFeatures`, phase segmentation through the shared
:class:`~repro.patterns.phases.RunSegmenter`, and the happens-before
:class:`~repro.whatif.dag.LaneSummary` the what-if profiler reads
(TASKPROF-style work/span, PAPERS.md) — with memory bounded by
O(threads + runs), never O(events).

The fold is the only analysis implementation:

- batch :class:`~repro.usecases.engine.UseCaseEngine` runs it over a
  finished profile via :func:`features_of`, and
- :class:`~repro.service.streaming.StreamingUseCaseEngine` keeps one
  per live instance, feeds it as windows arrive, and checkpoints it
  through :meth:`InstanceFold.to_dict`.

Both hand the resulting :class:`ProfileFeatures` to the same
:meth:`~repro.usecases.rules.Rule.evaluate_features` implementations,
so equal event streams yield equal use cases *and* equal evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..events.profile import AllocationSite, RuntimeProfile, site_from_dict, site_to_dict
from ..events.types import AccessKind, OperationKind, StructureKind
from ..patterns.detector import DetectorConfig, patterns_from_runs
from ..patterns.model import AccessPattern
from ..patterns.phases import Run, RunSegmenter
from ..whatif.dag import LaneSummary

_READ = int(AccessKind.READ)
_INSERT = int(OperationKind.INSERT)
_DELETE = int(OperationKind.DELETE)
_OP_READ = int(OperationKind.READ)
_SORT = int(OperationKind.SORT)
_INIT = int(OperationKind.INIT)


@dataclass(frozen=True, slots=True)
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
        ``start`` order.
    """

    kind: StructureKind
    total_events: int
    read_kind_events: int = 0
    op_counts: Mapping[OperationKind, int] = field(default_factory=dict)
    insert_front: int = 0
    insert_back: int = 0
    delete_front: int = 0
    delete_back: int = 0
    read_front: int = 0
    read_back: int = 0
    end_events: int = 0
    sort_count: int = 0
    last_sort_index: int = -1
    trailing_writes: int = 0
    trailing_ops: frozenset = frozenset()
    trailing_distinct_positions: int = 0
    trailing_max_size: int = 0
    patterns: tuple[AccessPattern, ...] = ()

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
    """All analysis state of one instance, updated one event at a time.

    ``feed`` takes an event's fields in per-instance order; ``index``
    counts events fed so far, which makes every pattern bound
    profile-relative exactly as in a batch profile.  Snapshots
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

    def feed(
        self, op: int, kind: int, position: int | None, size: int, thread_id: int
    ) -> None:
        i = self.index
        self.index = i + 1
        is_read = kind == _READ
        self.lanes.feed(thread_id, is_read)

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

        self.segmenter.feed(i, op, position, size, thread_id)

    # -- snapshots (non-destructive) ------------------------------------

    def patterns(self, config: DetectorConfig) -> tuple[AccessPattern, ...]:
        """Classified patterns as the batch detector would emit them now."""
        return patterns_from_runs(self.segmenter.runs(), config)

    def features(self, config: DetectorConfig) -> ProfileFeatures:
        return ProfileFeatures(
            kind=self.kind,
            total_events=self.index,
            read_kind_events=self.read_kind,
            op_counts=dict(self.op_counts),
            insert_front=self.insert_front,
            insert_back=self.insert_back,
            delete_front=self.delete_front,
            delete_back=self.delete_back,
            read_front=self.read_front,
            read_back=self.read_back,
            end_events=self.end_events,
            sort_count=self.sort_count,
            last_sort_index=self.last_sort_index,
            trailing_writes=self.trailing,
            trailing_ops=frozenset(OperationKind(op) for op in self.trailing_ops),
            trailing_distinct_positions=len(self.trailing_positions),
            trailing_max_size=self.trailing_max_size,
            patterns=self.patterns(config),
        )

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
        return fold


def features_of(profile: RuntimeProfile, config: DetectorConfig) -> ProfileFeatures:
    """Fold a whole batch profile into its :class:`ProfileFeatures`."""
    fold = InstanceFold(
        profile.instance_id, profile.kind, profile.site, profile.label, config.max_gap
    )
    feed = fold.feed
    for event in profile.events:
        feed(event.op, event.kind, event.position, event.size, event.thread_id)
    return fold.features(config)
