"""Per-instance runtime profiles.

A runtime profile is the chronological sequence of all access events to
one data structure instance, from initialization to deallocation (§II-B).
Profiles are the unit of all downstream analysis: pattern detection,
use-case derivation and visualization all consume a
:class:`RuntimeProfile`.

A profile stores each event as its *record*: the logical ``seq`` plus
the raw tuple the recorder produced (:data:`~repro.events.event.RawEvent`),
so assembly (:func:`route_records`) is a routing pass that allocates
nothing per event.  Analysis iterates :attr:`RuntimeProfile.raws`
(:meth:`RuntimeProfile.records` adds each ``seq``);
:class:`~repro.events.event.AccessEvent` objects are an on-demand view
(:attr:`RuntimeProfile.events`, iteration, indexing), built on first use
and cached until the next append.  For descriptive statistics and plots
the profile also exposes parallel numpy arrays (sequence numbers, op
codes, kinds, positions, sizes, thread ids), built lazily from the
records and cached the same way.  numpy itself is imported only there,
on first use: the record and analysis paths never load it.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Any

from .event import AccessEvent, RawEvent, materialize
from .types import AccessKind, OperationKind, StructureKind

if TYPE_CHECKING:
    import numpy as np

#: Sentinel stored in the positions array for whole-structure events.
NO_POSITION = -1

#: The records of a profile that has none yet.
_NO_RECORDS: tuple = ()


@dataclass(frozen=True, slots=True)
class AllocationSite:
    """Where a data structure instance was created.

    DSspy binds every event to its instantiation location so the
    engineer can navigate from a use case back to source code
    (Table V lists class/method/position per use case).
    """

    filename: str
    lineno: int
    function: str = "<module>"
    variable: str = ""

    def __str__(self) -> str:
        var = f" ({self.variable})" if self.variable else ""
        return f"{self.filename}:{self.lineno} in {self.function}{var}"


def site_to_dict(site: AllocationSite | None) -> dict[str, Any] | None:
    """JSON form of a site, as REGISTER entries and checkpoints carry it."""
    if site is None:
        return None
    return {
        "filename": site.filename,
        "lineno": site.lineno,
        "function": site.function,
        "variable": site.variable,
    }


def site_from_dict(obj: dict[str, Any] | None) -> AllocationSite | None:
    """Inverse of :func:`site_to_dict`, lenient about missing fields."""
    if obj is None:
        return None
    return AllocationSite(
        obj.get("filename", "?"),
        int(obj.get("lineno", 0)),
        obj.get("function", "<module>"),
        obj.get("variable", ""),
    )


class RuntimeProfile:
    """Chronologically ordered access events of one instance.

    Stores records (``seq`` numbers and raw tuples, in parallel) only;
    :attr:`events` and the numpy arrays are views built from them.

    Parameters
    ----------
    instance_id:
        Collector-unique id of the instance.
    kind:
        Container species, e.g. :attr:`StructureKind.LIST`.
    site:
        Allocation site, if known.
    label:
        Optional human-readable name (variable name or workload role).
    """

    __slots__ = (
        "instance_id",
        "kind",
        "site",
        "label",
        "_seqs",
        "_raws",
        "_events",
        "_arrays",
    )

    def __init__(
        self,
        instance_id: int,
        kind: StructureKind = StructureKind.LIST,
        site: AllocationSite | None = None,
        label: str = "",
    ) -> None:
        self.instance_id = instance_id
        self.kind = kind
        self.site = site
        self.label = label
        # The stores are made when the first record arrives: most
        # instances of an allocation-heavy program are registered long
        # before their events are routed, and empty containers apiece add
        # to every garbage collection in between.  ``seq`` numbers go in
        # an int64 array, which the collector does not track at all.
        self._seqs: array | tuple = _NO_RECORDS
        self._raws: list[RawEvent] | tuple = _NO_RECORDS
        self._events: list[AccessEvent] | None = None
        self._arrays: dict[str, np.ndarray] | None = None

    # -- construction -------------------------------------------------

    def append_record(self, seq: int, raw: RawEvent) -> None:
        """Add one event as its record; ``seq`` must not decrease."""
        if self._raws is _NO_RECORDS:
            self._seqs = array("q")
            self._raws = []
        self._seqs.append(seq)
        self._raws.append(raw)
        self._events = None
        self._arrays = None

    def append(self, event: AccessEvent) -> None:
        """Add an event (stored as its record)."""
        self.append_record(
            event.seq,
            (
                event.instance_id,
                int(event.op),
                int(event.kind),
                event.position,
                event.size,
                event.thread_id,
                event.wall_time,
            ),
        )

    def extend(self, events: Iterable[AccessEvent]) -> None:
        for event in events:
            self.append(event)

    @classmethod
    def from_events(
        cls,
        events: Sequence[AccessEvent],
        kind: StructureKind = StructureKind.LIST,
        site: AllocationSite | None = None,
        label: str = "",
    ) -> "RuntimeProfile":
        """Build a profile from a pre-assembled event sequence."""
        instance_id = events[0].instance_id if events else 0
        profile = cls(instance_id, kind=kind, site=site, label=label)
        profile.extend(events)
        return profile

    def _like(self, label: str | None = None) -> "RuntimeProfile":
        """An empty profile with this one's metadata."""
        return RuntimeProfile(
            self.instance_id,
            kind=self.kind,
            site=self.site,
            label=self.label if label is None else label,
        )

    # -- records: the stored form ---------------------------------------

    @property
    def raws(self) -> Sequence[RawEvent]:
        """The raw tuples in order (read-only) -- what the analysis
        folds iterate; they need no ``seq``, and skipping it is the
        cheapest per-event loop."""
        return self._raws

    def records(self) -> Iterator[tuple[int, RawEvent]]:
        """``(seq, raw)`` per event, in order, for readers that need the
        logical timestamp too (archive, merge, views)."""
        return zip(self._seqs, self._raws)

    # -- sequence protocol (AccessEvent views) ----------------------------

    def __len__(self) -> int:
        return len(self._raws)

    def __iter__(self) -> Iterator[AccessEvent]:
        return iter(self.events)

    def __getitem__(self, index):
        return self.events[index]

    def __repr__(self) -> str:
        where = f" @ {self.site}" if self.site else ""
        return (
            f"RuntimeProfile(#{self.instance_id} {self.kind.value}, "
            f"{len(self)} events{where})"
        )

    @property
    def events(self) -> Sequence[AccessEvent]:
        """The events as :class:`AccessEvent` objects, materialized on
        first use and cached until the next append."""
        if self._events is None:
            self._events = [materialize(seq, raw) for seq, raw in self.records()]
        return self._events

    # -- vectorized views ----------------------------------------------

    def _build_arrays(self) -> dict[str, np.ndarray]:
        import numpy as np

        raws = self._raws
        n = len(raws)

        def column(index: int, dtype) -> np.ndarray:
            return np.fromiter(map(itemgetter(index), raws), dtype=dtype, count=n)

        return {
            "seq": np.array(self._seqs, dtype=np.int64),
            "op": column(1, np.int8),
            "kind": column(2, np.int8),
            "position": np.fromiter(
                (NO_POSITION if raw[3] is None else raw[3] for raw in raws),
                dtype=np.int64,
                count=n,
            ),
            "size": column(4, np.int64),
            "thread": column(5, np.int64),
        }

    def _array(self, name: str) -> np.ndarray:
        if self._arrays is None:
            self._arrays = self._build_arrays()
        return self._arrays[name]

    @property
    def seqs(self) -> np.ndarray:
        """Logical timestamps, one per event."""
        return self._array("seq")

    @property
    def ops(self) -> np.ndarray:
        """:class:`OperationKind` codes as ``int8``."""
        return self._array("op")

    @property
    def kinds(self) -> np.ndarray:
        """:class:`AccessKind` codes as ``int8``."""
        return self._array("kind")

    @property
    def positions(self) -> np.ndarray:
        """Target indices; ``NO_POSITION`` for whole-structure events."""
        return self._array("position")

    @property
    def sizes(self) -> np.ndarray:
        """Structure size at each access."""
        return self._array("size")

    @property
    def threads(self) -> np.ndarray:
        """Thread id per event."""
        return self._array("thread")

    # -- simple aggregate queries ---------------------------------------

    def count(self, op: OperationKind) -> int:
        """Number of events with the given compound operation kind."""
        import numpy as np

        return int(np.count_nonzero(self.ops == op))

    def count_kind(self, kind: AccessKind) -> int:
        """Number of events with the given trivial read/write kind."""
        import numpy as np

        return int(np.count_nonzero(self.kinds == kind))

    @property
    def read_fraction(self) -> float:
        """Share of events that are reads; 0.0 on an empty profile."""
        if not self._raws:
            return 0.0
        return self.count_kind(AccessKind.READ) / len(self._raws)

    @property
    def write_fraction(self) -> float:
        if not self._raws:
            return 0.0
        return self.count_kind(AccessKind.WRITE) / len(self._raws)

    @property
    def max_size(self) -> int:
        """Largest element count the structure reached."""
        if not self._raws:
            return 0
        return int(self.sizes.max())

    @property
    def final_size(self) -> int:
        return int(self.sizes[-1]) if self._raws else 0

    @property
    def thread_ids(self) -> list[int]:
        """Distinct thread ids observed, ascending."""
        if not self._raws:
            return []
        import numpy as np

        return [int(t) for t in np.unique(self.threads)]

    @property
    def is_multithreaded(self) -> bool:
        return len(self.thread_ids) > 1

    def split_by_thread(self) -> dict[int, "RuntimeProfile"]:
        """Per-thread sub-profiles, preserving chronological order.

        Pattern detection treats interleaved threads separately (§IV
        captures thread ids precisely to recover successive accesses of
        each thread).
        """
        out: dict[int, RuntimeProfile] = {}
        for seq, raw in self.records():
            thread_id = raw[5]  # RawEvent layout
            sub = out.get(thread_id)
            if sub is None:
                sub = out[thread_id] = self._like(
                    f"{self.label}[t{thread_id}]" if self.label else ""
                )
            sub.append_record(seq, raw)
        return out

    def slice(self, start: int, stop: int) -> "RuntimeProfile":
        """Sub-profile covering events ``start:stop`` (by index)."""
        sub = self._like()
        if self._raws:
            sub._seqs = self._seqs[start:stop]
            sub._raws = self._raws[start:stop]
        return sub

    def op_histogram(self) -> dict[OperationKind, int]:
        """Event count per compound operation kind (zero entries omitted)."""
        if not self._raws:
            return {}
        import numpy as np

        values, counts = np.unique(self.ops, return_counts=True)
        return {OperationKind(int(v)): int(c) for v, c in zip(values, counts)}


def route_records(
    profiles: Mapping[int, RuntimeProfile], raws: Sequence[RawEvent], start: int = 0
) -> None:
    """Append ``raws[start:]`` to the profiles of their instances.

    The raw append path: the list index of each raw tuple is its
    logical ``seq`` (channel arrival order), and the tuple itself is
    stored as the record -- no per-event object is built.  Tuples of
    instances missing from ``profiles`` are dropped.
    """
    sinks: dict[int, tuple | None] = {}
    for seq in range(start, len(raws)):
        raw = raws[seq]
        instance_id = raw[0]
        try:
            sink = sinks[instance_id]
        except KeyError:
            profile = profiles.get(instance_id)
            if profile is None:
                sink = None
            else:
                profile._events = None
                profile._arrays = None
                if profile._raws is _NO_RECORDS:
                    profile._seqs = array("q")
                    profile._raws = []
                sink = (profile._seqs.append, profile._raws.append)
            sinks[instance_id] = sink
        if sink is not None:
            add_seq, add_raw = sink
            add_seq(seq)
            add_raw(raw)
