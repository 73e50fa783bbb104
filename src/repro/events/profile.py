"""Per-instance runtime profiles.

A runtime profile is the chronological sequence of all access events to
one data structure instance, from initialization to deallocation (§II-B).
Profiles are the unit of all downstream analysis: pattern detection,
use-case derivation and visualization all consume a
:class:`RuntimeProfile`.

For descriptive statistics and plots the profile also exposes parallel
numpy arrays (sequence numbers, op codes, kinds, positions, sizes,
thread ids), built lazily and cached; the use-case analysis folds the
event list directly (:class:`~repro.usecases.features.InstanceFold`).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from .event import AccessEvent
from .types import AccessKind, OperationKind, StructureKind

#: Sentinel stored in the positions array for whole-structure events.
NO_POSITION = -1


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
        filename=obj.get("filename", "?"),
        lineno=int(obj.get("lineno", 0)),
        function=obj.get("function", "<module>"),
        variable=obj.get("variable", ""),
    )


class RuntimeProfile:
    """Chronologically ordered access events of one instance.

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
        self._events: list[AccessEvent] = []
        self._arrays: dict[str, np.ndarray] | None = None

    # -- construction -------------------------------------------------

    def append(self, event: AccessEvent) -> None:
        """Add an event; events must arrive in non-decreasing ``seq``."""
        self._events.append(event)
        self._arrays = None

    def extend(self, events: Iterable[AccessEvent]) -> None:
        self._events.extend(events)
        self._arrays = None

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

    # -- sequence protocol --------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[AccessEvent]:
        return iter(self._events)

    def __getitem__(self, index):
        return self._events[index]

    def __repr__(self) -> str:
        where = f" @ {self.site}" if self.site else ""
        return (
            f"RuntimeProfile(#{self.instance_id} {self.kind.value}, "
            f"{len(self._events)} events{where})"
        )

    @property
    def events(self) -> Sequence[AccessEvent]:
        return self._events

    # -- vectorized views ----------------------------------------------

    def _build_arrays(self) -> dict[str, np.ndarray]:
        n = len(self._events)
        seqs = np.empty(n, dtype=np.int64)
        ops = np.empty(n, dtype=np.int8)
        kinds = np.empty(n, dtype=np.int8)
        positions = np.empty(n, dtype=np.int64)
        sizes = np.empty(n, dtype=np.int64)
        threads = np.empty(n, dtype=np.int64)
        for i, ev in enumerate(self._events):
            seqs[i] = ev.seq
            ops[i] = ev.op
            kinds[i] = ev.kind
            positions[i] = NO_POSITION if ev.position is None else ev.position
            sizes[i] = ev.size
            threads[i] = ev.thread_id
        return {
            "seq": seqs,
            "op": ops,
            "kind": kinds,
            "position": positions,
            "size": sizes,
            "thread": threads,
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
        return int(np.count_nonzero(self.ops == op))

    def count_kind(self, kind: AccessKind) -> int:
        """Number of events with the given trivial read/write kind."""
        return int(np.count_nonzero(self.kinds == kind))

    @property
    def read_fraction(self) -> float:
        """Share of events that are reads; 0.0 on an empty profile."""
        if not self._events:
            return 0.0
        return self.count_kind(AccessKind.READ) / len(self._events)

    @property
    def write_fraction(self) -> float:
        if not self._events:
            return 0.0
        return self.count_kind(AccessKind.WRITE) / len(self._events)

    @property
    def max_size(self) -> int:
        """Largest element count the structure reached."""
        if not self._events:
            return 0
        return int(self.sizes.max())

    @property
    def final_size(self) -> int:
        return int(self.sizes[-1]) if self._events else 0

    @property
    def thread_ids(self) -> list[int]:
        """Distinct thread ids observed, ascending."""
        if not self._events:
            return []
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
        for ev in self._events:
            sub = out.get(ev.thread_id)
            if sub is None:
                sub = RuntimeProfile(
                    self.instance_id,
                    kind=self.kind,
                    site=self.site,
                    label=f"{self.label}[t{ev.thread_id}]" if self.label else "",
                )
                out[ev.thread_id] = sub
            sub.append(ev)
        return out

    def slice(self, start: int, stop: int) -> "RuntimeProfile":
        """Sub-profile covering events ``start:stop`` (by index)."""
        sub = RuntimeProfile(
            self.instance_id, kind=self.kind, site=self.site, label=self.label
        )
        sub.extend(self._events[start:stop])
        return sub

    def op_histogram(self) -> dict[OperationKind, int]:
        """Event count per compound operation kind (zero entries omitted)."""
        if not self._events:
            return {}
        values, counts = np.unique(self.ops, return_counts=True)
        return {OperationKind(int(v)): int(c) for v, c in zip(values, counts)}
