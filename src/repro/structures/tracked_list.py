"""Instrumented dynamic list -- the workhorse of DSspy.

The empirical study found ``list`` to be by far the most frequently
used dynamic data structure (65.05% of all instances), so the profiler
targets it first.  :class:`TrackedList` proxies a plain Python list and
records an access event for every interface interaction, including the
capacity behaviour of .NET's ``List<T>`` (explicit initial capacity,
geometric growth with ``Resize`` events) that Figure 2 of the paper
visualizes.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import Any

from ..events.collector import EventCollector
from ..events.profile import AllocationSite
from ..events.types import AccessKind, OperationKind, StructureKind
from .base import TrackedBase

_READ = AccessKind.READ
_WRITE = AccessKind.WRITE
_OP = OperationKind

# Plain-int spellings for the inlined hot paths below: the record hook
# only needs the enum *values*, and a module-global int load is cheaper
# than an enum attribute access per event.
_OP_READ = int(_OP.READ)
_OP_WRITE = int(_OP.WRITE)
_OP_INSERT = int(_OP.INSERT)
_OP_FORALL = int(_OP.FORALL)
_OP_INIT = int(_OP.INIT)
_K_READ = int(_READ)
_K_WRITE = int(_WRITE)


class TrackedList(TrackedBase):
    """List proxy emitting access events on every interface method.

    Parameters
    ----------
    iterable:
        Initial contents; each element is recorded as an ``Insert``.
    capacity:
        Optional explicit initial capacity.  Like ``new List<int>(10)``
        in the paper's Figure 2 snippet, a pre-sized list reports its
        *capacity* as the structure size while filling, so the profile's
        grey size bars stay flat during the initial insertion phase.
    label:
        Optional human-readable name used in reports.
    collector:
        Explicit collector; defaults to the ambient/active one.
    """

    KIND = StructureKind.LIST

    __slots__ = ("_data", "_capacity")

    def __init__(
        self,
        iterable: Iterable[Any] | None = None,
        capacity: int = 0,
        label: str = "",
        collector: EventCollector | None = None,
        site: AllocationSite | None = None,
    ) -> None:
        super().__init__(label, collector, site)
        self._data: list[Any] = []
        self._capacity = capacity = max(int(capacity), 0)
        # The reported size of an empty list is its capacity.
        self._record_fn(self._instance_id, _OP_INIT, _K_WRITE, None, capacity)
        if iterable is not None:
            for item in iterable:
                self.append(item)

    # -- capacity semantics ---------------------------------------------

    def _reported_size(self) -> int:
        """Size as shown in profiles: capacity while pre-sized, else count."""
        return max(len(self._data), self._capacity)

    def _grow_if_needed(self) -> None:
        """Geometric capacity growth with a ``Resize`` event, as a
        dynamic array implementation would incur a reallocate+copy."""
        if self._capacity and len(self._data) > self._capacity:
            self._capacity = max(self._capacity * 2, 4)
            self._record(_OP.RESIZE, _WRITE, None, self._reported_size())

    @property
    def capacity(self) -> int:
        return self._capacity

    def _index(self, i: int) -> int:
        """Normalize a (possibly negative) index for event positions."""
        n = len(self._data)
        return i + n if i < 0 else i

    # -- element access ---------------------------------------------------

    def __getitem__(self, i):
        if isinstance(i, slice):
            indices = range(*i.indices(len(self._data)))
            self._record(_OP.COPY, _READ, None, self._reported_size())
            for j in indices:
                self._record(_OP.READ, _READ, j, self._reported_size())
            return [self._data[j] for j in indices]
        value = self._data[i]
        n = len(self._data)
        cap = self._capacity
        self._record_fn(
            self._instance_id,
            _OP_READ,
            _K_READ,
            i + n if i < 0 else i,
            n if n >= cap else cap,
        )
        return value

    def __setitem__(self, i, value) -> None:
        if isinstance(i, slice):
            indices = range(*i.indices(len(self._data)))
            values = list(value)
            if len(indices) != len(values) and i.step not in (None, 1):
                raise ValueError("slice assignment size mismatch")
            self._data[i] = values
            for j in indices:
                self._record(_OP.WRITE, _WRITE, j, self._reported_size())
            return
        self._data[i] = value
        n = len(self._data)
        cap = self._capacity
        self._record_fn(
            self._instance_id,
            _OP_WRITE,
            _K_WRITE,
            i + n if i < 0 else i,
            n if n >= cap else cap,
        )

    def __delitem__(self, i) -> None:
        if isinstance(i, slice):
            for j in sorted(range(*i.indices(len(self._data))), reverse=True):
                pos = j
                del self._data[j]
                self._record(_OP.DELETE, _WRITE, pos, self._reported_size())
            return
        pos = self._index(i)
        del self._data[i]
        self._record(_OP.DELETE, _WRITE, pos, self._reported_size())

    def __iter__(self) -> Iterator[Any]:
        """Iteration records a ``ForAll`` marker plus one read per
        element in ascending order -- exactly the Read-Forward series a
        foreach loop produces in the paper's profiles.

        The element count is fixed when iteration starts; it stops
        early if the list shrinks, and each read reports the size the
        list has at that moment.  Inlined like :meth:`append`: one call
        of the record hook per element (``_data`` is never rebound)."""
        data = self._data
        record = self._record_fn
        instance_id = self._instance_id
        n = len(data)
        cap = self._capacity
        record(instance_id, _OP_FORALL, _K_READ, None, n if n >= cap else cap)
        for j in range(n):
            n = len(data)
            if j >= n:  # mutated during iteration
                return
            cap = self._capacity
            record(instance_id, _OP_READ, _K_READ, j, n if n >= cap else cap)
            yield data[j]

    def __len__(self) -> int:
        return len(self._data)

    def __bool__(self) -> bool:
        return bool(self._data)

    def __contains__(self, value) -> bool:
        """Membership test is a ``Search``; position is the hit index."""
        try:
            pos: int | None = self._data.index(value)
        except ValueError:
            pos = None
        self._record(_OP.SEARCH, _READ, pos, self._reported_size())
        return pos is not None

    def __eq__(self, other) -> bool:
        if isinstance(other, TrackedList):
            return self._data == other._data
        return self._data == other

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    def __hash__(self):  # mutable container
        raise TypeError("unhashable type: 'TrackedList'")

    def __repr__(self) -> str:
        return f"TrackedList({self._data!r})"

    # -- growth -----------------------------------------------------------

    def append(self, value) -> None:
        data = self._data
        data.append(value)
        if self._capacity:
            self._grow_if_needed()
            self._record(_OP.INSERT, _WRITE, len(data) - 1, self._reported_size())
        else:
            # Inlined hot path: one direct call into the pre-bound
            # record hook (the collector's record) — no helper frames.
            n = len(data)
            self._record_fn(self._instance_id, _OP_INSERT, _K_WRITE, n - 1, n)

    #: .NET spelling used throughout the paper's snippets.
    add = append

    def insert(self, index: int, value) -> None:
        n = len(self._data)
        pos = min(max(index + n if index < 0 else index, 0), n)
        self._data.insert(index, value)
        self._grow_if_needed()
        self._record(_OP.INSERT, _WRITE, pos, self._reported_size())

    def extend(self, iterable: Iterable[Any]) -> None:
        for item in iterable:
            self.append(item)

    add_range = extend

    def __iadd__(self, iterable: Iterable[Any]) -> "TrackedList":
        self.extend(iterable)
        return self

    def __add__(self, other) -> list:
        self._record(_OP.COPY, _READ, None, self._reported_size())
        other_data = other._data if isinstance(other, TrackedList) else list(other)
        return self._data + other_data

    # -- shrinkage ----------------------------------------------------------

    def pop(self, index: int = -1):
        pos = self._index(index)
        value = self._data.pop(index)
        self._record(_OP.DELETE, _WRITE, pos, self._reported_size())
        return value

    def remove(self, value) -> None:
        """Search for the element, then delete it (two events, matching
        the linear scan + removal a list performs)."""
        pos = self._data.index(value)  # raises ValueError like list.remove
        self._record(_OP.SEARCH, _READ, pos, self._reported_size())
        del self._data[pos]
        self._record(_OP.DELETE, _WRITE, pos, self._reported_size())

    def clear(self) -> None:
        self._data.clear()
        self._record(_OP.CLEAR, _WRITE, None, self._reported_size())

    # -- queries --------------------------------------------------------------

    def index(self, value, *args) -> int:
        pos = self._data.index(value, *args)
        self._record(_OP.SEARCH, _READ, pos, self._reported_size())
        return pos

    index_of = index

    def count(self, value) -> int:
        self._record(_OP.SEARCH, _READ, None, self._reported_size())
        return self._data.count(value)

    def contains(self, value) -> bool:
        return value in self

    # -- reordering --------------------------------------------------------------

    def sort(self, *, key=None, reverse: bool = False) -> None:
        self._data.sort(key=key, reverse=reverse)
        self._record(_OP.SORT, _WRITE, None, self._reported_size())

    def reverse(self) -> None:
        self._data.reverse()
        self._record(_OP.REVERSE, _WRITE, None, self._reported_size())

    # -- whole-structure -----------------------------------------------------------

    def copy(self) -> list:
        self._record(_OP.COPY, _READ, None, self._reported_size())
        return self._data.copy()

    to_list = copy

    def for_each(self, fn) -> None:
        """Apply ``fn`` to every element (.NET ``ForEach`` analog)."""
        self._record(_OP.FORALL, _READ, None, self._reported_size())
        for j, item in enumerate(self._data):
            self._record(_OP.READ, _READ, j, self._reported_size())
            fn(item)

    # -- untracked escape hatch -------------------------------------------------------

    def raw(self) -> list:
        """The underlying list, without recording an event.

        Analysis and verification code uses this to inspect contents
        without perturbing the profile under study.
        """
        return self._data
