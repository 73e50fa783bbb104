"""Access-event vocabulary for runtime profiles.

The paper (§IV) distinguishes *trivial* access kinds -- did the event read
or write the data structure -- from *compound* access types such as
``Insert``, ``Search``, ``Delete``, ``Clear``, ``Copy``, ``Reverse``,
``Sort`` and ``ForAll``.  Both taxonomies are represented here as small
integer enums so that event streams can be stored compactly and analyzed
with vectorized numpy code.
"""

from __future__ import annotations

import enum


class AccessKind(enum.IntEnum):
    """Trivial access classification: did the event read or write?

    Every access event carries exactly one :class:`AccessKind`.  Events
    that both read and write (e.g. an in-place sort) are recorded as a
    sequence of finer-grained events by the instrumented structures, so
    the dichotomy is preserved.
    """

    READ = 0
    WRITE = 1


class OperationKind(enum.IntEnum):
    """Compound access types derived from the interface method invoked.

    Mirrors the paper's list: the trivial types ``Read`` and ``Write``
    plus the compound types ``Insert``, ``Search``, ``Delete``,
    ``Clear``, ``Copy``, ``Reverse``, ``Sort`` and ``ForAll``.  ``INIT``
    and ``RESIZE`` are implementation events emitted by the tracked
    structures (construction and capacity growth) that several use-case
    rules need (e.g. Insert/Delete-Front's copy-overhead reasoning).
    """

    READ = 0
    WRITE = 1
    INSERT = 2
    DELETE = 3
    SEARCH = 4
    CLEAR = 5
    COPY = 6
    REVERSE = 7
    SORT = 8
    FORALL = 9
    INIT = 10
    RESIZE = 11

    @property
    def is_read_like(self) -> bool:
        """True for operations whose primary effect is observing data."""
        return self in _READ_LIKE

    @property
    def is_write_like(self) -> bool:
        """True for operations whose primary effect is mutating data."""
        return self in _WRITE_LIKE


_READ_LIKE = frozenset(
    {
        OperationKind.READ,
        OperationKind.SEARCH,
        OperationKind.COPY,
        OperationKind.FORALL,
    }
)

_WRITE_LIKE = frozenset(
    {
        OperationKind.WRITE,
        OperationKind.INSERT,
        OperationKind.DELETE,
        OperationKind.CLEAR,
        OperationKind.REVERSE,
        OperationKind.SORT,
        OperationKind.RESIZE,
    }
)


class StructureKind(enum.Enum):
    """The container species a profile belongs to.

    The empirical study (§II) counts these kinds across the corpus;
    :class:`~repro.study.occurrence.OccurrenceStudy` relies on the enum
    values matching the spelling used in the paper's Figure 1.
    """

    LIST = "list"
    ARRAY = "array"
    DICTIONARY = "dictionary"
    ARRAY_LIST = "arraylist"
    STACK = "stack"
    QUEUE = "queue"
    HASH_SET = "hashset"
    SORTED_LIST = "sortedlist"
    SORTED_SET = "sortedset"
    SORTED_DICTIONARY = "sorteddictionary"
    LINKED_LIST = "linkedlist"
    HASHTABLE = "hashtable"
    OTHER = "other"

    @property
    def is_linear(self) -> bool:
        """Linear (positionally indexed) structures carry the paper's
        pattern analysis; associative ones only participate in the
        occurrence study."""
        return self in LINEAR_KINDS


#: The linear species (:attr:`StructureKind.is_linear`).  A tuple, not a
#: set: membership then compares by identity and never calls the enum's
#: Python-level ``__hash__``.
LINEAR_KINDS = (
    StructureKind.LIST,
    StructureKind.ARRAY,
    StructureKind.ARRAY_LIST,
    StructureKind.STACK,
    StructureKind.QUEUE,
    StructureKind.SORTED_LIST,
    StructureKind.LINKED_LIST,
)


#: Operations that target a position at the *front* of a structure.
FRONT = 0


def end_of(size: int) -> int:
    """Index that counts as the *back* of a structure of ``size`` elements."""
    return max(size - 1, 0)
