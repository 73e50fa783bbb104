"""The access event record.

DSspy gathers five facts per access event (§IV): a timestamp, whether the
event read or wrote, the target position, the structure size at the
moment of access, and the id of the thread that raised the event.  We add
the compound operation kind and the owning instance id so that events can
be routed to per-instance profiles after collection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .types import AccessKind, OperationKind


@dataclass(frozen=True, slots=True)
class AccessEvent:
    """One interaction with a data structure instance.

    Attributes
    ----------
    seq:
        Logical timestamp -- a strictly increasing collector-wide
        sequence number.  Profiles only need ordering (the paper's
        x-axes are "temporal order"), and logical time keeps every
        experiment deterministic.
    kind:
        Trivial read/write classification.
    op:
        Compound access type derived from the interface method.
    position:
        Index targeted inside the structure, or ``None`` for whole-
        structure operations (``Clear``, ``Sort``, ``Copy`` ...).
    size:
        Number of elements held at the moment of access.
    thread_id:
        Identifier of the thread that raised the event; used to split
        interleaved profiles of multithreaded programs.
    instance_id:
        Id of the data structure instance the event belongs to.
    wall_time:
        Optional wall-clock timestamp (seconds); populated only when
        the collector is configured with ``capture_wall_time=True``.
    """

    seq: int
    kind: AccessKind
    op: OperationKind
    position: int | None
    size: int
    thread_id: int
    instance_id: int
    wall_time: float | None = field(default=None, compare=False)

    @property
    def is_read(self) -> bool:
        return self.kind is AccessKind.READ

    @property
    def is_write(self) -> bool:
        return self.kind is AccessKind.WRITE

    @property
    def targets_front(self) -> bool:
        """Whether the event touched the first slot of the structure."""
        return self.position == 0

    @property
    def targets_back(self) -> bool:
        """Whether the event touched the last slot (at event time).

        Insertions that *append* report the position of the new element,
        i.e. ``size - 1`` after growth; both conventions are accepted.
        """
        if self.position is None or self.size == 0:
            return False
        return self.position >= self.size - 1

    def describe(self) -> str:
        """Human-readable one-line rendering used by reports and logs."""
        pos = "-" if self.position is None else str(self.position)
        return (
            f"#{self.seq} {self.op.name.lower()}({self.kind.name.lower()}) "
            f"pos={pos} size={self.size} thread={self.thread_id}"
        )


#: Compact tuple layout used on the hot recording path, and the stored
#: form of every event: the channel transports plain tuples, the
#: collector routes them unchanged into the profiles of their instances
#: (with the arrival index as logical ``seq``), and analysis reads them
#: there.  :class:`AccessEvent` objects are built from them only on
#: demand (:func:`materialize`), keeping per-access overhead to one tuple
#: allocation and one queue put.
RawEvent = tuple  # (instance_id, op_value, kind_value, position, size, thread_id, wall_time)


def materialize(seq: int, raw: RawEvent) -> AccessEvent:
    """Convert a raw on-the-wire tuple into an :class:`AccessEvent`."""
    instance_id, op_value, kind_value, position, size, thread_id, wall_time = raw
    return AccessEvent(
        seq=seq,
        kind=AccessKind(kind_value),
        op=OperationKind(op_value),
        position=position,
        size=size,
        thread_id=thread_id,
        instance_id=instance_id,
        wall_time=wall_time,
    )
