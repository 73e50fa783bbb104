"""Compact binary spill format for long captures.

A million raw event tuples cost ~100 MB of Python object memory; the
same events spill to ~37 MB of flat records on disk.  The format is
deliberately dumb — a magic header followed by fixed-width
``struct``-packed records, append-only, no index — so the writer is one
``pack`` and one buffered ``write`` per batch and a truncated file loses
at most its tail.

Layout::

    8 bytes   magic  b"DSPYSP01"
    N * 39    records, little-endian:
              instance_id  int64
              position     int64   (valid only when flags bit 0 is set)
              size         int64
              thread_id    int32
              op           uint8
              kind         uint8
              flags        uint8   (bit 0: has position, bit 1: has wall time)
              wall_time    float64 (valid only when flags bit 1 is set)

Readers come in two flavors: :func:`iter_spill_raw` rehydrates the
channel's on-the-wire tuples (what a drained channel would have
returned), and :func:`iter_spill_events` goes straight to
:class:`~repro.events.event.AccessEvent` objects with logical
timestamps stamped in file order, ready for the detector and use-case
engine.  Both stream — a capture larger than RAM can still be analyzed
profile-by-profile.
"""

from __future__ import annotations

import struct
import warnings
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

from .event import AccessEvent, RawEvent, materialize
from .types import AccessKind, OperationKind

MAGIC = b"DSPYSP01"

_RECORD = struct.Struct("<qqqiBBBd")
RECORD_SIZE = _RECORD.size

_HAS_POSITION = 1
_HAS_WALL = 2
_KNOWN_FLAGS = _HAS_POSITION | _HAS_WALL

_MAX_OP = max(OperationKind)
_MAX_KIND = max(AccessKind)


def pack_record(raw: RawEvent) -> bytes:
    """Pack one raw event tuple into a fixed-width spill record.

    Also the payload encoding of the service wire protocol's EVENTS
    frames (:mod:`repro.service.protocol`), so client and daemon agree
    with the spill files byte for byte.
    """
    instance_id, op, kind, position, size, thread_id, wall = raw
    flags = 0
    if position is not None:
        flags |= _HAS_POSITION
    else:
        position = 0
    if wall is not None:
        flags |= _HAS_WALL
    else:
        wall = 0.0
    return _RECORD.pack(instance_id, position, size, thread_id, op, kind, flags, wall)


def unpack_record(chunk: bytes) -> RawEvent:
    """Inverse of :func:`pack_record` (exactly ``RECORD_SIZE`` bytes)."""
    instance_id, position, size, thread_id, op, kind, flags, wall = _RECORD.unpack(chunk)
    return (
        instance_id,
        op,
        kind,
        position if flags & _HAS_POSITION else None,
        size,
        thread_id,
        wall if flags & _HAS_WALL else None,
    )


# Backwards-compatible private aliases (pre-service internal names).
_pack = pack_record
_unpack = unpack_record


def unpack_records(data: bytes | bytearray | memoryview) -> list[RawEvent]:
    """Decode a block of packed records back into raw event tuples.

    The inverse of :func:`pack_record` over a whole block (the shm
    ring's payload): ``data`` must be a whole number of
    :data:`RECORD_SIZE`-byte records.
    """
    if len(data) % RECORD_SIZE:
        raise ValueError(
            f"packed block of {len(data)} bytes is not a multiple of "
            f"the {RECORD_SIZE}-byte record size"
        )
    return [
        (
            instance_id,
            op,
            kind,
            position if flags & _HAS_POSITION else None,
            size,
            thread_id,
            wall if flags & _HAS_WALL else None,
        )
        for instance_id, position, size, thread_id, op, kind, flags, wall
        in _RECORD.iter_unpack(bytes(data))
    ]


def record_is_plausible(chunk: bytes) -> bool:
    """Cheap validity screen for one packed record.

    The format has no per-record checksum, so after a torn write (a
    daemon crash mid-batch) the reader can land mid-record and decode
    garbage.  Field-range checks catch essentially all such
    misalignments: op and kind must be valid enum values, flags must
    only use defined bits, and size must be non-negative.
    """
    _, position, size, thread_id, op, kind, flags, _ = _RECORD.unpack(chunk)
    return (
        op <= _MAX_OP
        and kind <= _MAX_KIND
        and flags & ~_KNOWN_FLAGS == 0
        and size >= 0
        and position >= 0
        and thread_id >= 0
    )


class SpillWriter:
    """Append-only writer; one ``write`` syscall per batch."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh: BinaryIO | None = self.path.open("wb")
        self._fh.write(MAGIC)
        self._count = 0

    @property
    def count(self) -> int:
        """Records written so far."""
        return self._count

    @property
    def closed(self) -> bool:
        return self._fh is None

    def write(self, raw: RawEvent) -> None:
        self.write_batch((raw,))

    def write_batch(self, batch: Iterable[RawEvent]) -> None:
        if self._fh is None:
            raise RuntimeError("spill writer already closed")
        chunk = bytearray()
        n = 0
        for raw in batch:
            chunk += _pack(raw)
            n += 1
        self._fh.write(bytes(chunk))
        self._count += n

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SpillWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def iter_spill_raw(
    path: str | Path, on_skip: "Callable[[int], None] | None" = None
) -> Iterator[RawEvent]:
    """Stream raw event tuples back from a spill file, in file order.

    A bad magic header still raises (the file is not a spill file at
    all), and a truncated tail still ends the stream silently, but a
    corrupt record in the middle of the file — a torn write from a
    crashed daemon, a flipped byte on disk — is *skipped* rather than
    poisoning every later record: its slot is dropped, the skip is
    counted, and one :class:`RuntimeWarning` summarizing the count is
    emitted when the stream ends.  ``on_skip`` (if given) additionally
    receives the final skip count, so callers with their own ledgers —
    session STATS, the chaos invariant monitor — can account the loss
    instead of losing it to a warning filter.  Validity is judged by
    :func:`record_is_plausible`; record boundaries are assumed intact
    (the format is fixed-width append-only, so corruption overwrites
    bytes in place rather than shifting them).
    """
    skipped = 0
    with Path(path).open("rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not a DSspy spill file (bad magic {magic!r})")
        while True:
            chunk = fh.read(RECORD_SIZE * 4096)
            if not chunk:
                break
            complete = len(chunk) - len(chunk) % RECORD_SIZE
            for offset in range(0, complete, RECORD_SIZE):
                record = chunk[offset:offset + RECORD_SIZE]
                if record_is_plausible(record):
                    yield unpack_record(record)
                else:
                    skipped += 1
            if complete != len(chunk):
                # Append-only file truncated mid-record (e.g. a killed
                # capture); everything before the tear is still valid.
                break
    if skipped:
        if on_skip is not None:
            on_skip(skipped)
        warnings.warn(
            f"{path}: skipped {skipped} corrupt spill record(s)",
            RuntimeWarning,
            stacklevel=2,
        )


def read_spill_raw(path: str | Path) -> list[RawEvent]:
    return list(iter_spill_raw(path))


def iter_spill_events(path: str | Path, start_seq: int = 0) -> Iterator[AccessEvent]:
    """Stream rehydrated :class:`AccessEvent`\\ s with sequential logical
    timestamps, exactly as :meth:`EventCollector.finish` would stamp
    them for an in-memory capture of the same stream."""
    for seq, raw in enumerate(iter_spill_raw(path), start=start_seq):
        yield materialize(seq, raw)


def read_spill_events(path: str | Path) -> list[AccessEvent]:
    return list(iter_spill_events(path))
