"""Compact binary spill format for long captures.

A million raw event tuples cost ~100 MB of Python object memory; the
same events spill to ~37 MB of flat records on disk.  The format is
deliberately dumb — a magic header followed by fixed-width
``struct``-packed records, append-only, no index — so the writer is one
:func:`pack_records` pass and one buffered ``write`` per batch and a
truncated file loses at most its tail.

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

#: :func:`record_is_plausible` as ``(byte offset in the layout above,
#: allowed byte values)``; a signed field is checked by its sign byte.
_SCREEN = (
    (28, bytes(range(_MAX_OP + 1))),
    (29, bytes(range(_MAX_KIND + 1))),
    (30, bytes(range(_KNOWN_FLAGS + 1))),
    (15, bytes(range(0x80))),
    (23, bytes(range(0x80))),
    (27, bytes(range(0x80))),
)


def pack_records(raws: Iterable[RawEvent]) -> bytes:
    """Pack raw event tuples into one block of fixed-width records.

    The one encoder of the record format, one ``struct`` pass per
    block: spill files, the service wire protocol's EVENTS frames
    (:mod:`repro.service.protocol`) and the session journal all carry
    these bytes, so every side agrees byte for byte.
    """
    pack = _RECORD.pack
    return b"".join([
        pack(iid, 0 if pos is None else pos, size, tid, op, kind,
             (pos is not None) | (wall is not None) << 1,  # flags: _HAS_POSITION | _HAS_WALL
             0.0 if wall is None else wall)
        for iid, op, kind, pos, size, tid, wall in raws
    ])


def pack_record(raw: RawEvent) -> bytes:
    """Pack one raw event tuple into a fixed-width record."""
    return pack_records((raw,))


class ImplausibleRecords(ValueError):
    """A validated block holds records that fail :func:`record_is_plausible`."""

    def __init__(self, bad: int, count: int) -> None:
        super().__init__(f"{bad} implausible record(s) of {count}")
        self.bad = bad


def _count_implausible(data: bytes | bytearray | memoryview) -> int:
    """How many records of a block fail the screen of :func:`record_is_plausible`.

    Each check reads one byte column of the block (a strided slice), so
    a clean block costs six slices and no per-record Python work."""
    data = bytes(data)
    bad: set[int] = set()
    for offset, allowed in _SCREEN:
        column = data[offset::RECORD_SIZE]
        if column.translate(None, allowed):  # some byte is not allowed
            bad.update(i for i, byte in enumerate(column) if byte not in allowed)
    return len(bad)


def unpack_records(
    data: bytes | bytearray | memoryview, validate: bool = False
) -> list[RawEvent]:
    """Decode a block of packed records back into raw event tuples.

    The inverse of :func:`pack_records`, one ``struct`` pass per block:
    ``data`` must be a whole number of :data:`RECORD_SIZE`-byte
    records.  With ``validate=True`` the block is first screened as by
    :func:`record_is_plausible`, before any event tuple is built, and a
    block holding any implausible record raises
    :class:`ImplausibleRecords` carrying the count.
    """
    if len(data) % RECORD_SIZE:
        raise ValueError(
            f"packed block of {len(data)} bytes is not a multiple of "
            f"the {RECORD_SIZE}-byte record size"
        )
    if validate:
        bad = _count_implausible(data)
        if bad:
            raise ImplausibleRecords(bad, len(data) // RECORD_SIZE)
    return [
        (iid, op, kind, pos if flags & _HAS_POSITION else None, size, tid,
         wall if flags & _HAS_WALL else None)
        for iid, pos, size, tid, op, kind, flags, wall in _RECORD.iter_unpack(data)
    ]


def unpack_record(chunk: bytes) -> RawEvent:
    """Inverse of :func:`pack_record` (exactly ``RECORD_SIZE`` bytes)."""
    (raw,) = unpack_records(chunk)
    return raw


def record_is_plausible(chunk: bytes) -> bool:
    """Cheap validity screen for one packed record.

    The format has no per-record checksum, so after a torn write (a
    daemon crash mid-batch) the reader can land mid-record and decode
    garbage.  Field-range checks catch essentially all such
    misalignments: op and kind must be valid enum values, flags must
    only use defined bits, and size, position and thread id must be
    non-negative.
    """
    return len(chunk) == RECORD_SIZE and not _count_implausible(chunk)


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

    def write_batch(self, batch: Iterable[RawEvent]) -> None:
        if self._fh is None:
            raise RuntimeError("spill writer already closed")
        chunk = pack_records(batch)
        self._fh.write(chunk)
        self._count += len(chunk) // RECORD_SIZE

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
            try:
                yield from unpack_records(chunk[:complete], validate=True)
            except ImplausibleRecords:
                # Keep the plausible records around the corrupt ones.
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
