"""Zero-copy shared-memory ring transport for same-host captures.

The socket transport pays a syscall plus a kernel copy per shipped
batch.  For clients on the daemon's own host, this module replaces the
EVENTS frames with a single-producer/single-consumer byte ring in
POSIX shared memory (:mod:`multiprocessing.shared_memory`): the client
memcpys packed 39-byte records into the ring and publishes a head
counter; the daemon's consumer thread reads them out at its leisure.
No syscalls, no serialization, no kernel copies — the packed record
bytes the client wrote are the bytes the daemon's ingest pipeline
consumes.

Layout (64-byte header, then ``capacity_bytes`` of payload)::

    0   8   magic             b"DSSPYRG1"
    8   4   version           u32 (currently 1)
    12  4   record_size       u32 (must equal the spill RECORD_SIZE)
    16  8   capacity_bytes    u64 (multiple of record_size)
    24  8   head              u64: total bytes ever written (producer)
    32  8   tail              u64: total bytes ever consumed (consumer)
    40  8   generation        u64: producer pid (stale-segment check)
    48  16  reserved

Synchronization is seqlock-flavored monotonic counters, sound on a
single-producer/single-consumer ring:

- ``head`` and ``tail`` never wrap; the payload offset is
  ``counter % capacity_bytes``.  ``head - tail`` is the number of
  unread bytes, so full/empty are unambiguous without a wasted slot.
- The producer copies payload bytes *first* and publishes ``head``
  after; the consumer reads ``head`` first and consumes payload up to
  it.  Each counter has exactly one writer, so torn updates are the
  only hazard — and CPython's struct pack/unpack of an aligned 8-byte
  field via memoryview slicing is a single store/load of that region
  under the GIL-released buffer copy, which is atomic on every
  platform CPython supports in practice; crucially, even a stale read
  is *safe* (the consumer merely sees fewer bytes, the producer merely
  sees less free space).

Because ``capacity_bytes`` and every published counter are multiples
of :data:`RECORD_SIZE`, payload offsets are always record-aligned and
the distance from any offset to the end of the buffer is a whole
number of records — a single record therefore never straddles the
wrap boundary.  Multi-record writes may still split into two memcpys
at the wrap point; both spans stay record-aligned.

Backpressure is the producer's problem: :meth:`ShmRing.write` copies
as many *whole records* as fit and returns the byte count actually
written; the caller keeps the remainder and retries later (the
client counts these stalls in its ``ring_full`` stat).
"""

from __future__ import annotations

import os
import struct
import threading
from multiprocessing import shared_memory

from ..events.spill import RECORD_SIZE

MAGIC = b"DSSPYRG1"
VERSION = 1

HEADER_SIZE = 64
_HEAD_OFF = 24
_TAIL_OFF = 32

_HEADER = struct.Struct("<8sIIQQQQ")  # magic, version, record size, capacity, head, tail, gen
_U64 = struct.Struct("<Q")

#: Default ring capacity, in records (~2.3 MB payload).
DEFAULT_RING_RECORDS = 60000


_attach_lock = threading.Lock()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment without adopting its lifetime.

    Python 3.12 and older register every ``SharedMemory`` with the
    resource tracker even when ``create=False``, so an attaching
    process (or an in-process daemon sharing the creator's tracker)
    would unlink — or double-unregister — a segment it does not own.
    3.13 grew ``track=False`` for exactly this; on older interpreters
    the registration is suppressed for this one name while the segment
    opens.  Best-effort: if the private API moved, the cost is only a
    spurious cleanup warning at exit, never a correctness problem.
    """
    try:
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:
        pass  # pre-3.13: no track parameter
    try:
        from multiprocessing import resource_tracker
    except Exception:
        return shared_memory.SharedMemory(name=name, create=False)
    with _attach_lock:
        original = resource_tracker.register

        def selective(rname, rtype, _orig=original):
            if rtype == "shared_memory" and rname.lstrip("/") == name.lstrip("/"):
                return None
            return _orig(rname, rtype)

        resource_tracker.register = selective
        try:
            return shared_memory.SharedMemory(name=name, create=False)
        finally:
            resource_tracker.register = original


class ShmRing:
    """Single-producer/single-consumer byte ring over shared memory.

    Exactly one side calls :meth:`write` (the capture client) and one
    side calls :meth:`read` (the daemon's consumer thread).  Both hold
    an attached :class:`~multiprocessing.shared_memory.SharedMemory`;
    the creator additionally owns the segment's lifetime
    (:meth:`unlink`).
    """

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool) -> None:
        self._shm = shm
        self._buf = shm.buf
        self._owner = owner
        self._closed = False
        (_m, _v, _rs, capacity, _h, _t, generation) = _HEADER.unpack_from(self._buf, 0)
        self.capacity_bytes = capacity
        self.generation = generation

    # -- construction -----------------------------------------------------

    @classmethod
    def create(cls, capacity_records: int = DEFAULT_RING_RECORDS) -> "ShmRing":
        """Create a fresh ring segment (producer side)."""
        if capacity_records < 1:
            raise ValueError("ring capacity must be at least one record")
        capacity = capacity_records * RECORD_SIZE
        shm = shared_memory.SharedMemory(create=True, size=HEADER_SIZE + capacity)
        _HEADER.pack_into(
            shm.buf, 0, MAGIC, VERSION, RECORD_SIZE, capacity, 0, 0, os.getpid()
        )
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        """Attach to an existing ring by segment name (consumer side).

        Validates the header before trusting anything in it: magic,
        version, record size, and a sane capacity.  Raises
        :class:`ValueError` on a stale or foreign segment — the daemon
        turns that into a declined HELLO capability rather than a dead
        session.
        """
        shm = _attach_untracked(name)
        try:
            if len(shm.buf) < HEADER_SIZE:
                raise ValueError(f"shm segment {name!r} too small for a ring header")
            magic, version, record_size, capacity, _h, _t, _gen = _HEADER.unpack_from(
                shm.buf, 0
            )
            if magic != MAGIC:
                raise ValueError(f"shm segment {name!r} is not a DSspy ring (bad magic)")
            if version != VERSION:
                raise ValueError(
                    f"shm ring {name!r} speaks version {version}, expected {VERSION}"
                )
            if record_size != RECORD_SIZE:
                raise ValueError(
                    f"shm ring {name!r} carries {record_size}-byte records, "
                    f"expected {RECORD_SIZE}"
                )
            if capacity <= 0 or capacity % RECORD_SIZE or len(shm.buf) < HEADER_SIZE + capacity:
                raise ValueError(f"shm ring {name!r} declares an implausible capacity")
        except Exception:
            shm.close()
            raise
        return cls(shm, owner=False)

    # -- counters ---------------------------------------------------------

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def head(self) -> int:
        return _U64.unpack_from(self._buf, _HEAD_OFF)[0]

    @property
    def tail(self) -> int:
        return _U64.unpack_from(self._buf, _TAIL_OFF)[0]

    @property
    def used(self) -> int:
        """Unread bytes currently in the ring."""
        return self.head - self.tail

    @property
    def free(self) -> int:
        """Writable bytes currently available."""
        return self.capacity_bytes - self.used

    # -- producer side ----------------------------------------------------

    def write(self, data) -> int:
        """Copy as many whole records of ``data`` as fit; publish head.

        Returns the number of bytes written (a record multiple, possibly
        zero when the ring is full).  The caller retains everything past
        the returned count.
        """
        head = self.head
        free = self.capacity_bytes - (head - self.tail)
        n = min(len(data), free)
        n -= n % RECORD_SIZE
        if n <= 0:
            return 0
        view = memoryview(data)[:n]
        offset = head % self.capacity_bytes
        first = min(n, self.capacity_bytes - offset)
        base = HEADER_SIZE
        self._buf[base + offset : base + offset + first] = view[:first]
        if first < n:
            self._buf[base : base + (n - first)] = view[first:]
        # Publish only after the payload copy — the consumer never sees
        # bytes that are not fully written.
        _U64.pack_into(self._buf, _HEAD_OFF, head + n)
        return n

    # -- consumer side ----------------------------------------------------

    def read(self, max_bytes: int | None = None) -> bytes:
        """Consume up to ``max_bytes`` of available payload; advance tail.

        Returns ``b""`` when the ring is empty.  Always consumes a whole
        number of records (the producer only ever publishes record
        multiples)."""
        tail = self.tail
        avail = self.head - tail
        if max_bytes is not None:
            avail = min(avail, max_bytes - max_bytes % RECORD_SIZE)
        if avail <= 0:
            return b""
        offset = tail % self.capacity_bytes
        first = min(avail, self.capacity_bytes - offset)
        base = HEADER_SIZE
        out = bytes(self._buf[base + offset : base + offset + first])
        if first < avail:
            out += bytes(self._buf[base : base + (avail - first)])
        # Release the space only after the payload copy completes.
        _U64.pack_into(self._buf, _TAIL_OFF, tail + avail)
        return out

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Detach from the segment (safe in fork children; never unlinks)."""
        if self._closed:
            return
        self._closed = True
        self._buf = None
        try:
            self._shm.close()
        except Exception:
            pass

    def unlink(self) -> None:
        """Destroy the segment (creator only; idempotent)."""
        self.close()
        if self._owner:
            try:
                self._shm.unlink()
            except Exception:
                pass

    def __enter__(self) -> "ShmRing":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink() if self._owner else self.close()
