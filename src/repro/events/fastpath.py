"""Encode-at-record fast path: pack events at the hook, batch bytes.

The legacy pipeline allocates one tuple per event, buffers tuples, and
only encodes them (to spill or wire) on the drainer thread.  This
module removes the intermediate object entirely: the record hook packs
the event straight into the calling thread's ``bytearray`` in the
39-byte spill layout of :mod:`repro.events.spill`, so the hot path is
one kernel call and one buffer extend — nothing to garbage-collect,
nothing to re-encode downstream.

Two kernels implement the same call signature and byte output:

- :data:`repro._fastrecord.Recorder` — a small C extension
  (vectorcall, one-slot thread cache) built opportunistically by
  ``setup.py``; roughly 3× faster than the pure-python kernel.
- :class:`PyRecorder` — the pure-python fallback, a per-thread
  ``struct.pack`` closure cached in a ``threading.local``.

:func:`make_recorder` auto-selects at import time; :data:`KERNEL`
names the winner (``"c"`` or ``"python"``).

Both kernels resolve their per-thread buffer through a *bind*
callable — the slow boundary.  The collector's bind registers the
thread and asks the channel for the thread's buffer via
:meth:`PackedBatchingChannel.acquire_buffer`, which is where the
backpressure gate lives: the per-event store itself is unconditional
and ungated.  When the channel closes its gate it *invalidates* every
registered kernel, forcing each thread's next record back through
bind — gate enforcement at rebind granularity instead of a per-event
check.

The runtime guard sits at the kernel's own entry.  The collector
builds its kernel with the guard cell
(:data:`~repro.runtime.guard.ACTIVE_GUARD`) and its firewall callable:
with no guard armed a call costs one extra pointer compare and packs
directly; while a guard is armed every call diverts to the collector's
contained record (pass-through once the breaker trips or inside
profiler internals, faults of the kernel and its bind counted), which
packs through the kernel's non-diverting ``store``.  The check is per
event, so it holds for structures built before the guard was armed
too.

The legacy tuple path remains fully supported (``fastpath="off"`` on
the collector, or any non-packed channel); the differential oracle
compares the two encoders' spill bytes for equality.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Callable

from .batching import BatchingChannel
from .event import RawEvent
from .spill import MAGIC as SPILL_MAGIC
from .spill import RECORD_SIZE, _RECORD, pack_record, read_spill_raw, unpack_records

try:  # pragma: no cover - exercised only where the extension was built
    from repro._fastrecord import Recorder as _CRecorder
except ImportError:  # pure-python fallback
    _CRecorder = None

#: Which record kernel this process uses: ``"c"`` or ``"python"``.
KERNEL: str = "c" if _CRecorder is not None else "python"


def kernel_name() -> str:
    """Name of the active record kernel (``"c"`` or ``"python"``)."""
    return KERNEL


class PyRecorder:
    """Pure-python record kernel: same signature, byte output and guard
    diversion as the compiled ``Recorder``, one ``struct.pack`` +
    ``bytearray`` extend per event through a thread-local closure.

    ``invalidate()`` swaps the ``threading.local`` wholesale, so every
    thread's next call re-enters ``bind`` (the channel's gate)."""

    __slots__ = ("_bind", "_tls", "_guard_cell", "_guarded")

    def __init__(
        self,
        bind: Callable[[], tuple[int, bytearray]],
        guard_cell: list | None = None,
        guarded: Callable[..., None] | None = None,
    ) -> None:
        self._bind = bind
        self._tls = threading.local()
        self._guard_cell = guard_cell if guard_cell is not None else [None]
        self._guarded = guarded

    def __call__(self, instance_id, op, kind, position, size) -> None:
        if self._guard_cell[0] is not None:
            self._guarded(instance_id, op, kind, position, size)
            return
        try:
            pack = self._tls.pack
        except AttributeError:
            pack = self._rebind()
        pack(instance_id, op, kind, position, size)

    def store(self, instance_id, op, kind, position, size) -> None:
        """Pack one event without the guard diversion (the firewall's
        own path into the kernel)."""
        try:
            pack = self._tls.pack
        except AttributeError:
            pack = self._rebind()
        pack(instance_id, op, kind, position, size)

    def _rebind(self):
        tid, buf = self._bind()

        def pack(
            instance_id,
            op,
            kind,
            position,
            size,
            _buf=buf,
            _tid=tid,
            _pack=_RECORD.pack,
        ):
            if position is None:
                _buf += _pack(instance_id, 0, size, _tid, op, kind, 0, 0.0)
            else:
                _buf += _pack(instance_id, position, size, _tid, op, kind, 1, 0.0)

        self._tls.pack = pack
        return pack

    def invalidate(self) -> None:
        self._tls = threading.local()


def make_recorder(
    bind: Callable[[], tuple[int, bytearray]],
    guard_cell: list | None = None,
    guarded: Callable[..., None] | None = None,
):
    """The fastest available record kernel bound to ``bind``; with a
    ``guard_cell``, calls divert to ``guarded`` while its slot is not
    ``None``."""
    if _CRecorder is not None:
        return _CRecorder(bind, guard_cell, guarded)
    return PyRecorder(bind, guard_cell, guarded)


class PackedBatchingChannel(BatchingChannel):
    """A :class:`BatchingChannel` whose buffers hold packed bytes.

    Per-thread buffers are ``bytearray``\\ s of 39-byte spill records
    instead of lists of tuples; the drainer harvests at record
    granularity (a GIL-atomic slice-and-delete of whole records) and
    absorbs raw bytes — a spill write is a straight ``write`` with no
    re-encoding, and the master buffer is one flat ``bytearray``.

    The channel stays protocol-compatible with every other transport:
    :meth:`post`/:meth:`producer` accept raw event tuples (packing at
    post time), and :meth:`drain`/:meth:`snapshot` decode back to
    tuples for the collector's post-mortem assembly.  The real win is
    the *kernel* path: fast-path recorders write into the buffer
    handed out by :meth:`acquire_buffer` directly, skipping tuples in
    both directions.

    ``sink`` callbacks receive the packed ``bytes`` of each absorbed
    batch (record multiple), not tuple lists.
    """

    #: Collector-visible capability flag: buffers are packed records.
    packed = True

    def __init__(self, **kwargs) -> None:
        self._invalidate_cbs: list[Callable[[], None]] = []
        self._decoded: list[RawEvent] | None = None
        super().__init__(**kwargs)
        # The drainer is already running, but no producer can exist
        # before the constructor returns, so swapping the (empty)
        # master list for a bytearray here is race-free.
        self._master = bytearray()  # type: ignore[assignment]

    # -- fast-path kernel hooks -------------------------------------------

    def add_invalidate_listener(self, callback: Callable[[], None]) -> None:
        """Register a kernel's ``invalidate`` to be called whenever the
        backpressure gate closes (and on fork reinit)."""
        self._invalidate_cbs.append(callback)

    def _invalidate_kernels(self) -> None:
        for callback in self._invalidate_cbs:
            try:
                callback()
            except Exception:
                pass  # a broken kernel must not kill the drainer

    def acquire_buffer(self) -> bytearray:
        """The calling thread's packed buffer (the kernel bind path).

        Under the ``block`` policy this is where backpressure bites:
        a closed gate makes the bind wait (and eventually raise), so
        gated threads stop producing without any per-event check."""
        if self._policy == "block" and not self._open[0]:
            self._gate_wait()
        return self._register_thread()

    def _gate_wait(self) -> None:
        if not self._gate.wait(self._block_timeout):
            raise RuntimeError(
                f"backpressure: more than {self._max_buffered} events buffered "
                f"and nothing drained them within {self._block_timeout}s "
                f"(use a spill file or the 'drop' policy for unbounded captures)"
            )

    # -- producer side (tuple protocol) ------------------------------------

    def _register_thread(self) -> bytearray:  # type: ignore[override]
        ident = threading.get_ident()
        with self._registry_lock:
            buf = self._buffers.get(ident)
            if buf is None:
                buf = self._buffers[ident] = bytearray()
        return buf  # type: ignore[return-value]

    def producer(self):
        """Tuple-accepting producer (protocol compatibility): packs the
        full raw tuple — including a wall time, when present — at post
        time.  Collectors whose fast path can engage bypass this via
        :meth:`acquire_buffer` instead."""
        buf = self._register_thread()
        if self._policy == "drop":

            def produce(raw, _buf=buf, _pack=pack_record):
                _buf += _pack(raw)

            return produce
        open_cell = self._open
        gate_wait = self._gate_wait

        def produce(raw, _buf=buf, _pack=pack_record, _open=open_cell, _wait=gate_wait):
            if not _open[0]:
                _wait()
            _buf += _pack(raw)

        return produce

    # -- drainer -----------------------------------------------------------

    def _harvest_all(self) -> None:
        if (
            self._stopping
            and self._writer is None
            and self._policy != "drop"
            and self._sink is None
        ):
            self._harvest_terminal()
            return
        with self._registry_lock:
            buffers = list(self._buffers.values())
        span = self._batch_size * RECORD_SIZE
        for buf in buffers:
            n = len(buf) - len(buf) % RECORD_SIZE
            if not n:
                continue
            harvested = bytes(buf[:n])
            del buf[:n]
            for i in range(0, n, span):
                self._absorb(harvested[i : i + span])
        if self._policy == "block" and self._writer is None and not self._failed_open:
            over = len(self._master) // RECORD_SIZE > self._max_buffered
            if over and self._open[0]:
                self._open[0] = False
                self._gate.clear()
                # Force every kernel back through acquire_buffer, where
                # the closed gate blocks it.
                self._invalidate_kernels()
            elif not over and not self._open[0]:
                self._open[0] = True
                self._gate.set()

    def _harvest_terminal(self) -> None:
        """Zero-copy final harvest: take the thread buffers wholesale.

        Producers must be quiescent at drain time (the channel-wide
        contract), so the buffer objects themselves can become — or
        extend — the master instead of paying the slice-to-bytes plus
        master-extend double copy of the concurrent harvest.  Each
        taken buffer is replaced by a fresh one and every kernel is
        invalidated, so even a contract-violating straggler rebinds
        into an empty buffer rather than scribbling over the drained
        capture."""
        with self._registry_lock:
            taken = [buf for buf in self._buffers.values() if buf]
            for ident in list(self._buffers):
                if self._buffers[ident]:
                    self._buffers[ident] = bytearray()
        self._invalidate_kernels()
        for buf in taken:
            n = len(buf) - len(buf) % RECORD_SIZE
            if not n:
                continue
            del buf[n:]  # a torn tail record can only be fault debris
            if not self._master:
                self._master = buf
            else:
                self._master += buf
            self._absorbed += n // RECORD_SIZE

    def _absorb(self, chunk: bytes) -> None:  # type: ignore[override]
        count = len(chunk) // RECORD_SIZE
        if self._writer is not None:
            self._writer.write_packed(chunk)
            self._absorbed += count
            self._notify_sink(chunk)
            return
        if self._policy == "drop":
            room = self._max_buffered - len(self._master) // RECORD_SIZE
            if room <= 0:
                self._dropped += count
                return
            if count > room:
                self._dropped += count - room
                chunk = chunk[: room * RECORD_SIZE]
                count = room
        self._master += chunk
        self._absorbed += count
        self._notify_sink(chunk)

    # -- fail-open / fork safety -------------------------------------------

    def _after_fork_child(self, policy: str) -> None:
        super()._after_fork_child(policy)
        self._master = bytearray()  # type: ignore[assignment]
        self._decoded = None
        # Cached kernel buffers belong to the parent's buffer map.
        self._invalidate_kernels()

    # -- drain / snapshot --------------------------------------------------

    def _stop_drainer(self) -> None:
        """Terminal harvest: stop the drainer and absorb every buffer
        (idempotent; the decoding siblings below build on it)."""
        if self._closed:
            return
        self._closed = True
        self._stopping = True
        self._open[0] = True
        self._gate.set()
        self._wake.set()
        self._drainer.join(timeout=max(self._block_timeout, 1.0))
        if self._drainer.is_alive():
            raise RuntimeError(
                f"batching drainer did not stop within "
                f"{max(self._block_timeout, 1.0):.1f}s during drain"
            )
        if self._drainer_error is not None:
            try:
                self._harvest_all()
            except Exception:
                pass
        if self._writer is not None:
            self._writer.close()

    def drain_packed(self) -> bytes | bytearray:
        """Terminal drain *without decoding*: the capture as packed
        records, ready for a spill write or the wire as-is.

        This is the fast architecture's natural end state — events are
        durable bytes and tuple materialization is deferred to whoever
        analyzes them (mirroring how the legacy channel defers
        ``AccessEvent`` materialization).  :meth:`drain` decodes from
        the same harvest, so both may be called in either order.

        Returns the master buffer itself (the channel is closed, so it
        can no longer change) rather than paying a defensive copy."""
        self._stop_drainer()
        if self._writer is not None:
            return Path(self.spill_path).read_bytes()[len(SPILL_MAGIC):]
        return self._master

    def drain(self) -> list[RawEvent]:
        if self._decoded is None:
            self._stop_drainer()
            if self._writer is not None:
                self._decoded = read_spill_raw(self.spill_path)
            else:
                self._decoded = unpack_records(self._master)
        return self._decoded

    def snapshot(self) -> list[RawEvent]:
        if self._closed:
            return list(self._decoded) if self._decoded is not None else []
        if not self._drainer.is_alive():
            try:
                self._harvest_all()
            except Exception:
                pass
        else:
            with self._snapshot_lock:
                done = threading.Event()
                self._flush_done = done
                self._wake.set()
                if not done.wait(self._block_timeout):
                    raise TimeoutError(
                        "batching drainer did not complete the snapshot harvest"
                    )
        if self._writer is not None:
            self._writer.flush()
            return read_spill_raw(self.spill_path)
        return unpack_records(self._master)

    # -- introspection -----------------------------------------------------

    @property
    def pending(self) -> int:
        with self._registry_lock:
            unharvested = sum(len(b) for b in self._buffers.values()) // RECORD_SIZE
        return self._absorbed + self._dropped + unharvested
