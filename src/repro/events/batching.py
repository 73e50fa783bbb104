"""Batched event transport: per-thread buffers, periodic harvest, spill.

A queue-fed drainer would pay one queue put per event *and* one
Python-loop iteration on its drainer thread per event — on the
single-core hosts this reproduction targets, both halves serialize and
the per-event cost roughly doubles over a plain append.  PROMPT and
TASKPROF attack exactly this with per-thread buffering: the hot path
becomes a bare ``list.append`` and everything batchable is batched.

:class:`BatchingChannel` takes the idea to its CPython limit.  Each
producer thread owns a flat list of event tuples that is **never
replaced**: the drainer thread harvests it every ``flush_interval``
with a GIL-atomic slice-and-delete (``batch = buf[:n]; del buf[:n]``),
so producers can cache the buffer's *bound* ``append`` and record an
event for the cost of a single C call (~25 ns, vs ~200 ns through a
queue).  :meth:`producer` hands out that cached fast path; the generic
:meth:`post` resolves the calling thread's producer through a
``threading.local`` and stays protocol-compatible with
:class:`~repro.events.channel.SynchronousChannel`.

Backpressure is explicit and lossless: ``max_buffered`` bounds the
events held in RAM, and at the bound producers gate on a cell flag and
wait; a capture that overruns the bound without a spill consumer
eventually raises instead of eating all memory.  With a ``spill``
path the drainer streams every harvested batch to the compact binary
format of :mod:`~repro.events.spill` instead of RAM, so the bound is
effectively never hit and million-event captures cost a file, not a
heap.

Ordering: events from one thread always stay in posting order; threads
interleave at harvest granularity rather than event granularity.  The
collector's logical timestamps therefore remain a valid serialization
of every per-thread history — which is all the analyses consume
(profiles are split per thread before pattern detection).
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Callable

from .event import RawEvent
from .spill import SpillWriter, read_spill_raw


class BatchingChannel:
    """Per-thread buffering with a harvesting drainer thread.

    Parameters
    ----------
    batch_size:
        Upper bound on events per flushed batch (one spill write or one
        master-buffer extend); harvests larger than this are chunked.
    flush_interval:
        Seconds between drainer harvests.  Also bounds how stale
        :meth:`snapshot` data can be before the snapshot barrier flushes.
    max_buffered:
        Backpressure bound: events resident in RAM (master buffer)
        before producers wait (and raise after ``block_timeout`` if
        nothing ever drains — without a spill file the bound can only
        be relieved by ``drain()``).  Thread buffers can briefly
        overshoot by up to one harvest interval of production — the
        bound is a watermark, not a hard ceiling.
    spill:
        Optional path; harvested batches stream to this binary spill
        file instead of RAM, and :meth:`drain` reads the file back.
    block_timeout:
        Seconds a gated producer waits before raising — turns a wedged
        pipeline into a diagnosable error instead of a silent hang.
    sink:
        Optional callable invoked *on the drainer thread* with each
        absorbed batch, after the batch landed in the master buffer (or
        spill file).  This is the hook subclasses like
        :class:`~repro.service.client.RemoteChannel` use to forward
        events as they are harvested.  A raising sink never kills the
        drainer: the exception is stashed in :attr:`sink_error` and
        harvesting continues (the events are still retained locally).
    """

    def __init__(
        self,
        batch_size: int = 4096,
        flush_interval: float = 0.005,
        max_buffered: int = 1_000_000,
        spill: str | Path | None = None,
        block_timeout: float = 30.0,
        sink: Callable[[list[RawEvent]], None] | None = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if max_buffered < 1:
            raise ValueError(f"max_buffered must be >= 1, got {max_buffered}")
        self._batch_size = batch_size
        self._flush_interval = flush_interval
        self._max_buffered = max_buffered
        self._block_timeout = block_timeout
        self._writer = SpillWriter(spill) if spill is not None else None
        self.spill_path = Path(spill) if spill is not None else None

        self._buffers: dict[int, list[RawEvent]] = {}
        self._registry_lock = threading.Lock()
        self._tls = threading.local()
        self._master: list[RawEvent] = []
        self._sink = sink
        self._sink_error: BaseException | None = None
        self._drainer_error: BaseException | None = None
        self._failed_open = False
        self._absorbed = 0
        self._closed = False
        self._stopping = False

        # Fast-path gate: a one-slot list read by producers (a C
        # subscript, far cheaper than Event.is_set); the Event is
        # what gated producers actually sleep on.
        self._open = [True]
        self._gate = threading.Event()
        self._gate.set()

        self._wake = threading.Event()
        self._flush_done: threading.Event | None = None
        self._snapshot_lock = threading.Lock()
        self._drainer = threading.Thread(
            target=self._run, name="dsspy-batch-drainer", daemon=True
        )
        self._drainer.start()

    # -- producer side ---------------------------------------------------

    def producer(self):
        """The calling thread's hot-path recording callable.

        Registers (or reuses) this thread's buffer and returns a
        callable of one argument that appends a raw event after
        checking the backpressure gate.  The callable stays valid for the
        channel's whole lifetime — harvesting never replaces the buffer
        object — but must only be invoked from the thread that obtained
        it.
        """
        append = self._register_thread().append
        open_cell = self._open
        blocked = self._blocked_append

        def produce(raw, _open=open_cell, _append=append, _blocked=blocked):
            if _open[0]:
                _append(raw)
            else:
                _blocked(_append, raw)

        return produce

    def post(self, raw: RawEvent) -> None:
        """Protocol-compatible single-event path (resolves the calling
        thread's producer through a ``threading.local``)."""
        if self._closed:
            raise RuntimeError("channel already drained")
        tls = self._tls
        try:
            produce = tls.produce
        except AttributeError:
            produce = tls.produce = self.producer()
        produce(raw)

    def _register_thread(self) -> list[RawEvent]:
        ident = threading.get_ident()
        with self._registry_lock:
            buf = self._buffers.get(ident)
            if buf is None:
                buf = self._buffers[ident] = []
        return buf

    def _blocked_append(self, append, raw: RawEvent) -> None:
        if not self._gate.wait(self._block_timeout):
            raise RuntimeError(
                f"backpressure: more than {self._max_buffered} events buffered "
                f"and nothing drained them within {self._block_timeout}s "
                f"(use a spill file for unbounded captures)"
            )
        append(raw)

    # -- drainer ---------------------------------------------------------

    def _run(self) -> None:
        wake = self._wake
        interval = self._flush_interval
        while True:
            wake.wait(interval)
            wake.clear()
            stopping = self._stopping
            # Latch the flush request BEFORE harvesting: a request that
            # lands mid-harvest must wait for the next full cycle, or
            # the barrier would acknowledge events it never collected.
            done = self._flush_done
            if done is not None:
                self._flush_done = None
            try:
                self._harvest_all()
            except Exception as exc:
                # A dying drainer must never leave producers gated on a
                # backpressure bound nothing will ever relieve, nor a
                # snapshot barrier waiting forever: record the error,
                # open the gate permanently, release any waiter, exit.
                self._drainer_error = exc
                self.fail_open()
                if done is not None:
                    done.set()
                return
            if done is not None:
                done.set()
            if stopping:
                if self._writer is not None:
                    try:
                        self._writer.flush()
                    except Exception as exc:
                        self._drainer_error = exc
                        self.fail_open()
                return

    def _harvest_all(self) -> None:
        with self._registry_lock:
            buffers = list(self._buffers.values())
        batch_size = self._batch_size
        for buf in buffers:
            n = len(buf)
            if not n:
                continue
            harvested = buf[:n]
            del buf[:n]
            for i in range(0, n, batch_size):
                self._absorb(harvested[i:i + batch_size])
        if self._writer is None and not self._failed_open:
            over = len(self._master) > self._max_buffered
            if over and self._open[0]:
                self._open[0] = False
                self._gate.clear()
            elif not over and not self._open[0]:
                self._open[0] = True
                self._gate.set()

    def _absorb(self, batch: list[RawEvent]) -> None:
        if self._writer is not None:
            self._writer.write_batch(batch)
            self._absorbed += len(batch)
            self._notify_sink(batch)
            return
        self._master.extend(batch)
        self._absorbed += len(batch)
        self._notify_sink(batch)

    def _notify_sink(self, batch: list[RawEvent]) -> None:
        if self._sink is None or not batch:
            return
        try:
            self._sink(batch)
        except Exception as exc:
            self._sink_error = exc

    # -- fail-open / fork safety -----------------------------------------

    def fail_open(self) -> None:
        """Permanently open the backpressure gate so no producer can
        ever block on this channel again.

        Called when a :class:`~repro.runtime.guard.RuntimeGuard` trips
        (via ``watch_channel``) or when the drainer thread dies: in
        pass-through mode events may be lost, but the host program must
        never wait on a transport that will not recover."""
        self._failed_open = True
        self._open[0] = True
        self._gate.set()

    def _after_fork_child(self, policy: str) -> None:  # noqa: ARG002
        """Reinitialize in a fork child (threads do not survive fork).

        Every synchronization primitive is replaced — its state at the
        fork point is arbitrary — and the child starts with empty
        buffers: the parent owns the pre-fork events.  The inherited
        spill writer shares a file offset with the parent, so the child
        must never touch it; spilling is simply disabled in the child.
        The drainer is restarted so the child's own recording keeps
        flowing."""
        self._registry_lock = threading.Lock()
        self._snapshot_lock = threading.Lock()
        self._tls = threading.local()
        self._buffers = {}
        self._master = []
        self._absorbed = 0
        self._sink_error = None
        self._drainer_error = None
        self._failed_open = False
        self._open = [True]
        self._gate = threading.Event()
        self._gate.set()
        self._wake = threading.Event()
        self._flush_done = None
        self._writer = None
        self.spill_path = None
        if not self._closed:
            self._drainer = threading.Thread(
                target=self._run, name="dsspy-batch-drainer", daemon=True
            )
            self._drainer.start()

    # -- drain / snapshot ------------------------------------------------

    def drain(self) -> list[RawEvent]:
        """Final harvest; producers must be quiescent (same contract as
        every other channel — a racing ``post`` raises or is lost)."""
        if not self._closed:
            self._closed = True
            self._stopping = True
            self._open[0] = True
            self._gate.set()
            self._wake.set()
            # Bounded join: a wedged drainer becomes a diagnosable
            # error instead of a silent hang (and under the fail-open
            # guard, finish_with_deadline contains even that).
            self._drainer.join(timeout=max(self._block_timeout, 1.0))
            if self._drainer.is_alive():
                raise RuntimeError(
                    f"batching drainer did not stop within "
                    f"{max(self._block_timeout, 1.0):.1f}s during drain"
                )
            if self._drainer_error is not None:
                # The drainer died mid-run; salvage whatever is still
                # sitting in thread buffers, best-effort.
                try:
                    self._harvest_all()
                except Exception:
                    pass
            if self._writer is not None:
                self._writer.close()
                self._master = read_spill_raw(self.spill_path)
        return self._master

    def snapshot(self) -> list[RawEvent]:
        """Everything posted so far: triggers a harvest barrier, waits
        for the drainer to signal it absorbed all pre-barrier events."""
        if self._closed:
            return self._master
        if not self._drainer.is_alive():
            # The drainer died (its error is in drainer_error); harvest
            # inline rather than waiting on a barrier nobody will serve.
            try:
                self._harvest_all()
            except Exception:
                pass
            return list(self._master)
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
        return list(self._master)

    # -- introspection ---------------------------------------------------

    @property
    def pending(self) -> int:
        """Events posted so far (approximate while producers race)."""
        with self._registry_lock:
            unharvested = sum(len(b) for b in self._buffers.values())
        return self._absorbed + unharvested

    @property
    def sink_error(self) -> BaseException | None:
        """Last exception a ``sink`` callback raised, if any."""
        return self._sink_error

    @property
    def drainer_error(self) -> BaseException | None:
        """Exception that killed the drainer thread, if any (the
        channel fails open when this is set)."""
        return self._drainer_error

    @property
    def failed_open(self) -> bool:
        """True once the backpressure gate was permanently opened."""
        return self._failed_open

    @property
    def batch_size(self) -> int:
        return self._batch_size
