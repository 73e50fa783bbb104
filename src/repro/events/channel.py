"""Event transport channels.

DSspy keeps the execution slowdown low by *only recording* access events
at runtime and analyzing them post-mortem; events flow to the analysis
module over an asynchronous channel rather than through file-based or
in-memory logs (§IV).  This module provides three interchangeable
transports:

``SynchronousChannel``
    Direct in-memory append.  Lowest latency, used for deterministic
    tests and single-threaded workloads.

``AsyncChannel``
    A background drainer thread consuming a thread-safe queue -- the
    in-process analog of the paper's separate analysis process fed via
    asynchronous intra-process communication.

``ProcessChannel``
    A ``multiprocessing`` queue drained by a child process.  Provided
    for fidelity with the paper's design; not the default because the
    evaluation container has a single core and pickling costs dominate.
"""

from __future__ import annotations

import multiprocessing as mp
import queue
import threading
from typing import Protocol

from .event import RawEvent


class Channel(Protocol):
    """Transport for raw event tuples from producers to the collector."""

    def post(self, raw: RawEvent) -> None:
        """Enqueue one raw event (hot path; must be cheap)."""

    def drain(self) -> list[RawEvent]:
        """Stop accepting events and return everything posted, in order."""

    def snapshot(self) -> list[RawEvent]:
        """Everything posted so far, without closing the channel.

        Lets the collector assemble profiles mid-session (e.g. a tracked
        structure's ``profile()`` while the workload is still running).
        """

    @property
    def pending(self) -> int:
        """Events posted so far (approximate for async transports)."""


class SynchronousChannel:
    """Direct append to an in-memory buffer."""

    __slots__ = ("_buffer", "_closed")

    def __init__(self) -> None:
        self._buffer: list[RawEvent] = []
        self._closed = False

    def post(self, raw: RawEvent) -> None:
        if self._closed:
            raise RuntimeError("channel already drained")
        self._buffer.append(raw)

    def producer(self):
        """The hot-path produce callable: the buffer's bound ``append``
        while the channel is open (no Python frame per event), the
        raising :meth:`post` once it is drained.  Callers must not keep
        it across the drain; the collector drops its cached producers
        in ``finish``."""
        if self._closed:
            return self.post
        return self._buffer.append

    def drain(self) -> list[RawEvent]:
        self._closed = True
        return self._buffer

    def snapshot(self) -> list[RawEvent]:
        return self._buffer

    @property
    def pending(self) -> int:
        return len(self._buffer)


class _FlushMarker:
    """In-band snapshot barrier for queue-drained channels.

    Posted onto the event queue; because the queue is FIFO, by the time
    the drainer reaches the marker every event posted before it has been
    absorbed into the buffer.  The drainer sets ``done`` instead of
    appending — no polling, no per-event bookkeeping.
    """

    __slots__ = ("done",)

    def __init__(self) -> None:
        self.done = threading.Event()


class AsyncChannel:
    """Queue + background drainer thread.

    The producer side does a single ``SimpleQueue.put`` per event; the
    drainer thread accumulates events into a private buffer.  ``drain``
    posts a sentinel, joins the drainer, and hands the buffer over.
    """

    _SENTINEL = None

    def __init__(self) -> None:
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._buffer: list[RawEvent] = []
        self._posted = 0
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="dsspy-collector", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        buffer = self._buffer
        get = self._queue.get
        while True:
            item = get()
            if item is self._SENTINEL:
                return
            if type(item) is _FlushMarker:
                item.done.set()
                continue
            buffer.append(item)

    def post(self, raw: RawEvent) -> None:
        if self._closed:
            raise RuntimeError("channel already drained")
        self._posted += 1
        self._queue.put(raw)

    def _after_fork_child(self, policy: str) -> None:  # noqa: ARG002
        """Reinitialize in a fork child: the drainer thread did not
        survive the fork and the inherited queue may hold the parent's
        in-flight events.  The child starts with a fresh queue/buffer
        and its own drainer; the parent owns the pre-fork events."""
        self._queue = queue.SimpleQueue()
        self._buffer = []
        self._posted = 0
        if not self._closed:
            self._thread = threading.Thread(
                target=self._run, name="dsspy-collector", daemon=True
            )
            self._thread.start()

    def drain(self) -> list[RawEvent]:
        if not self._closed:
            self._closed = True
            self._queue.put(self._SENTINEL)
            self._thread.join()
        return self._buffer

    def snapshot(self) -> list[RawEvent]:
        """Copy of everything posted so far, synchronized via an in-band
        flush marker (the drainer signals when it reaches it) rather
        than a sleep-poll loop."""
        if self._closed:
            return self._buffer
        marker = _FlushMarker()
        self._queue.put(marker)
        if not marker.done.wait(timeout=5.0):  # pragma: no cover - defensive
            raise TimeoutError("async channel drainer did not catch up")
        return list(self._buffer)

    @property
    def pending(self) -> int:
        return self._posted


class ProcessChannel:
    """Queue drained by a child process (paper-faithful transport).

    Events are accumulated in the child and shipped back in one batch on
    ``drain``.  Use only for long-running multi-core captures; on a
    single-core host :class:`AsyncChannel` is strictly faster.
    """

    _SENTINEL = ("__dsspy_sentinel__",)

    def __init__(self, drain_timeout: float = 30.0) -> None:
        ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() else mp.get_context()
        self._queue: mp.Queue = ctx.Queue()
        self._result: mp.Queue = ctx.Queue()
        self._posted = 0
        self._closed = False
        self._drain_timeout = drain_timeout
        self._process = ctx.Process(target=self._run, args=(self._queue, self._result), daemon=True)
        self._process.start()

    @staticmethod
    def _run(q, result) -> None:
        buffer: list[RawEvent] = []
        while True:
            item = q.get()
            if isinstance(item, tuple) and item == ProcessChannel._SENTINEL:
                break
            buffer.append(item)
        result.put(buffer)

    def post(self, raw: RawEvent) -> None:
        if self._closed:
            raise RuntimeError("channel already drained")
        self._posted += 1
        self._queue.put(raw)

    def drain(self) -> list[RawEvent]:
        """Ship the child's buffer back, with a bounded wait.

        A child that died (OOM-killed, crashed unpickling an event)
        would make a bare ``result.get()`` block forever; instead the
        wait is bounded by ``drain_timeout`` and a dead or wedged child
        raises a diagnosable ``RuntimeError``.
        """
        if self._closed:
            raise RuntimeError("channel already drained")
        self._closed = True
        self._queue.put(self._SENTINEL)
        try:
            buffer = self._result.get(timeout=self._drain_timeout)
        except queue.Empty:
            alive = self._process.is_alive()
            exitcode = self._process.exitcode
            self._process.terminate()
            self._process.join(timeout=5.0)
            if alive:
                raise RuntimeError(
                    f"ProcessChannel drainer did not return within "
                    f"{self._drain_timeout}s with {self._posted} events posted; "
                    f"child terminated"
                ) from None
            raise RuntimeError(
                f"ProcessChannel drainer died before drain (exit code "
                f"{exitcode}); {self._posted} posted events are lost"
            ) from None
        self._process.join(timeout=self._drain_timeout)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()
            self._process.join(timeout=5.0)
        return buffer

    def snapshot(self) -> list[RawEvent]:
        raise NotImplementedError(
            "ProcessChannel buffers in a child process; snapshots are only "
            "available after drain() — use an AsyncChannel for mid-session "
            "inspection"
        )

    @property
    def pending(self) -> int:
        return self._posted
