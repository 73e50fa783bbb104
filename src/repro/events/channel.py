"""Event transport channels.

DSspy keeps the execution slowdown low by *only recording* access events
at runtime and analyzing them post-mortem; events flow to the analysis
module over an asynchronous channel rather than through file-based or
in-memory logs (§IV).  Two transports implement the :class:`Channel`
protocol:

``SynchronousChannel``
    Direct in-memory append, the default.  Lowest latency and fully
    deterministic.

:class:`~repro.events.batching.BatchingChannel`
    Per-thread buffers harvested by a drainer thread -- the in-process
    analog of the paper's separate analysis process.  It is the base of
    the ``--spill`` writer and of
    :class:`~repro.service.client.RemoteChannel`, which ships the
    harvested batches to a profiling daemon (``dsspy analyze
    --remote``), the paper's separate analysis process proper.
"""

from __future__ import annotations

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
