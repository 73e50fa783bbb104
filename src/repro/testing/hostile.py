"""Client-side injected faults: a hostile profiler for fail-open tests.

The PR 3 fault vocabulary (:mod:`~repro.testing.faults`) attacks the
*wire* between client and daemon; these faults attack the profiler
itself, inside the host process — the failure modes the
:mod:`repro.runtime` firewall exists to contain:

``raising-record``
    :class:`HostileCollector` raises :class:`ProfilerBug` while
    recording (every call, or every *n*-th), from the per-thread
    producer behind ``record`` — under the record hook's firewall.

``raising-register``
    The collector raises from ``register_instance``, so construction of
    a tracked structure fails inside the profiler.

``raising-channel``
    :class:`RaisingChannel` raises from ``post`` after an initial grace
    period — a transport that works, then breaks mid-capture.

``hanging-channel``
    :class:`HangingChannel` blocks in ``drain`` (or ``post``) until
    released — the silent-stall mode only a watchdog or bounded drain
    can catch; no exception is ever raised.

``fork-under-load``
    Not a class: ``os.fork()`` while recording threads are live,
    exercised by the subprocess tests in ``tests/test_fork_exit.py``.

Every injected fault class carries :class:`ProfilerBug` (or a timed
hold) so tests can assert that what the host program observed was
*contained* profiler behaviour, never coincidental success.
"""

from __future__ import annotations

import threading

from ..events.collector import EventCollector
from ..events.event import RawEvent

#: Client-side fault kinds (the firewall's threat model), extending the
#: wire-level ``FAULT_KINDS`` of :mod:`~repro.testing.faults`.
CLIENT_FAULT_KINDS = (
    "raising-record",
    "raising-register",
    "raising-channel",
    "hanging-channel",
    "fork-under-load",
)


class ProfilerBug(RuntimeError):
    """The injected profiler-internal defect.

    A distinct type so containment tests can assert that *this* —
    not some unrelated error — is what the firewall swallowed."""


class HostileCollector(EventCollector):
    """An :class:`~repro.events.collector.EventCollector` that raises.

    The record fault is injected *under* the hook, in the per-thread
    producer :meth:`record` hands each event to, so it meets the same
    firewall a real broken transport would: contained and counted under
    an armed guard, skipped entirely once the breaker trips, propagated
    with no guard armed.  ``record_calls`` counts the events that
    reached the producer.  Injection needs the tuple path; with a
    packed channel the record kernel bypasses the producer.

    Parameters
    ----------
    fail_record / fail_register:
        Which entry points raise :class:`ProfilerBug`.
    every:
        Raise on every *n*-th call to the failing entry point (1 =
        every call), so tests can interleave contained faults with
        successful recording.
    """

    def __init__(
        self,
        *,
        fail_record: bool = True,
        fail_register: bool = False,
        every: int = 1,
        **kwargs,
    ) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        super().__init__(**kwargs)
        self.fail_record = fail_record
        self.fail_register = fail_register
        self.every = every
        self.record_calls = 0
        self.register_calls = 0

    def register_instance(self, kind, site=None, label=""):
        self.register_calls += 1
        if self.fail_register and self.register_calls % self.every == 0:
            raise ProfilerBug(
                f"injected register_instance fault (call {self.register_calls})"
            )
        return super().register_instance(kind, site=site, label=label)

    def _thread_state(self):
        tid, produce = super()._thread_state()

        def hostile_produce(raw):
            self.record_calls += 1
            if self.fail_record and self.record_calls % self.every == 0:
                raise ProfilerBug(f"injected record fault (call {self.record_calls})")
            produce(raw)

        state = self._tls.state = (tid, hostile_produce)
        return state


class RaisingChannel:
    """A channel whose ``post`` raises after ``after`` successful posts.

    Models a transport that works and then breaks mid-capture (a
    full disk behind a spill file, a socket torn down under the
    drainer).  ``drain``/``snapshot`` keep working so a healthy guard
    can still salvage what was recorded before the break.
    """

    def __init__(self, after: int = 0) -> None:
        self.after = after
        self.posts = 0
        self._buffer: list[RawEvent] = []
        self._closed = False

    def post(self, raw: RawEvent) -> None:
        if self._closed:
            raise RuntimeError("channel already drained")
        if self.posts >= self.after:
            self.posts += 1
            raise ProfilerBug(f"injected channel post fault (post {self.posts})")
        self.posts += 1
        self._buffer.append(raw)

    def drain(self) -> list[RawEvent]:
        self._closed = True
        return self._buffer

    def snapshot(self) -> list[RawEvent]:
        return self._buffer

    @property
    def pending(self) -> int:
        return len(self._buffer)


class HangingChannel:
    """A channel that blocks instead of raising — the silent stall.

    ``drain`` (and optionally ``post``) wait on an internal event that
    only :meth:`release` sets; ``max_hold`` bounds the wait so a test
    whose containment *failed* still terminates with a diagnosable
    assertion instead of deadlocking the suite.
    """

    def __init__(
        self,
        hang_post: bool = False,
        hang_drain: bool = True,
        max_hold: float = 30.0,
    ) -> None:
        self.hang_post = hang_post
        self.hang_drain = hang_drain
        self.max_hold = max_hold
        self.held = 0
        self._release = threading.Event()
        self._buffer: list[RawEvent] = []
        self._closed = False

    def release(self) -> None:
        """Unblock every current and future hold."""
        self._release.set()

    def _hold(self) -> None:
        self.held += 1
        self._release.wait(self.max_hold)

    def post(self, raw: RawEvent) -> None:
        if self._closed:
            raise RuntimeError("channel already drained")
        if self.hang_post:
            self._hold()
        self._buffer.append(raw)

    def drain(self) -> list[RawEvent]:
        if not self._closed:
            if self.hang_drain:
                self._hold()
            self._closed = True
        return self._buffer

    def snapshot(self) -> list[RawEvent]:
        return list(self._buffer)

    @property
    def pending(self) -> int:
        return len(self._buffer)


def make_hostile_collector(kind: str, every: int = 1) -> EventCollector:
    """Build the collector for one :data:`CLIENT_FAULT_KINDS` entry
    (the fork-under-load kind has no collector — it is a process-level
    scenario driven by the subprocess tests)."""
    if kind == "raising-record":
        return HostileCollector(fail_record=True, every=every)
    if kind == "raising-register":
        return HostileCollector(fail_record=False, fail_register=True, every=every)
    if kind == "raising-channel":
        return EventCollector(channel=RaisingChannel())
    if kind == "hanging-channel":
        return EventCollector(channel=HangingChannel(max_hold=2.0))
    raise ValueError(
        f"no collector for client fault kind {kind!r}; "
        f"expected one of {CLIENT_FAULT_KINDS[:-1]}"
    )
