"""The event collector: instance registry + event routing.

One :class:`EventCollector` corresponds to one DSspy capture session.
Tracked structures register themselves on construction (obtaining an
instance id) and call :meth:`EventCollector.record` on every interface
method.  After the workload finishes, :meth:`EventCollector.finish`
drains the channel and routes each raw tuple, stamped with its arrival
index as logical timestamp, into the
:class:`~repro.events.profile.RuntimeProfile` of its instance.  The
tuple itself is what the profile stores; no per-event object is built
until a caller asks a profile for :class:`~repro.events.event.AccessEvent`
views.

A module-level *ambient* collector makes tracked structures usable
without ceremony; the :func:`collecting` context manager installs a
fresh collector for deterministic, isolated captures::

    with collecting() as session:
        xs = TrackedList()
        xs.append(1)
    profile = session.profiles_by_label()[""]
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

from ..runtime.guard import ACTIVE_GUARD
from .channel import Channel, SynchronousChannel
from .profile import AllocationSite, RuntimeProfile, route_records
from .sampling import RecordAll, SamplingPolicy
from .types import AccessKind, OperationKind, StructureKind


class EventCollector:
    """Registry of instrumented instances and their event streams.

    Parameters
    ----------
    channel:
        Event transport; defaults to a :class:`SynchronousChannel`.
        Pass a :class:`~repro.events.batching.BatchingChannel` to
        decouple recording from accumulation the way the paper's
        analysis process does.
    capture_wall_time:
        When true, each event also carries ``time.perf_counter()``.
        Off by default: the analyses need only ordering, and logical
        time keeps experiments deterministic.
    sampling:
        Optional :class:`~repro.events.sampling.SamplingPolicy` applied
        before the channel post.  ``None`` (and :class:`RecordAll`)
        keep the full-capture hot path unchanged — not even a policy
        call is paid.
    """

    def __init__(
        self,
        channel: Channel | None = None,
        capture_wall_time: bool = False,
        sampling: SamplingPolicy | None = None,
    ) -> None:
        self._channel: Channel = channel if channel is not None else SynchronousChannel()
        self._post = self._channel.post
        self._tls = threading.local()
        self._capture_wall_time = capture_wall_time
        if sampling is not None and type(sampling) is RecordAll:
            sampling = None
        self._sampler = sampling
        self._sampled_out = 0
        self._lock = threading.Lock()
        self._next_instance_id = 0
        self._profiles: dict[int, RuntimeProfile] = {}
        self._thread_ids: dict[int, int] = {}
        self._finished = False
        self._assembled = 0

    # -- registration ---------------------------------------------------

    def register_instance(
        self,
        kind: StructureKind,
        site: AllocationSite | None = None,
        label: str = "",
    ) -> int:
        """Assign an instance id and create its (empty) profile.

        Channels exposing an ``on_register`` hook (the service layer's
        :class:`~repro.service.client.RemoteChannel`) are notified after
        the id is assigned, so a remote analyzer learns each instance's
        kind/site/label without those ever entering the hot event path.
        """
        with self._lock:
            instance_id = self._next_instance_id
            self._next_instance_id += 1
            self._profiles[instance_id] = RuntimeProfile(
                instance_id, kind=kind, site=site, label=label
            )
        notify = getattr(self._channel, "on_register", None)
        if notify is not None:
            notify(instance_id, kind, site, label)
        return instance_id

    def _dense_thread_id(self) -> int:
        native = threading.get_ident()
        tid = self._thread_ids.get(native)
        if tid is None:
            with self._lock:
                tid = self._thread_ids.setdefault(native, len(self._thread_ids))
        return tid

    def _thread_state(self) -> tuple[int, Channel]:
        """Register the calling thread and cache its hot-path pair
        ``(dense thread id, produce callable)`` in a thread-local.

        ``produce`` is the channel's per-thread :meth:`producer` fast
        path when it offers one (the synchronous channel's buffer
        ``append``, the batching channel's per-thread buffer), otherwise
        the bound ``post``; either way :meth:`record` pays one
        thread-local getattr per event instead of ``get_ident`` + dict
        probe + channel dispatch."""
        tid = self._dense_thread_id()
        producer = getattr(self._channel, "producer", None)
        produce = producer() if producer is not None else self._post
        state = (tid, produce)
        self._tls.state = state
        return state

    # -- fork safety -----------------------------------------------------

    def _after_fork_child(self, policy: str) -> None:
        """Reinitialize after ``fork()`` (runs in the child).

        Called by :mod:`repro.runtime.lifecycle`'s at-fork handler.
        Locks and thread-locals frozen at the fork point are replaced
        (never acquired — their state is arbitrary), and the channel
        gets the same treatment through its own ``_after_fork_child``
        when it has one.  ``policy`` is forwarded so a networked
        channel can choose between re-registering a fresh session and
        self-disabling."""
        self._lock = threading.Lock()
        self._tls = threading.local()
        handler = getattr(self._channel, "_after_fork_child", None)
        if handler is not None:
            handler(policy)

    # -- hot recording path ----------------------------------------------

    def record(
        self,
        instance_id: int,
        op: OperationKind,
        kind: AccessKind,
        position: int | None,
        size: int,
    ) -> None:
        """Record one access event (called by tracked structures).

        This is the recording layer's one firewall site, so a guarded event costs
        this one Python frame between the container method and the
        channel's producer: with a guard armed, recording is skipped
        while the breaker is tripped or a profiler internal is running
        (``guard._tls.inside``), and a raising sampler or producer is
        contained and counted as a ``record`` fault.  With no guard
        armed every exception propagates (fail-loud)."""
        guard = ACTIVE_GUARD[0]
        if guard is not None and (guard._blocked[0] or guard._tls.inside):
            return
        try:
            sampler = self._sampler
            if sampler is not None and not sampler.admit(instance_id):
                self._sampled_out += 1
                return
            try:
                tid, produce = self._tls.state
            except AttributeError:
                tid, produce = self._thread_state()
            wall = time.perf_counter() if self._capture_wall_time else None
            produce((instance_id, int(op), int(kind), position, size, tid, wall))
        except Exception as exc:
            if guard is None:
                raise
            guard.fault("record", exc)

    # -- post-mortem assembly ---------------------------------------------

    def _assemble(self, raws: list) -> None:
        route_records(self._profiles, raws, self._assembled)
        self._assembled = len(raws)

    def assemble(self) -> dict[int, RuntimeProfile]:
        """Route newly recorded events without closing the channel.

        Lets callers inspect profiles mid-session; recording continues
        afterwards.  :meth:`finish` performs the terminal drain.
        """
        if not self._finished:
            self._assemble(self._channel.snapshot())
        return self._profiles

    def finish(self) -> dict[int, RuntimeProfile]:
        """Drain the channel and assemble all runtime profiles.

        Assembly is a routing pass: each drained raw tuple is appended,
        with its arrival index as ``seq``, to its instance's profile as
        a record (:func:`~repro.events.profile.route_records`).
        Idempotent: subsequent calls return the already-assembled
        profiles.  The cached per-thread producers are dropped, so a
        record after the drain goes back to the closed channel and
        raises there.
        """
        if not self._finished:
            self._finished = True
            raws = self._channel.drain()
            self._tls = threading.local()
            self._assemble(raws)
        return self._profiles

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def channel(self) -> Channel:
        """The event transport this collector records into."""
        return self._channel

    @property
    def sampling(self) -> SamplingPolicy | None:
        """The active sampling policy (``None`` means full capture)."""
        return self._sampler

    @property
    def sampled_out(self) -> int:
        """Events the sampling policy skipped (approximate while
        recording is concurrent; exact once the workload quiesces)."""
        return self._sampled_out

    @property
    def event_count(self) -> int:
        """Events recorded so far (exact once finished)."""
        if self._finished:
            return sum(len(p) for p in self._profiles.values())
        return self._channel.pending

    @property
    def instance_count(self) -> int:
        return len(self._profiles)

    def profiles(self) -> list[RuntimeProfile]:
        """All profiles, ordered by instance id (assembled up to now;
        the channel stays open until :meth:`finish`)."""
        assembled = self.assemble()
        return [assembled[i] for i in sorted(assembled)]

    def nonempty_profiles(self) -> list[RuntimeProfile]:
        """Profiles that observed at least one event."""
        return [p for p in self.profiles() if len(p)]

    def profiles_by_label(self) -> dict[str, RuntimeProfile]:
        """Label → profile; later registrations win duplicate labels."""
        return {p.label: p for p in self.profiles()}

    def profile_of(self, instance_id: int) -> RuntimeProfile:
        return self.assemble()[instance_id]


# -- ambient collector ----------------------------------------------------

_ambient = EventCollector()
_stack: list[EventCollector] = []
_stack_lock = threading.Lock()


def get_collector() -> EventCollector:
    """The collector new tracked structures attach to."""
    with _stack_lock:
        return _stack[-1] if _stack else _ambient


def push_collector(collector: EventCollector) -> None:
    with _stack_lock:
        _stack.append(collector)


def pop_collector() -> EventCollector:
    with _stack_lock:
        return _stack.pop()


def reset_ambient() -> EventCollector:
    """Replace the ambient collector (test isolation helper)."""
    global _ambient
    _ambient = EventCollector()
    return _ambient


def iter_collectors() -> list[EventCollector]:
    """Every live collector: ambient plus the installed stack.

    Used by the lifecycle handlers (at-fork reinit, atexit drain).
    Deliberately lock-free — the list copy is GIL-atomic, and the fork
    handler must not touch a lock that may have been held at the fork
    point."""
    return [_ambient, *list(_stack)]


@contextmanager
def collecting(
    channel: Channel | None = None,
    capture_wall_time: bool = False,
    sampling: SamplingPolicy | None = None,
) -> Iterator[EventCollector]:
    """Install a fresh collector for the duration of the block.

    The collector is finished (channel drained, profiles assembled) on
    exit, so profiles are ready for analysis immediately afterwards.
    """
    collector = EventCollector(
        channel=channel,
        capture_wall_time=capture_wall_time,
        sampling=sampling,
    )
    push_collector(collector)
    try:
        yield collector
    finally:
        pop_collector()
        from ..runtime.guard import active_guard

        guard = active_guard()
        if guard is not None:
            # Fail-open mode: the terminal drain is bounded by the
            # guard's exit deadline and its exceptions are contained —
            # a wedged transport cannot hang or crash the host here.
            from ..runtime.lifecycle import finish_with_deadline

            finish_with_deadline(collector, guard)
        else:
            collector.finish()
