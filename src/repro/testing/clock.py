"""Virtualizable time for the profiling service.

Every *policy* timer in the service — the daemon reaper's heartbeat
and linger deadlines, a session's ``last_seen`` bookkeeping, the
client's heartbeat cadence — reads time through a :class:`Clock`
object instead of calling :mod:`time` directly.  In production the
clock is :data:`SYSTEM_CLOCK` and nothing changes; in tests it is a
:class:`SimClock`, and a "30 seconds of client silence" scenario is
one ``clock.advance(31)`` call instead of a wall-clock sleep.

The split is deliberate about what it does *not* virtualize: I/O
waits.  Blocking socket reads (which carry the daemon's backpressure:
a connection thread folds each window before it reads the next) and
the daemon's close-time connection drain are genuine waits on another
thread's progress and stay on real time — virtualizing them would
deadlock a single-threaded test that has no one to advance the clock.
Only the deadline *arithmetic* (is this session stale? has the linger
window passed?) goes through the clock.

:meth:`Clock.wait` exists because the reaper and the client heartbeat
both sleep on a ``threading.Event`` with a timeout.  Under the system
clock it is exactly ``event.wait(timeout)``; under a :class:`SimClock`
the virtual deadline only passes when some thread calls
:meth:`~SimClock.advance`, while the event itself is still honored
promptly (the wait polls on a short real-time tick), so shutdown never
hangs on virtual time.
"""

from __future__ import annotations

import threading
import time


class Clock:
    """Time source protocol (the system implementation doubles as the
    base class so user clocks only override what they need)."""

    def monotonic(self) -> float:
        """Monotonic seconds; the basis of every deadline comparison."""
        return time.monotonic()

    def wall(self) -> float:
        """Wall-clock seconds since the epoch (for display only)."""
        return time.time()

    def sleep(self, seconds: float) -> None:
        """Block until ``seconds`` of *this clock's* time have passed."""
        time.sleep(seconds)

    def wait(self, event: threading.Event, timeout: float) -> bool:
        """Wait for ``event`` up to ``timeout`` clock-seconds; returns
        the event's state, like :meth:`threading.Event.wait`."""
        return event.wait(timeout)


class SystemClock(Clock):
    """Real time (the default everywhere)."""


#: Shared default instance; services treat it like ``None``.
SYSTEM_CLOCK = SystemClock()

#: Real-time granularity at which SimClock waits re-check events set by
#: other threads.  Purely a shutdown-latency bound, not a timing knob.
_POLL_TICK = 0.02


class SimClock(Clock):
    """Manually advanced virtual time.

    ``monotonic()`` returns a counter that only moves when a test calls
    :meth:`advance`.  Threads blocked in :meth:`sleep` or :meth:`wait`
    are woken by ``advance`` the moment their virtual deadline passes;
    :meth:`wait` additionally notices an externally set event within
    :data:`_POLL_TICK` real seconds, so lifecycle events (shutdown,
    stop flags) work unchanged.

    The wall clock is derived from the same counter against a fixed
    epoch, keeping ``uptime_sec``-style arithmetic deterministic.
    """

    def __init__(self, start: float = 0.0, epoch: float = 1_700_000_000.0) -> None:
        self._now = float(start)
        self._start = float(start)
        self._epoch = float(epoch)
        self.skewed = 0.0  # cumulative wall-clock skew injected via skew()
        self._cond = threading.Condition()

    def monotonic(self) -> float:
        with self._cond:
            return self._now

    def wall(self) -> float:
        with self._cond:
            return self._epoch + (self._now - self._start)

    def advance(self, seconds: float) -> float:
        """Move virtual time forward; wakes sleepers.  Returns now."""
        if seconds < 0:
            raise ValueError(f"cannot advance time backwards ({seconds})")
        with self._cond:
            self._now += seconds
            self._cond.notify_all()
            return self._now

    def skew(self, seconds: float) -> float:
        """Shift the *wall* clock by ``seconds`` (either direction)
        without moving monotonic time — an NTP step or a VM migration.

        Every policy deadline in the service compares ``monotonic()``
        readings, so a skewed wall clock must change nothing but
        display output (``uptime_sec``, report timestamps).  The chaos
        harness injects skew mid-soak to keep that property honest.
        Returns the new wall time.
        """
        with self._cond:
            self._epoch += seconds
            self.skewed += seconds
            self._cond.notify_all()
            return self._epoch + (self._now - self._start)

    def sleep(self, seconds: float) -> None:
        """Block until virtual time reaches ``now + seconds``.

        Only returns once some other thread advances the clock far
        enough — a test that sleeps on its own SimClock with no driver
        thread would wait forever, which is the point: virtual sleeps
        make hidden time dependencies loud instead of slow.
        """
        with self._cond:
            deadline = self._now + seconds
            while self._now < deadline:
                self._cond.wait()

    def wait(self, event: threading.Event, timeout: float) -> bool:
        with self._cond:
            deadline = self._now + timeout
            while True:
                if event.is_set():
                    return True
                if self._now >= deadline:
                    return event.is_set()
                # Woken early by advance(); the poll tick bounds how
                # long an externally set event can go unnoticed.
                self._cond.wait(_POLL_TICK)


__all__ = ["Clock", "SimClock", "SystemClock", "SYSTEM_CLOCK"]
