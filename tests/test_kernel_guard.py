"""The runtime guard on the record kernel, checked per event.

On the packed fast path a tracked structure's record hook *is* the
record kernel, cached at construction.  The firewall therefore lives in
the kernel: while a guard is armed every call diverts to the
collector's contained record, whenever the structure was built.  These
cases build the structure before arming the guard (module-level
containers, an outer firewall) as well as under it, on the
pure-python kernel and, where it was built, the compiled one.
"""

from __future__ import annotations

import pytest

from repro.events import EventCollector, PackedBatchingChannel
from repro.events import fastpath
from repro.events.fastpath import PyRecorder
from repro.runtime.guard import RuntimeGuard, arm, disarm, firewall
from repro.structures import TrackedList
from repro.testing import SimClock

KERNELS = ["python"] + (["c"] if fastpath._CRecorder is not None else [])


@pytest.fixture(params=KERNELS)
def kernel(request, monkeypatch):
    if request.param == "python":
        monkeypatch.setattr(fastpath, "_CRecorder", None)
    return request.param


class FlakyBindChannel(PackedBatchingChannel):
    """A packed channel whose buffer acquisition (the kernel's bind)
    raises like a backpressure timeout for the next ``failures`` calls,
    then recovers."""

    def __init__(self, **kwargs) -> None:
        self.failures = 0
        self.binds = 0
        super().__init__(**kwargs)

    def acquire_buffer(self) -> bytearray:
        self.binds += 1
        if self.failures:
            self.failures -= 1
            raise RuntimeError("backpressure: nothing drained them within 0.05s")
        return super().acquire_buffer()

    def fail_next_binds(self, count: int) -> None:
        """Make the next ``count`` binds raise, and force every thread
        back through bind (what a closing gate does)."""
        self.failures = count
        self._invalidate_kernels()


def _packed(kernel: str) -> tuple[FlakyBindChannel, EventCollector]:
    channel = FlakyBindChannel()
    collector = EventCollector(channel=channel)
    expected = PyRecorder if kernel == "python" else fastpath._CRecorder
    assert type(collector.record) is expected  # the kernel engaged
    return channel, collector


def _recorded(collector: EventCollector, xs: TrackedList) -> int:
    """Events recorded for ``xs`` after its constructor's ``Init``."""
    collector.finish()
    return len(collector.profile_of(xs.instance_id)) - 1


class TestBuiltBeforeTheGuard:
    def test_raising_bind_is_contained_and_retried_per_event(self, kernel):
        channel, collector = _packed(kernel)
        xs = TrackedList(collector=collector)
        xs.append(0)  # unguarded: binds and caches a healthy buffer
        channel.fail_next_binds(10**6)
        plain = [0]
        with firewall(budget=10**6) as guard:
            for i in range(1, 6):
                xs.append(i)
                plain.append(i)
            assert xs[2] == 2
            xs[3] = 30
            plain[3] = 30
            assert xs.index(30) == 3
        assert xs.raw() == plain
        report = guard.report()
        assert report.state == "closed"
        # Nothing is cached on a failed bind: every event retried it
        # and was counted.
        assert report.by_category["record"] == channel.binds - 1 >= 8
        channel.failures = 0
        assert _recorded(collector, xs) == 1

    def test_tripped_breaker_passes_through(self, kernel):
        channel, collector = _packed(kernel)
        xs = TrackedList(collector=collector)
        xs.append(0)
        with firewall(budget=10) as guard:
            xs.append(1)  # guarded and healthy: recorded
            guard.trip("test")
            for i in range(2, 10):
                xs.append(i)
            assert xs[5] == 5
        assert guard.report().faults == 0
        xs.append(10)  # disarmed: the direct kernel call again
        assert xs.raw() == list(range(11))
        assert _recorded(collector, xs) == 3

    def test_profiler_internal_recording_is_suppressed(self, kernel):
        channel, collector = _packed(kernel)
        xs = TrackedList(collector=collector)
        xs.append(0)
        with firewall(budget=10) as guard:
            guard._tls.inside = True
            try:
                xs.append(1)
                xs.append(2)
            finally:
                guard._tls.inside = False
            xs.append(3)
        assert _recorded(collector, xs) == 2

    def test_half_open_breaker_records_again(self, kernel):
        channel, collector = _packed(kernel)
        xs = TrackedList(collector=collector)
        xs.append(0)
        clock = SimClock()
        guard = arm(RuntimeGuard(budget=1, cooldown=5.0, probation=1.0, clock=clock))
        try:
            channel.fail_next_binds(1)
            xs.append(1)  # the one bind fault: trips the breaker
            assert guard.tripped
            xs.append(2)  # pass-through
            clock.advance(5.0)
            guard.poll()
            assert not guard.tripped
            xs.append(3)
            xs.append(4)
        finally:
            disarm(guard)
        assert guard.report().faults == 1
        assert _recorded(collector, xs) == 3


class TestBindTimesOutOnceThenRecovers:
    @pytest.mark.parametrize("built", ["before-arming", "under-guard"])
    def test_later_events_reach_the_profile(self, kernel, built):
        channel, collector = _packed(kernel)
        if built == "before-arming":
            xs = TrackedList(collector=collector)
        with firewall(budget=10**6) as guard:
            if built == "under-guard":
                xs = TrackedList(collector=collector)
            channel.fail_next_binds(1)
            for i in range(100):
                xs.append(i)
            # A later gate closing rebinds again, healthily.
            channel.fail_next_binds(0)
            for i in range(100, 150):
                xs.append(i)
        assert xs.raw() == list(range(150))
        assert guard.report().faults == 1
        assert _recorded(collector, xs) == 149


class TestWithoutAGuard:
    def test_raising_bind_fails_loud(self, kernel):
        channel, collector = _packed(kernel)
        xs = TrackedList(collector=collector)
        channel.fail_next_binds(1)
        with pytest.raises(RuntimeError, match="backpressure"):
            xs.append(0)
        xs.append(1)  # the failed bind cached nothing: this one binds
        assert _recorded(collector, xs) == 1
