"""Unit tests for the fail-open runtime: firewall, breaker, lifecycle."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.events import EventCollector, collecting
from repro.events.batching import BatchingChannel
from repro.runtime import (
    CircuitBreaker,
    RuntimeGuard,
    Watchdog,
    active_guard,
    arm,
    channel_stall_probe,
    disarm,
    finish_with_deadline,
    firewall,
    heartbeat_probe,
)
from repro.runtime.guard import ACTIVE_GUARD
from repro.runtime.lifecycle import install_fork_safety
from repro.structures import TrackedList
from repro.structures.base import capture_site, set_site_capture, site_capture_enabled
from repro.testing import HangingChannel, HostileCollector, ProfilerBug, SimClock


@pytest.fixture(autouse=True)
def _no_leaked_guard():
    """Every test must leave the ambient guard slot empty."""
    yield
    assert ACTIVE_GUARD[0] is None, "test leaked an armed guard"


class TestCircuitBreaker:
    def test_trips_exactly_at_budget(self):
        breaker = CircuitBreaker(budget=3)
        assert breaker.record_fault("record") is False
        assert breaker.record_fault("record") is False
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.record_fault("record") is True
        assert breaker.state == CircuitBreaker.OPEN
        assert "3/3" in breaker.trip_reason

    def test_open_absorbs_further_faults(self):
        breaker = CircuitBreaker(budget=1)
        assert breaker.record_fault() is True
        # Once open, later faults neither re-trip nor grow the count.
        assert breaker.record_fault() is False
        assert breaker.trips == 1

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            CircuitBreaker(budget=0)

    def test_no_cooldown_means_trip_is_final(self):
        clock = SimClock()
        breaker = CircuitBreaker(budget=1, cooldown=None, clock=clock)
        breaker.record_fault()
        clock.advance(1e9)
        assert breaker.poll() is None
        assert breaker.state == CircuitBreaker.OPEN

    def test_half_open_reprobe_then_close(self):
        clock = SimClock()
        breaker = CircuitBreaker(budget=1, cooldown=10.0, probation=5.0, clock=clock)
        breaker.record_fault()
        assert breaker.poll() is None  # cooldown not yet elapsed
        clock.advance(10.0)
        assert breaker.poll() == "half-open"
        assert breaker.reprobes == 1
        clock.advance(5.0)
        assert breaker.poll() == "closed"
        # A clean probation restores the full budget.
        assert breaker.faults == 0
        assert breaker.trip_reason is None

    def test_fault_during_probation_retrips_with_doubled_cooldown(self):
        clock = SimClock()
        breaker = CircuitBreaker(budget=1, cooldown=10.0, probation=5.0, clock=clock)
        breaker.record_fault()
        clock.advance(10.0)
        assert breaker.poll() == "half-open"
        assert breaker.record_fault("record") is True
        assert breaker.state == CircuitBreaker.OPEN
        assert "re-probe failed" in breaker.trip_reason
        # Second trip doubles the effective cooldown: 10s is no longer
        # enough, 20s is.
        clock.advance(10.0)
        assert breaker.poll() is None
        clock.advance(10.0)
        assert breaker.poll() == "half-open"


class TestArming:
    def test_arm_disarm_restores_previous(self):
        outer, inner = RuntimeGuard(), RuntimeGuard()
        arm(outer)
        arm(inner)
        assert active_guard() is inner
        disarm(inner)
        assert active_guard() is outer
        disarm(outer)
        assert active_guard() is None

    def test_disarm_wrong_guard_raises(self):
        guard = RuntimeGuard()
        arm(guard)
        try:
            with pytest.raises(RuntimeError):
                disarm(RuntimeGuard())
        finally:
            disarm(guard)

    def test_firewall_context_manager(self):
        with firewall(budget=7) as guard:
            assert active_guard() is guard
            assert guard.budget == 7
        assert active_guard() is None


class TestFirewall:
    def test_contains_and_counts_record_faults(self):
        with firewall(budget=100) as guard:
            xs = TrackedList(collector=HostileCollector())
            for i in range(5):
                xs.append(i)
            contents = xs.to_list()
        report = guard.report()
        # 1 INIT + 5 appends + 1 copy, every one contained.
        assert report.by_category["record"] == 7
        assert report.state == "closed"
        assert contents == [0, 1, 2, 3, 4]

    def test_trips_after_budget_then_pass_through(self):
        collector = HostileCollector()
        with firewall(budget=4) as guard:
            xs = TrackedList(collector=collector)
            for i in range(50):
                xs.append(i)
            assert guard.tripped
            contents = xs.to_list()
        # Exactly `budget` faults were counted; every call after the
        # trip skipped the collector entirely (pass-through).
        assert guard.report().faults == 4
        assert collector.record_calls == 4
        assert contents == list(range(50))

    def test_register_failure_untracks_instance(self):
        collector = HostileCollector(fail_record=False, fail_register=True)
        with firewall(budget=100) as guard:
            xs = TrackedList(collector=collector)
            xs.append(1)
            xs.append(2)
        assert not xs.tracked
        assert xs.instance_id == -1
        assert xs.to_list() == [1, 2]
        assert guard.report().by_category["register"] == 1
        with pytest.raises(RuntimeError, match="untracked"):
            xs.profile()

    def test_construction_while_tripped_yields_plain_delegate(self):
        with firewall(budget=1) as guard:
            guard.trip("test")
            xs = TrackedList()
            xs.append(1)
        assert not xs.tracked
        assert xs.to_list() == [1]

    def test_reentrant_recording_is_suppressed(self):
        with firewall(budget=100) as guard:
            with collecting() as session:
                xs = TrackedList(label="outer")
                xs.append(1)
                guard._tls.inside = True
                try:
                    # A profiler internal touching tracked structures:
                    # no events, no registration, no deadlock.
                    ys = TrackedList(label="inner")
                    ys.append(2)
                    xs.append(3)
                finally:
                    guard._tls.inside = False
                xs.append(4)
        labels = session.profiles_by_label()
        assert "inner" not in labels
        assert not ys.tracked
        assert ys.raw() == [2]
        assert xs.raw() == [1, 3, 4]
        # outer recorded INIT + append(1) + append(4); append(3) was
        # suppressed by the in-profiler flag.
        assert len(labels["outer"]) == 3

    def test_unguarded_behaviour_is_fail_loud(self):
        with pytest.raises(ProfilerBug):
            TrackedList(collector=HostileCollector())

    def test_trip_fails_open_watched_channels(self):
        channel = BatchingChannel(policy="block", max_buffered=10)
        try:
            guard = RuntimeGuard(budget=1)
            guard.watch_channel(channel)
            guard.trip("test")
            assert channel.failed_open
            # The gate can never re-close: producers cannot block.
            assert channel._open[0]
        finally:
            channel.drain()

    def test_fault_machinery_failure_forces_pass_through(self):
        guard = RuntimeGuard(budget=100)
        guard._breaker = None  # break the breaker itself
        guard.fault("record", ValueError("x"))  # must not raise
        assert guard.tripped

    def test_report_describe_mentions_trip(self):
        with firewall(budget=1) as guard:
            guard.fault("post", ValueError("boom"))
        text = guard.report().describe()
        assert "open" in text
        assert "post" in text
        assert "boom" in text


class FlakyBindChannel(BatchingChannel):
    """A batching channel whose per-thread producer lookup — the record
    hook's bind, reached from ``EventCollector._thread_state`` — raises
    like a backpressure timeout for the next ``failures`` calls, then
    recovers."""

    def __init__(self, **kwargs) -> None:
        self.failures = 0
        self.binds = 0
        super().__init__(**kwargs)

    def producer(self):
        self.binds += 1
        if self.failures:
            self.failures -= 1
            raise RuntimeError("backpressure: nothing drained them within 0.05s")
        return super().producer()


def _in_new_thread(work) -> None:
    """Run ``work`` on a thread the collector has not bound yet, so its
    first record goes through the bind; re-raise what it raised."""
    errors: list[BaseException] = []

    def run():
        try:
            work()
        except BaseException as exc:  # noqa: BLE001 - handed to the caller
            errors.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=30.0)
    assert not thread.is_alive()
    if errors:
        raise errors[0]


def _built_unguarded() -> tuple[FlakyBindChannel, EventCollector, TrackedList]:
    """A list built and used with no guard armed, which binds the
    calling thread's producer."""
    channel = FlakyBindChannel()
    collector = EventCollector(channel=channel)
    xs = TrackedList(collector=collector)
    xs.append(0)
    return channel, collector, xs


def _recorded(collector: EventCollector, xs: TrackedList) -> int:
    """Events recorded for ``xs`` after its constructor's ``Init``."""
    collector.finish()
    return len(collector.profile_of(xs.instance_id)) - 1


class TestBuiltBeforeTheGuard:
    """Structures cache ``collector.record`` at construction, so one
    built before a guard is armed (a module-level container, an outer
    firewall) keeps calling the same hook.  The firewall is checked per
    event inside that hook, so such a structure is guarded all the
    same."""

    def test_tripped_breaker_passes_through(self):
        channel, collector, xs = _built_unguarded()
        with firewall(budget=10) as guard:
            xs.append(1)  # guarded and healthy: recorded
            guard.trip("test")
            for i in range(2, 10):
                xs.append(i)
            assert xs[5] == 5
        assert guard.report().faults == 0
        xs.append(10)  # disarmed: recorded again
        assert xs.raw() == list(range(11))
        assert _recorded(collector, xs) == 3

    def test_profiler_internal_recording_is_suppressed(self):
        channel, collector, xs = _built_unguarded()
        with firewall(budget=10) as guard:
            guard._tls.inside = True
            try:
                xs.append(1)
                xs.append(2)
            finally:
                guard._tls.inside = False
            xs.append(3)
        assert _recorded(collector, xs) == 2

    def test_raising_bind_is_contained_and_retried_per_event(self):
        channel, collector, xs = _built_unguarded()
        channel.failures = 5

        def work():
            for i in range(1, 21):
                xs.append(i)

        with firewall(budget=10**6) as guard:
            _in_new_thread(work)
        assert xs.raw() == list(range(21))
        report = guard.report()
        assert report.state == "closed"
        # Nothing is cached on a failed bind: each of the first five
        # events retried it and was counted, the sixth bound for good.
        assert report.by_category["record"] == 5
        assert channel.binds == 1 + 5 + 1
        # ...and every later event reached the profile.
        assert _recorded(collector, xs) == 1 + 15

    def test_half_open_breaker_records_again(self):
        channel, collector, xs = _built_unguarded()
        clock = SimClock()
        guard = arm(RuntimeGuard(budget=1, cooldown=5.0, probation=1.0, clock=clock))
        channel.failures = 1

        def work():
            xs.append(1)  # the one bind fault: trips the breaker
            assert guard.tripped
            xs.append(2)  # pass-through: no bind attempted
            clock.advance(5.0)
            guard.poll()
            assert not guard.tripped
            xs.append(3)
            xs.append(4)

        try:
            _in_new_thread(work)
        finally:
            disarm(guard)
        assert guard.report().faults == 1
        assert channel.binds == 1 + 2
        assert _recorded(collector, xs) == 3


class TestBindTimesOutOnceThenRecovers:
    @pytest.mark.parametrize("built", ["before-arming", "under-guard"])
    def test_later_events_reach_the_profile(self, built):
        channel = FlakyBindChannel()
        collector = EventCollector(channel=channel)
        made: list[TrackedList] = []
        if built == "before-arming":
            made.append(TrackedList(collector=collector))
        channel.failures = 1

        def work():
            if built == "under-guard":
                made.append(TrackedList(collector=collector))
            for i in range(150):
                made[0].append(i)

        with firewall(budget=10**6) as guard:
            _in_new_thread(work)
        xs = made[0]
        assert xs.raw() == list(range(150))
        # One event (the first append, or the constructor's Init) lost
        # to the timed-out bind; the next event bound and every later
        # one was recorded.
        assert guard.report().faults == 1
        assert _recorded(collector, xs) == 149


class TestWithoutAGuard:
    def test_raising_bind_fails_loud(self):
        channel, collector, xs = _built_unguarded()
        channel.failures = 1

        def work():
            with pytest.raises(RuntimeError, match="backpressure"):
                xs.append(1)
            xs.append(2)  # the failed bind cached nothing: this one binds

        _in_new_thread(work)
        assert xs.raw() == [0, 1, 2]
        assert _recorded(collector, xs) == 2


class TestCaptureSite:
    def test_frame_walk_failure_returns_unknown_site(self, monkeypatch):
        def explode(depth):
            raise RuntimeError("no frames here")

        monkeypatch.setattr(sys, "_getframe", explode)
        site = capture_site("v")
        assert site.filename == "<unknown>"
        assert site.variable == "v"

    def test_frame_walk_failure_counts_a_site_fault(self, monkeypatch):
        monkeypatch.setattr(
            sys, "_getframe", lambda depth: (_ for _ in ()).throw(RuntimeError())
        )
        with firewall(budget=10) as guard:
            capture_site()
        assert guard.report().by_category["site"] == 1

    def test_no_sites_fast_path(self):
        assert site_capture_enabled()
        set_site_capture(False)
        try:
            site = capture_site("w")
            assert site.filename == "<unknown>"
            assert site.variable == "w"
            xs = TrackedList()
            assert xs.allocation_site.filename == "<unknown>"
        finally:
            set_site_capture(True)
        assert capture_site().filename != "<unknown>"


class TestBoundedDrain:
    def test_hanging_drain_is_bounded_and_trips(self):
        channel = HangingChannel(max_hold=30.0)
        guard = RuntimeGuard(budget=10, exit_deadline=0.3)
        with guard:
            with collecting(channel=channel) as session:
                xs = TrackedList()
                xs.append(1)
                start = time.perf_counter()
            elapsed = time.perf_counter() - start
        channel.release()
        assert elapsed < 5.0  # bounded, nowhere near the 30s hold
        assert guard.tripped
        assert "deadline" in guard.report().trip_reason
        assert session is not None

    def test_raising_finish_is_contained_with_guard(self):
        class Exploding:
            finished = False

            def finish(self):
                raise ProfilerBug("drain bug")

        guard = RuntimeGuard(budget=10)
        assert finish_with_deadline(Exploding(), guard=guard) is False
        assert guard.report().by_category["drain"] == 1

    def test_raising_finish_propagates_without_guard(self):
        class Exploding:
            def finish(self):
                raise ProfilerBug("drain bug")

        with pytest.raises(ProfilerBug):
            finish_with_deadline(Exploding(), guard=None, deadline=1.0)

    def test_healthy_finish_completes(self):
        class Fine:
            done = False

            def finish(self):
                self.done = True

        obj = Fine()
        assert finish_with_deadline(obj, guard=None, deadline=2.0) is True
        assert obj.done


class TestWatchdog:
    def test_dead_drainer_trips_guard(self):
        channel = BatchingChannel()
        channel.drain()  # closed channel is healthy...
        guard = RuntimeGuard(budget=10)
        dog = Watchdog(guard)
        dog.add_probe("channel", channel_stall_probe(channel))
        dog.tick()
        assert not guard.tripped  # ...because closed means done

        class FakeStalled:
            _closed = False
            drainer_error = None
            _drainer = threading.Thread(target=lambda: None)  # never started

        dog2 = Watchdog(guard)
        dog2.add_probe("channel", channel_stall_probe(FakeStalled()))
        dog2.tick()
        assert guard.tripped
        assert "stalled" in guard.report().trip_reason

    def test_drainer_error_is_a_stall(self):
        class FakeBroken:
            _closed = False
            drainer_error = ValueError("x")

        guard = RuntimeGuard(budget=10)
        dog = Watchdog(guard)
        dog.add_probe("channel", channel_stall_probe(FakeBroken()))
        dog.tick()
        assert guard.tripped

    def test_heartbeat_probe_on_gave_up_channel(self):
        class FakeGaveUp:
            gave_up = True
            _down_since = None

        guard = RuntimeGuard(budget=10)
        dog = Watchdog(guard)
        dog.add_probe("daemon", heartbeat_probe(FakeGaveUp()))
        dog.tick()
        assert guard.tripped

    def test_heartbeat_probe_down_too_long(self):
        clock = SimClock()

        class FakeDown:
            gave_up = False
            _down_since = 0.0

        probe = heartbeat_probe(FakeDown(), max_down=10.0, clock=clock)
        assert probe() is True
        clock.advance(11.0)
        assert probe() is False

    def test_raising_probe_is_a_contained_watchdog_fault(self):
        guard = RuntimeGuard(budget=10)
        dog = Watchdog(guard)
        dog.add_probe("bad", lambda: (_ for _ in ()).throw(ValueError("probe bug")))
        dog.tick()
        assert not guard.tripped
        assert guard.report().by_category["watchdog"] == 1

    def test_poll_reopens_pass_through_on_half_open(self):
        clock = SimClock()
        guard = RuntimeGuard(budget=1, cooldown=5.0, probation=1.0, clock=clock)
        guard.fault("record", ValueError("x"))
        assert guard.tripped
        clock.advance(5.0)
        guard.poll()
        assert not guard.tripped  # half-open: traffic allowed again
        clock.advance(1.0)
        guard.poll()
        assert not guard.tripped  # closed for good

    def test_start_stop_thread(self):
        guard = RuntimeGuard(budget=10)
        with Watchdog(guard, interval=0.01) as dog:
            time.sleep(0.05)
            assert dog._thread.is_alive()
        assert not dog._thread.is_alive()


class TestLifecycleConfig:
    def test_bad_fork_policy_rejected(self):
        with pytest.raises(ValueError):
            install_fork_safety("fork-bomb")
