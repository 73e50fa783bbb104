"""Unit tests for the correctness harness itself: SimClock, the trace
generator, the fault proxy, and trace shrinking.

The differential oracle's end-to-end trials live in
``test_differential_oracle.py``; this file pins down the building
blocks so an oracle failure can be attributed to the product, not the
harness.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.events.spill import RECORD_SIZE
from repro.service import ProfilingDaemon, ProtocolError, ServiceClient
from repro.service.protocol import (
    _EVENTS_HEADER,
    FrameDecoder,
    MessageType,
    decode_events,
    encode_events,
)
from repro.testing import (
    FAULT_KINDS,
    FaultPlan,
    FaultProxy,
    SimClock,
    generate_trace,
    shrink_trace,
)


class TestSimClock:
    def test_monotonic_only_moves_on_advance(self):
        clock = SimClock()
        assert clock.monotonic() == 0.0
        time.sleep(0.01)  # real time passing is invisible
        assert clock.monotonic() == 0.0
        clock.advance(5.0)
        assert clock.monotonic() == 5.0

    def test_wall_tracks_virtual_time_from_fixed_epoch(self):
        clock = SimClock(start=10.0, epoch=1000.0)
        assert clock.wall() == 1000.0
        clock.advance(3.5)
        assert clock.wall() == 1003.5
        assert clock.monotonic() == 13.5

    def test_cannot_advance_backwards(self):
        with pytest.raises(ValueError, match="backwards"):
            SimClock().advance(-1.0)

    def test_wait_times_out_on_virtual_deadline(self):
        clock = SimClock()
        event = threading.Event()
        done = []

        def waiter():
            done.append(clock.wait(event, 30.0))

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)
        assert not done  # real time alone never expires the wait
        clock.advance(31.0)
        t.join(timeout=5.0)
        assert done == [False]

    def test_wait_returns_promptly_when_event_set_externally(self):
        clock = SimClock()
        event = threading.Event()
        done = []
        t = threading.Thread(target=lambda: done.append(clock.wait(event, 1e9)))
        t.start()
        event.set()  # no advance() at all
        t.join(timeout=5.0)
        assert done == [True]

    def test_sleep_blocks_until_advanced(self):
        clock = SimClock()
        woke = threading.Event()

        def sleeper():
            clock.sleep(10.0)
            woke.set()

        t = threading.Thread(target=sleeper, daemon=True)
        t.start()
        time.sleep(0.05)
        assert not woke.is_set()
        clock.advance(10.0)
        assert woke.wait(5.0)
        t.join(timeout=5.0)


class TestTraceGenerator:
    def test_same_seed_same_trace(self):
        a, b = generate_trace(1234), generate_trace(1234)
        assert a.events == b.events
        assert [i.instance_id for i in a.instances] == [
            i.instance_id for i in b.instances
        ]
        assert [i.kind for i in a.instances] == [i.kind for i in b.instances]

    def test_different_seeds_differ(self):
        assert generate_trace(1).events != generate_trace(2).events

    def test_per_instance_order_is_preserved_by_interleaving(self):
        # Re-deriving each instance's substream must give a coherent
        # stream; spot-check via insert positions growing with size.
        trace = generate_trace(77)
        for inst in trace.instances:
            events = trace.events_of(inst.instance_id)
            assert all(raw[0] == inst.instance_id for raw in events)

    def test_events_are_wire_shaped(self):
        trace = generate_trace(5)
        for raw in trace.events:
            iid, op, kind, pos, size, tid, wall = raw
            assert iid >= 100
            assert op >= 0 and kind >= 0
            assert pos is None or pos >= 0
            assert size >= 0 and tid >= 0
            assert wall is None
        # Wire-shaped means encodable: the protocol must round-trip it.
        start, raws = decode_events(encode_events(0, trace.events[:50])[5:])
        assert start == 0
        assert len(raws) == 50

    def test_seed_diversity_flags_use_cases(self):
        # The generator is biased toward rule-triggering shapes; a
        # vacuous generator would make the differential tests toothless.
        from repro.testing import run_batch_path

        flagged_seeds = sum(
            1 if run_batch_path(generate_trace(seed))["use_cases"] else 0
            for seed in range(15)
        )
        assert flagged_seeds >= 5


class TestFaultPlan:
    def test_plan_is_seed_deterministic(self):
        a = FaultPlan.from_seed(99, intensity=0.5)
        b = FaultPlan.from_seed(99, intensity=0.5)
        assert a.faults == b.faults
        assert a.faults  # intensity 0.5 over 64 frames: certainly some

    def test_plan_respects_max_faults_and_kinds(self):
        plan = FaultPlan.from_seed(1, intensity=1.0, max_faults=3, kinds=("stall",))
        assert len(plan.faults) == 3
        assert set(plan.faults.values()) == {"stall"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.from_seed(1, kinds=("gremlin",))

    def test_transparent_plan_is_empty(self):
        plan = FaultPlan.transparent()
        assert plan.describe() == "transparent"
        assert plan.action_for(0) is None


def _raws(n, instance=0, start=0):
    return [(instance, 4, 1, start + i, start + i + 1, 0, None) for i in range(n)]


def _registration(instance=0):
    return {"id": instance, "kind": "list", "site": None, "label": "w"}


class TestFaultProxy:
    """Each fault kind against a live daemon, one at a time."""

    def _roundtrip(self, plan, n_events=120, window=40):
        events = _raws(n_events)
        with ProfilingDaemon(port=0) as daemon:
            with FaultProxy(daemon.address, plan) as proxy:
                # Same reconnect-and-retransmit protocol ship_trace
                # speaks, inlined so this file stands on its own.
                client = None
                sent = 0
                session_id = None
                for _ in range(50):
                    try:
                        if client is None:
                            client = ServiceClient(proxy.address, session_id=session_id)
                            session_id = client.session_id
                            sent = (
                                min(sent, client.server_received)
                                if client.resumed
                                else 0
                            )
                            client.register_instances([_registration()])
                        while sent < n_events:
                            k = min(window, n_events - sent)
                            client.send_events(sent, events[sent : sent + k])
                            sent += k
                        ack = client.fin()
                        client.close()
                        return ack, proxy.injected
                    except (OSError, ProtocolError):
                        if client is not None:
                            client.close()
                        client = None
                raise AssertionError("round trip did not converge")

    def test_transparent_proxy_is_invisible(self):
        ack, injected = self._roundtrip(FaultPlan.transparent())
        assert ack["received"] == 120
        assert injected == []

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_each_fault_kind_is_survived(self, kind):
        plan = FaultPlan(faults={1: kind})
        ack, injected = self._roundtrip(plan)
        assert ack["received"] == 120
        assert [f.kind for f in injected] == [kind]

    def test_every_kind_in_one_plan(self):
        plan = FaultPlan(faults=dict(enumerate(FAULT_KINDS)))
        ack, injected = self._roundtrip(plan, n_events=400, window=40)
        assert ack["received"] == 400
        assert {f.kind for f in injected} == set(FAULT_KINDS)

    def test_corrupt_payload_helper_is_detectable(self):
        from repro.testing.faults import _corrupt_events_payload

        payload = encode_events(7, _raws(5))[5:]  # strip frame header
        corrupted = _corrupt_events_payload(payload)
        assert corrupted != payload
        with pytest.raises(ProtocolError, match="implausible"):
            decode_events(corrupted, validate=True)
        # Without validation the garbage op survives decoding — the
        # daemon-side validate flag is what turns it into a rejection.
        start, raws = decode_events(corrupted)
        assert start == 7 and len(raws) == 5

    def test_swap_halves_creates_a_gap(self):
        from repro.testing.faults import _swap_halves

        payload = encode_events(10, _raws(6))[5:]
        wire = _swap_halves(payload)
        decoder = FrameDecoder()
        frames = list(decoder.feed(wire))
        assert [mt for mt, _ in frames] == [MessageType.EVENTS] * 2
        starts = [_EVENTS_HEADER.unpack_from(p)[0] for _, p in frames]
        assert starts == [13, 10]  # later half first: a stream gap
        total = sum(_EVENTS_HEADER.unpack_from(p)[1] for _, p in frames)
        assert total == 6
        for _, p in frames:
            s, c = _EVENTS_HEADER.unpack_from(p)
            assert len(p) - _EVENTS_HEADER.size == c * RECORD_SIZE


class TestShrinking:
    def test_shrinks_to_single_instance(self):
        # First seed whose trace has two or more active instances.
        trace = next(
            t
            for t in (generate_trace(seed) for seed in range(50))
            if sum(1 for i in t.instances if t.events_of(i.instance_id)) >= 2
        )
        # Target the busiest instance (the first may be a silent one).
        target = max(
            (i.instance_id for i in trace.instances),
            key=lambda iid: len(trace.events_of(iid)),
        )

        def fails(candidate):
            return any(raw[0] == target for raw in candidate.events)

        small = shrink_trace(trace, fails)
        assert fails(small)
        live = {raw[0] for raw in small.events}
        assert live == {target}

    def test_shrinks_event_count_down(self):
        trace = generate_trace(42)

        def fails(candidate):
            return len(candidate.events) >= 3

        small = shrink_trace(trace, fails)
        assert len(small.events) == 3

    def test_rejects_passing_trace(self):
        with pytest.raises(ValueError, match="failing trace"):
            shrink_trace(generate_trace(1), lambda c: False)

    def test_result_is_subsequence_of_input(self):
        from repro.events.types import OperationKind

        trace = generate_trace(7)
        insert = int(OperationKind.INSERT)

        def fails(candidate):
            return sum(1 for r in candidate.events if r[1] == insert) >= 5

        small = shrink_trace(trace, fails)
        it = iter(trace.events)
        assert all(raw in it for raw in small.events)  # order-preserving
