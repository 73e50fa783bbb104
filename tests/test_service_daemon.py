"""Daemon integration tests: sessions, resume, reaping, lifecycle."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.events import (
    AccessKind,
    EventCollector,
    OperationKind,
    pop_collector,
    push_collector,
)
from repro.service import (
    IngestPipeline,
    ProfilingDaemon,
    ProtocolError,
    RemoteChannel,
    ServiceClient,
    Session,
    SessionState,
    fetch_stats,
)
from repro.testing import SimClock
from repro.usecases import UseCaseEngine
from repro.usecases.json_export import report_to_dict
from repro.workloads import gen_frequent_long_read, gen_long_insert


def _wait_for(cond, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return True
        time.sleep(0.01)
    return False


def _long_insert_raws(n: int = 600, instance: int = 0):
    """Synthetic append-only stream (insert at back, growing size)."""
    return [
        (instance, int(OperationKind.INSERT), int(AccessKind.WRITE), i, i + 1, 0, None)
        for i in range(n)
    ]


def _registration(instance: int = 0, label: str = "worker"):
    return {"id": instance, "kind": "list", "site": None, "label": label}


def _flagged(report_dict):
    return sorted(
        (u["instance_id"], u["abbreviation"]) for u in report_dict["use_cases"]
    )


class TestEndToEndRemoteChannel:
    def test_remote_report_matches_batch(self):
        with ProfilingDaemon(port=0) as daemon:
            channel = RemoteChannel(daemon.address, batch_size=64)
            collector = EventCollector(channel=channel)
            push_collector(collector)
            try:
                gen_long_insert()
                gen_frequent_long_read()
            finally:
                pop_collector()
            collector.finish()

            ack = channel.final_ack
            assert ack is not None, "FIN handshake did not complete"
            local = report_to_dict(UseCaseEngine().analyze(collector.profiles()))
            assert _flagged(ack["report"]) == _flagged(local)
            assert ack["report"]["instances_analyzed"] == local["instances_analyzed"]
            total = sum(len(p) for p in collector.profiles())
            assert ack["received"] == total

    def test_two_concurrent_clients_are_separate_sessions(self):
        with ProfilingDaemon(port=0) as daemon:
            acks: dict[str, dict] = {}
            errors: list[Exception] = []

            def run_client(name: str, instance: int) -> None:
                try:
                    client = ServiceClient(daemon.address)
                    client.register_instances([_registration(instance, name)])
                    raws = _long_insert_raws(400, instance)
                    for off in range(0, len(raws), 50):
                        client.send_events(off, raws[off : off + 50])
                    acks[name] = client.fin()
                    client.close()
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=run_client, args=(f"w{i}", i)) for i in (1, 2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
            assert not errors
            assert acks["w1"]["session"] != acks["w2"]["session"]
            for name in ("w1", "w2"):
                assert acks[name]["received"] == 400
                assert acks[name]["report"]["instances_analyzed"] == 1

            stats = fetch_stats(daemon.address)  # STATS without HELLO
            by_id = {s["session"]: s for s in stats["sessions"]}
            assert len(by_id) == 2
            for ack in acks.values():
                entry = by_id[ack["session"]]
                assert entry["state"] == SessionState.FINISHED
                assert entry["received"] == 400


class TestDisconnectAndResume:
    def test_abrupt_disconnect_still_emits_report(self, tmp_path):
        clock = SimClock()
        daemon = ProfilingDaemon(
            port=0, session_linger=30.0, report_dir=tmp_path, clock=clock
        )
        try:
            client = ServiceClient(daemon.address)
            sid = client.session_id
            client.register_instances([_registration()])
            client.send_events(0, _long_insert_raws(600))
            # Give the handler a chance to drain the frames, then vanish
            # without FIN.
            assert _wait_for(lambda: daemon.sessions[sid].received == 600)
            client._sock.close()

            assert _wait_for(
                lambda: daemon.sessions[sid].state == SessionState.DETACHED
            )
            clock.advance(31.0)  # past the linger window — no real waiting
            daemon.reap()
            session = daemon.sessions[sid]
            assert session.state == SessionState.FINISHED
            report = session.finish()
            assert report["instances_analyzed"] == 1
            assert (tmp_path / f"{sid}.json").exists()
        finally:
            daemon.close()

    def test_resume_retransmit_is_not_double_counted(self):
        raws = _long_insert_raws(600)
        with ProfilingDaemon(port=0, session_linger=30.0) as daemon:
            first = ServiceClient(daemon.address)
            sid = first.session_id
            first.register_instances([_registration()])
            first.send_events(0, raws[:400])
            assert _wait_for(lambda: daemon.sessions[sid].received == 400)
            first._sock.close()  # mid-stream death
            assert _wait_for(
                lambda: daemon.sessions[sid].state == SessionState.DETACHED
            )

            second = ServiceClient(daemon.address, session_id=sid)
            assert second.resumed
            assert second.server_received == 400
            # A conservative client rewinds further than necessary; the
            # overlap must be skipped, not folded twice.
            second.send_events(300, raws[300:])
            ack = second.fin()
            second.close()

            assert ack["received"] == 600
            session = daemon.sessions[sid]
            assert session.duplicates == 100
            assert session.stats()["folded"] == 600
            assert ack["report"]["instances_analyzed"] == 1

    def test_resume_waits_for_the_old_connection(self, monkeypatch):
        # The client reconnects while the daemon is still ingesting what
        # reached it on the old connection.  The HELLO must wait for that
        # handler, so the ACK says resumed and its cursor is final.
        raws = _long_insert_raws(600)
        ingest = Session.ingest

        def slow_ingest(self, *args, **kwargs):
            time.sleep(0.02)
            return ingest(self, *args, **kwargs)

        monkeypatch.setattr(Session, "ingest", slow_ingest)
        with ProfilingDaemon(port=0, session_linger=30.0) as daemon:
            first = ServiceClient(daemon.address)
            sid = first.session_id
            first.register_instances([_registration()])
            for start in range(0, 600, 50):
                first.send_events(start, raws[start : start + 50])
            first._sock.close()  # 12 windows still to ingest
            second = ServiceClient(daemon.address, session_id=sid)
            assert second.resumed
            assert second.server_received == 600
            ack = second.fin()
            second.close()
        assert ack["received"] == 600
        assert ack["report"]["instances_analyzed"] == 1

    def test_hello_is_refused_while_the_old_handler_is_stuck(self, monkeypatch):
        # The old connection's handler cannot finish (its ingest is
        # blocked), so a resuming HELLO is refused rather than letting two
        # handlers feed one session; once it finishes, the resume works.
        release = threading.Event()
        ingest = Session.ingest

        def stuck_ingest(self, *args, **kwargs):
            release.wait(30.0)
            return ingest(self, *args, **kwargs)

        monkeypatch.setattr(Session, "ingest", stuck_ingest)
        with ProfilingDaemon(port=0, session_linger=30.0) as daemon:
            first = ServiceClient(daemon.address)
            sid = first.session_id
            first.register_instances([_registration()])
            first.send_events(0, _long_insert_raws(50))
            first._sock.close()
            with pytest.raises(ProtocolError, match="busy"):
                ServiceClient(daemon.address, session_id=sid)
            release.set()
            second = ServiceClient(daemon.address, session_id=sid)
            assert second.resumed
            assert second.server_received == 50
            assert second.fin()["received"] == 50
            second.close()

    def test_reconnect_storm_keeps_exact_cursors(self):
        # More clients than cores, each dropping its connection after every
        # few windows and resuming at once, under a short switch interval:
        # every HELLO must report the resume and the exact count shipped.
        raws = _long_insert_raws(600)
        problems: list[str] = []

        def client(daemon, index):
            sid = f"storm-{index}"
            sent = 0
            while sent < len(raws):
                c = ServiceClient(daemon.address, session_id=sid)
                if sent and not (c.resumed and c.server_received == sent):
                    problems.append(f"{sid}: {c.resumed} {c.server_received} != {sent}")
                if not sent:
                    c.register_instances([_registration()])
                for _ in range(3):
                    c.send_events(sent, raws[sent : sent + 40])
                    sent = min(sent + 40, len(raws))
                if sent == len(raws):
                    ack = c.fin()
                    if ack["received"] != len(raws):
                        problems.append(f"{sid}: fin received {ack['received']}")
                c.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ProfilingDaemon(port=0, session_linger=30.0) as daemon:
                threads = [
                    threading.Thread(target=client, args=(daemon, i)) for i in range(6)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60.0)
                assert not any(t.is_alive() for t in threads)
                duplicates = [daemon.sessions[f"storm-{i}"].duplicates for i in range(6)]
        finally:
            sys.setswitchinterval(interval)
        assert not problems, problems
        assert duplicates == [0] * 6

    def test_event_gap_is_a_protocol_error(self):
        with ProfilingDaemon(port=0) as daemon:
            client = ServiceClient(daemon.address)
            client.send_events(5, _long_insert_raws(10))  # nothing before 5
            with pytest.raises(ProtocolError, match="gap|server error"):
                client.heartbeat()

    def test_resuming_finished_session_is_rejected(self):
        with ProfilingDaemon(port=0) as daemon:
            client = ServiceClient(daemon.address)
            sid = client.session_id
            client.fin()
            client.close()
            with pytest.raises(ProtocolError):
                ServiceClient(daemon.address, session_id=sid)


class TestReaper:
    """Reaper policy runs on the daemon's clock: tests advance a
    SimClock instead of sleeping, so realistic timeouts (tens of
    seconds) cost nothing and the tests cannot flake on a slow CI
    machine racing a 50 ms window."""

    def test_silent_client_is_detached_after_heartbeat_timeout(self):
        clock = SimClock()
        with ProfilingDaemon(port=0, heartbeat_timeout=30.0, clock=clock) as daemon:
            client = ServiceClient(daemon.address)
            sid = client.session_id
            clock.advance(31.0)
            daemon.reap()
            # The reap closes the stale connection; the handler thread
            # notices and detaches — that part is real concurrency.
            assert _wait_for(
                lambda: daemon.sessions[sid].state == SessionState.DETACHED
            )
            client.close()

    def test_heartbeat_keeps_session_alive(self):
        clock = SimClock()
        with ProfilingDaemon(port=0, heartbeat_timeout=30.0, clock=clock) as daemon:
            client = ServiceClient(daemon.address)
            sid = client.session_id
            for _ in range(3):
                clock.advance(20.0)  # inside the timeout each time
                client.heartbeat()
                daemon.reap()
                assert daemon.sessions[sid].state == SessionState.ACTIVE
            client.close()

    def test_finished_session_is_evicted_after_linger(self):
        clock = SimClock()
        with ProfilingDaemon(port=0, session_linger=30.0, clock=clock) as daemon:
            client = ServiceClient(daemon.address)
            sid = client.session_id
            client.fin()
            client.close()
            clock.advance(29.0)
            daemon.reap()
            assert sid in daemon.sessions  # still inside the linger window
            clock.advance(2.0)
            daemon.reap()
            assert sid not in daemon.sessions


class TestLifecycle:
    def test_unix_socket_roundtrip_and_cleanup(self, tmp_path):
        path = tmp_path / "dsspy.sock"
        daemon = ProfilingDaemon(unix_socket=path)
        try:
            assert path.exists()
            assert daemon.address == f"unix:{path}"
            client = ServiceClient(daemon.address)
            client.register_instances([_registration()])
            client.send_events(0, _long_insert_raws(100))
            ack = client.fin()
            assert ack["received"] == 100
            client.close()
        finally:
            daemon.close()
        assert not path.exists()

    def test_close_finalizes_open_sessions(self, tmp_path):
        daemon = ProfilingDaemon(port=0, report_dir=tmp_path)
        client = ServiceClient(daemon.address)
        sid = client.session_id
        client.register_instances([_registration()])
        client.send_events(0, _long_insert_raws(200))
        assert _wait_for(lambda: daemon.sessions[sid].received == 200)
        daemon.close()  # no FIN ever arrived
        session = daemon.sessions[sid]
        assert session.state == SessionState.FINISHED
        assert session.finish()["instances_analyzed"] == 1
        assert (tmp_path / f"{sid}.json").exists()

    def test_shutdown_unblocks_serve_forever(self):
        daemon = ProfilingDaemon(port=0)
        server = threading.Thread(
            target=daemon.serve_forever, kwargs={"install_signals": False}
        )
        server.start()
        assert _wait_for(server.is_alive)
        daemon.handle_signal(15, None)  # what SIGTERM would do
        server.join(timeout=5.0)
        assert not server.is_alive()
        # After close the listener is gone: new connections must fail.
        with pytest.raises((ConnectionError, OSError)):
            ServiceClient(daemon.address)

    def test_close_is_idempotent(self):
        daemon = ProfilingDaemon(port=0)
        daemon.close()
        daemon.close()


class TestIngestPipelineOverflow:
    def _gated_fold(self):
        gate = threading.Event()
        folded: list = []

        def fold(batch):
            gate.wait(10.0)
            folded.extend(batch)

        return gate, folded, fold

    def test_decimate_keeps_one_in_stride(self):
        gate, folded, fold = self._gated_fold()
        pipeline = IngestPipeline(
            fold, max_pending_events=10, overflow="decimate", decimate_stride=10
        )
        first = _long_insert_raws(8)
        overflow = _long_insert_raws(8)
        pipeline.submit(first)  # fits
        assert _wait_for(lambda: pipeline.pending <= 8)
        pipeline.submit(overflow)  # 8 + 8 > 10 -> decimated
        assert pipeline.decimated == 7  # stride 10 keeps 1 of 8
        gate.set()
        pipeline.close()
        assert len(folded) == 9

    def test_spill_overflow_is_lossless_and_ordered(self, tmp_path):
        gate, folded, fold = self._gated_fold()
        pipeline = IngestPipeline(
            fold,
            max_pending_events=10,
            overflow="spill",
            spill_dir=str(tmp_path),
        )
        raws = _long_insert_raws(30)
        pipeline.submit(raws[:8])  # fits in RAM
        assert _wait_for(lambda: pipeline.pending <= 8)
        pipeline.submit(raws[8:20])  # overflows -> spill file
        pipeline.submit(raws[20:30])  # backlog exists -> keeps spilling
        assert pipeline.spilled == 22
        gate.set()
        pipeline.close()
        assert folded == raws  # nothing lost, order preserved
        assert pipeline.pending == 0
        assert not list(tmp_path.glob("*.spill"))  # replayed and unlinked

    def test_block_times_out_when_folder_is_stuck(self):
        gate, _, fold = self._gated_fold()
        pipeline = IngestPipeline(
            fold, max_pending_events=4, overflow="block", block_timeout=0.1
        )
        pipeline.submit(_long_insert_raws(4))
        with pytest.raises(TimeoutError):
            pipeline.submit(_long_insert_raws(4))
        gate.set()
        pipeline.close()

    def test_bad_overflow_rejected(self):
        with pytest.raises(ValueError, match="overflow"):
            IngestPipeline(lambda batch: None, overflow="drop")
