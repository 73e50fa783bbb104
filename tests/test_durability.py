"""Crash safety: write-ahead journal, checkpointed recovery, overload
protection, client backoff, and the stale-socket guard.

The contract under test is the PR's headline: a daemon killed without
warning (SIGKILL semantics — no flush, no goodbye) must, after a
restart on the same state directory, produce the *exact* report a
crash-free run would have produced.  The torn-write sweep is
property-style: a journal segment truncated at **every** byte boundary
of its final record must recover cleanly to a window-boundary prefix.
"""

from __future__ import annotations

import errno
import json
import random
import socket
import struct
import threading
import time

import pytest

from repro.events.spill import read_spill_raw
from repro.service import (
    AdmissionStage,
    BackoffPolicy,
    ProfilingDaemon,
    RemoteChannel,
    RetryAfterError,
    SessionJournal,
    StreamingUseCaseEngine,
    engine_from_dict,
    engine_to_dict,
    recover_session_dir,
    walk_state_dir,
)
from repro.service.client import ServiceClient
from repro.service.daemon import _remove_stale_unix_socket
from repro.service.governor import JOURNAL_AT, SHED_AT, RateMeter, ResourceGovernor
from repro.service.protocol import MessageType, ProtocolError, encode_json
from repro.service.session import Session
from repro.testing import (
    FAULT_KINDS,
    ChaosSoak,
    SimClock,
    generate_trace,
    ship_trace,
)
from repro.testing.oracle import (
    diff_summaries,
    run_batch_path,
    run_streaming_path,
    summarize_report,
)
from repro.usecases.json_export import report_to_dict

_REC_HEADER = struct.Struct("<BII")


def _windows(events, window=64):
    for offset in range(0, len(events), window):
        yield offset, events[offset : offset + window]


def _session_with_journal(tmp_path, session_id="s1", **kwargs):
    journal = SessionJournal(tmp_path / session_id)
    return Session(session_id, StreamingUseCaseEngine(), journal=journal, **kwargs)


def _ingest_trace(session, trace, window=64):
    for inst in trace.instances:
        session.register(inst.instance_id, inst.kind, None, inst.label)
    for start, raws in _windows(trace.events, window):
        session.ingest(start, raws)


def _wait_for(cond, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while not cond():
        if time.monotonic() >= deadline:
            raise AssertionError("condition not met in time")
        time.sleep(interval)


class TestJournalRoundtrip:
    def test_event_windows_replay_in_order(self, tmp_path):
        trace = generate_trace(0)
        with SessionJournal(tmp_path / "j") as journal:
            for start, raws in _windows(trace.events, 50):
                journal.append_events(start, raws)
            replayed = []
            for _start, raws in journal.iter_event_windows(0):
                replayed.extend(raws)
        assert replayed == trace.events

    def test_replay_from_cursor_trims_overlap(self, tmp_path):
        trace = generate_trace(1)
        with SessionJournal(tmp_path / "j") as journal:
            for start, raws in _windows(trace.events, 64):
                journal.append_events(start, raws)
            # A cursor mid-window: the replay must start exactly there.
            cursor = 70
            replayed = []
            for start, raws in journal.iter_event_windows(cursor):
                assert start >= cursor
                replayed.extend(raws)
        assert replayed == trace.events[cursor:]

    def test_retransmit_overlap_past_cursor_is_trimmed_not_refolded(self, tmp_path):
        # A window that landed twice around a crash (retransmit overlap
        # — a legal journal state) must yield each stream index exactly
        # once.  Before the monotone-cursor fix the second record was
        # yielded whole, double-folding 32 events into the engine: the
        # chaos soak caught that as a report divergence.
        trace = generate_trace(3)  # 556 events
        with SessionJournal(tmp_path / "j") as journal:
            journal.append_events(0, trace.events[0:64])
            journal.append_events(32, trace.events[32:128])
            replayed = []
            for start, raws in journal.iter_event_windows(0):
                assert start == len(replayed)
                replayed.extend(raws)
        assert replayed == trace.events[:128]

    def test_fully_covered_duplicate_window_is_skipped(self, tmp_path):
        trace = generate_trace(3)  # 556 events
        with SessionJournal(tmp_path / "j") as journal:
            journal.append_events(0, trace.events[0:64])
            journal.append_events(64, trace.events[64:128])
            # Duplicate entirely behind the cursor by the time the
            # reader reaches it.
            journal.append_events(32, trace.events[32:96])
            journal.append_events(128, trace.events[128:160])
            replayed = []
            for start, raws in journal.iter_event_windows(0):
                assert start == len(replayed)
                replayed.extend(raws)
        assert replayed == trace.events[:160]

    def test_cursor_gap_recovery_keeps_applied_equal_to_received(self, tmp_path):
        # A gap means events exist on no disk — recovery must note the
        # loss and jump its cursor, not leave ``applied`` lagging
        # ``received``: a resurrected session with a phantom backlog
        # re-drains (and double-folds) journal events its engine
        # already absorbed during replay.
        trace = generate_trace(3)  # 556 events
        with SessionJournal(tmp_path / "j") as journal:
            journal.append_events(0, trace.events[0:64])
            journal.append_events(96, trace.events[96:160])  # 64..96 lost
        recovered = recover_session_dir(tmp_path / "j")
        assert recovered.received == 160
        assert recovered.applied == recovered.received
        assert any("cursor gap 64..96" in n for n in recovered.notes)

    def test_segments_roll_and_still_replay_completely(self, tmp_path):
        trace = generate_trace(3)  # 556 events
        journal = SessionJournal(tmp_path / "j", segment_max_bytes=2000)
        for start, raws in _windows(trace.events, 16):
            journal.append_events(start, raws)
        segments = sorted((tmp_path / "j").glob("journal-*.wal"))
        assert len(segments) > 1, "segment_max_bytes=2000 must roll"
        replayed = [r for _s, raws in journal.iter_event_windows(0) for r in raws]
        journal.close()
        assert replayed == trace.events

    def test_reopening_a_directory_continues_the_segment_sequence(self, tmp_path):
        trace = generate_trace(5)  # 741 events
        half = len(trace.events) // 2
        j1 = SessionJournal(tmp_path / "j", segment_max_bytes=1500)
        for start, raws in _windows(trace.events[:half], 16):
            j1.append_events(start, raws)
        j1.close()
        j2 = SessionJournal(tmp_path / "j", segment_max_bytes=1500)
        for start, raws in _windows(trace.events[half:], 16):
            j2.append_events(half + start, raws)
        replayed = [r for _s, raws in j2.iter_event_windows(0) for r in raws]
        j2.close()
        assert replayed == trace.events


class TestTornWriteRecovery:
    """Satellite: truncation at every byte boundary of the final record
    recovers cleanly — the torn tail is dropped, never misparsed."""

    def test_every_truncation_point_of_the_last_record_recovers(self, tmp_path):
        trace = generate_trace(7)  # 214 events: 13 full windows + 6
        window = 16
        session = _session_with_journal(tmp_path, "torn")
        _ingest_trace(session, trace, window)
        session.abandon()
        directory = tmp_path / "torn"
        segment = sorted(directory.glob("journal-*.wal"))[-1]
        blob = segment.read_bytes()
        # Find the final record's start by walking the valid frames.
        offset = 8  # magic
        last_start = offset
        while offset + _REC_HEADER.size <= len(blob):
            _t, length, _crc = _REC_HEADER.unpack_from(blob, offset)
            if offset + _REC_HEADER.size + length > len(blob):
                break
            last_start = offset
            offset += _REC_HEADER.size + length
        assert offset == len(blob), "fixture segment must end on a whole record"
        total = len(trace.events)
        expected_by_prefix = {}

        def expected_summary(received):
            if received not in expected_by_prefix:
                prefix = generate_trace(7)
                prefix.events = trace.events[:received]
                expected_by_prefix[received] = summarize_report(
                    run_streaming_path(prefix, window=window)
                )
            return expected_by_prefix[received]

        seen_short = 0
        for cut in range(last_start, len(blob)):
            segment.write_bytes(blob[:cut])
            recovered = recover_session_dir(directory)
            assert recovered.received <= total
            assert recovered.received % window == 0 or recovered.received == total
            if recovered.received < total:
                seen_short += 1
                assert recovered.truncated_bytes == cut - last_start
            got = summarize_report(report_to_dict(recovered.engine.report()))
            assert not diff_summaries(
                "expected", expected_summary(recovered.received), "recovered", got
            )
        assert seen_short == len(blob) - last_start, (
            "every cut inside the final record must shorten the recovery"
        )

    def test_corrupted_crc_truncates_from_the_bad_record(self, tmp_path):
        trace = generate_trace(6)  # 1056 events, a multiple of 32
        session = _session_with_journal(tmp_path, "crc")
        _ingest_trace(session, trace, 32)
        session.abandon()
        directory = tmp_path / "crc"
        segment = sorted(directory.glob("journal-*.wal"))[-1]
        blob = bytearray(segment.read_bytes())
        blob[-1] ^= 0xFF  # damage a payload byte of the final record
        segment.write_bytes(bytes(blob))
        recovered = recover_session_dir(directory)
        assert recovered.received == len(trace.events) - 32
        assert recovered.truncated_bytes > 0


class TestEngineSerialization:
    def test_roundtrip_mid_stream_converges_identically(self):
        trace = generate_trace(7)
        half = len(trace.events) // 2
        reference = StreamingUseCaseEngine()
        resumed_src = StreamingUseCaseEngine()
        for inst in trace.instances:
            for engine in (reference, resumed_src):
                engine.register_instance(inst.instance_id, inst.kind, label=inst.label)
        for _start, raws in _windows(trace.events[:half], 32):
            reference.feed_window(raws)
            resumed_src.feed_window(raws)
        resumed = engine_from_dict(engine_to_dict(resumed_src))
        for _start, raws in _windows(trace.events[half:], 32):
            reference.feed_window(raws)
            resumed.feed_window(raws)
        assert summarize_report(report_to_dict(resumed.report())) == (
            summarize_report(report_to_dict(reference.report()))
        )

    def test_serialization_is_json_safe(self):
        trace = generate_trace(8)
        engine = StreamingUseCaseEngine()
        for inst in trace.instances:
            engine.register_instance(inst.instance_id, inst.kind, label=inst.label)
        for _start, raws in _windows(trace.events, 64):
            engine.feed_window(raws)
        dumped = json.loads(json.dumps(engine_to_dict(engine)))
        assert summarize_report(report_to_dict(engine_from_dict(dumped).report())) == (
            summarize_report(report_to_dict(engine.report()))
        )


class TestCheckpointedRecovery:
    def test_crashed_session_recovers_to_the_batch_report(self, tmp_path):
        trace = generate_trace(9)  # 1015 events
        session = _session_with_journal(tmp_path, "ck", checkpoint_every=100)
        _ingest_trace(session, trace, 32)
        assert session.journal.checkpoints > 0, "fixture must exercise checkpoints"
        session.abandon()  # crash: no finish(), no flush-to-report
        recovered = recover_session_dir(tmp_path / "ck")
        assert recovered.checkpoint_loaded
        assert recovered.received == len(trace.events)
        assert recovered.events_replayed < len(trace.events), (
            "checkpoint must shorten the replay"
        )
        got = summarize_report(report_to_dict(recovered.engine.report()))
        assert not diff_summaries(
            "batch", summarize_report(run_batch_path(trace)), "recovered", got
        )

    def test_unreadable_checkpoint_degrades_gracefully(self, tmp_path):
        trace = generate_trace(10)
        session = _session_with_journal(tmp_path, "bad", checkpoint_every=100)
        _ingest_trace(session, trace, 32)
        assert session.journal.checkpoints > 0
        session.abandon()
        directory = tmp_path / "bad"
        ckpt = directory / "checkpoint.json"
        assert ckpt.exists()
        ckpt.write_text("{ not json")
        # Segments behind the checkpoint were pruned, so replay can only
        # reach what the surviving segments hold — the recovery must
        # come back *without raising* and say what happened.
        recovered = recover_session_dir(directory)
        assert not recovered.checkpoint_loaded
        assert recovered.notes, "a broken checkpoint must be surfaced"
        assert recovered.received <= len(trace.events)

    def test_finished_journal_recovers_as_finished(self, tmp_path):
        trace = generate_trace(11)
        session = _session_with_journal(tmp_path, "fin")
        for inst in trace.instances:
            session.register(inst.instance_id, inst.kind, None, inst.label)
        for start, raws in _windows(trace.events, 64):
            session.ingest(start, raws)
        session.finish()
        recovered = recover_session_dir(tmp_path / "fin")
        assert recovered.finished


class TestDaemonCrashRecovery:
    def test_kill_restart_resume_equals_batch(self, tmp_path):
        trace = generate_trace(12)  # 654 events
        half = (len(trace.events) // 2 // 64) * 64
        state = tmp_path / "state"
        daemon = ProfilingDaemon(port=0, state_dir=state, checkpoint_every=128)
        client = ServiceClient(daemon.address)
        session_id = client.session_id
        client.register_instances([i.registration() for i in trace.instances])
        client.send_events(0, trace.events[:half])
        ack = client.heartbeat()  # the sync point: send_events is fire-and-forget
        assert ack["received"] == half
        client.close()
        daemon.crash()  # SIGKILL semantics: no flush, no reports

        daemon = ProfilingDaemon(port=0, state_dir=state, checkpoint_every=128)
        try:
            assert daemon.recovered_sessions == [session_id]
            report, _, _ = ship_trace(trace, daemon.address, session_id=session_id)
        finally:
            daemon.close()
        assert not diff_summaries(
            "batch",
            summarize_report(run_batch_path(trace)),
            "post-crash",
            summarize_report(report),
        )
        assert walk_state_dir(state) == [], "a finished session must leave no journal"

    def test_clean_close_leaves_no_state_behind(self, tmp_path):
        trace = generate_trace(13)
        state = tmp_path / "state"
        with ProfilingDaemon(port=0, state_dir=state) as daemon:
            client = ServiceClient(daemon.address)
            client.register_instances([i.registration() for i in trace.instances])
            client.send_events(0, trace.events)
            client.fin()
            client.close()
        assert walk_state_dir(state) == []

    def test_checkpoint_without_segments_is_still_a_session(self, tmp_path):
        # A failed roll after a checkpoint leaves no segment behind; the
        # checkpoint alone still holds every acknowledged event.
        trace = generate_trace(14)
        state = tmp_path / "state"
        session = _session_with_journal(state, "ck", checkpoint_every=64)
        _ingest_trace(session, trace, 64)
        assert session.journal.checkpoints > 0
        session.abandon()
        for segment in (state / "ck").glob("journal-*.wal"):
            segment.unlink()
        checkpointed = json.loads((state / "ck" / "checkpoint.json").read_text())
        daemon = ProfilingDaemon(port=0, state_dir=state)
        try:
            assert daemon.recovered_sessions == ["ck"]
            assert daemon.sessions["ck"].received == checkpointed["received"] > 0
        finally:
            daemon.crash()


def _fin_quietly(client):
    try:
        client.fin()
    except (OSError, ProtocolError):
        pass


class TestCrashedGenerationConnections:
    """A connection thread may still hold a frame it read just before
    its daemon crashed.  Handling that frame must end the connection,
    not raise on the session's closed journal, and the client's resume
    on the next generation must still converge to batch."""

    @pytest.mark.parametrize("method", ["register", "ingest", "finish"])
    def test_frame_read_before_crash_is_refused(self, tmp_path, monkeypatch, method):
        trace = generate_trace(12)
        state = tmp_path / "state"
        held = threading.Event()
        crashed = threading.Event()
        handlers: list[threading.Thread] = []
        original = getattr(Session, method)

        def hold_until_crashed(self, *args, **kwargs):
            # Park the connection thread between its socket read and
            # the session call until the generation is gone.
            handlers.append(threading.current_thread())
            held.set()
            crashed.wait(10.0)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Session, method, hold_until_crashed)
        thread_errors = []
        monkeypatch.setattr(threading, "excepthook", thread_errors.append)

        daemon = ProfilingDaemon(port=0, state_dir=state, checkpoint_every=128)
        client = ServiceClient(daemon.address)
        session_id = client.session_id
        client.register_instances([i.registration() for i in trace.instances])
        if method != "register":
            client.send_events(0, trace.events[:64])
        if method == "finish":
            # fin() waits for a reply the crash will never send.
            threading.Thread(target=_fin_quietly, args=(client,), daemon=True).start()
        assert held.wait(10.0)
        daemon.crash()
        crashed.set()
        handlers[0].join(10.0)
        client.close()
        assert not handlers[0].is_alive()
        assert not thread_errors, [e.exc_value for e in thread_errors]

        daemon = ProfilingDaemon(port=0, state_dir=state, checkpoint_every=128)
        try:
            report, _, _ = ship_trace(trace, daemon.address, session_id=session_id)
        finally:
            daemon.close()
        assert summarize_report(report) == summarize_report(run_batch_path(trace))
        assert not thread_errors, [e.exc_value for e in thread_errors]

    def test_hello_read_before_crash_starts_no_journal(self, tmp_path, monkeypatch):
        state = tmp_path / "state"
        held = threading.Event()
        crashed = threading.Event()
        handlers: list[threading.Thread] = []
        original = ProfilingDaemon._hello

        def hold_until_crashed(self, conn, payload):
            handlers.append(threading.current_thread())
            held.set()
            crashed.wait(10.0)
            return original(self, conn, payload)

        monkeypatch.setattr(ProfilingDaemon, "_hello", hold_until_crashed)
        daemon = ProfilingDaemon(port=0, state_dir=state)
        sock = socket.create_connection((daemon.host, daemon.port), timeout=5)
        try:
            sock.sendall(encode_json(MessageType.HELLO, {"session": "late-hello"}))
            assert held.wait(10.0)
            daemon.crash()
            crashed.set()
            handlers[0].join(10.0)
        finally:
            sock.close()
        assert not handlers[0].is_alive()
        # A dead generation writing a journal would race the next one.
        assert walk_state_dir(state) == []


class TestAdmissionController:
    def _fake_session(self, clock):
        class _S:
            rate = RateMeter(clock=clock)

        return _S()

    def test_ladder_rises_with_load(self):
        clock = SimClock()
        controller = ResourceGovernor(session_events_per_sec=100.0, clock=clock)
        session = self._fake_session(clock)
        # rate() floors the span at 1 s, so at t=0 the running total IS
        # the measured rate; each step pushes it over the next threshold.
        for ticks, expected in (
            (50, AdmissionStage.NORMAL),  # 50/s of a 100/s quota
            (60, AdmissionStage.JOURNAL),  # 110/s -> load 1.1
            (250, AdmissionStage.JOURNAL),  # 360/s -> load 3.6
            (50, AdmissionStage.SHED),  # 410/s -> load 4.1
        ):
            session.rate.tick(ticks)
            assert controller.admit(session, ticks) == expected

    def test_verdict_is_the_worse_of_rate_and_pressure(self):
        clock = SimClock()
        controller = ResourceGovernor(session_events_per_sec=100.0, clock=clock)
        session = self._fake_session(clock)
        controller.record_failure("journal-append", OSError(errno.ENOSPC, "full"))
        assert controller.admit(session, 10) == AdmissionStage.JOURNAL_COMPACT
        session.rate.tick(150)  # load 1.5: the rate ladder is worse
        assert controller.admit(session, 150) == AdmissionStage.JOURNAL
        controller.force_pressure(AdmissionStage.SHED)
        assert controller.peek() == AdmissionStage.SHED
        stats = controller.admission_stats()
        assert stats["governor"]["pressure_stage"] == "shed"
        assert stats["windows_by_stage"] == {
            "normal": 0, "journal-compact": 1, "journal": 1, "shed": 0,
        }

    def test_load_subsides_with_time(self):
        clock = SimClock()
        controller = ResourceGovernor(session_events_per_sec=100.0, clock=clock)
        session = self._fake_session(clock)
        session.rate.tick(500)
        assert controller.admit(session, 500) == AdmissionStage.SHED
        clock.advance(30.0)  # the burst ages out of the sliding window
        assert controller.admit(session, 0) == AdmissionStage.NORMAL

    def test_global_quota_protects_against_aggregate_load(self):
        clock = SimClock()
        controller = ResourceGovernor(
            global_events_per_sec=10.0, session_events_per_sec=1000.0, clock=clock
        )
        quiet = self._fake_session(clock)
        # The *global* meter ticks inside admit: 45 events at t=0 is
        # 4.5x the 10/s quota even though the session itself is idle.
        assert controller.admit(quiet, 45) == AdmissionStage.SHED
        assert controller.peek() == AdmissionStage.SHED
        stats = controller.admission_stats()
        assert stats["stage"] == "shed"
        assert stats["windows_by_stage"]["shed"] == 1

    def test_threshold_validation(self):
        assert 0 < JOURNAL_AT < SHED_AT
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="global_events_per_sec"):
                ResourceGovernor(global_events_per_sec=bad)
            with pytest.raises(ValueError, match="session_events_per_sec"):
                ResourceGovernor(session_events_per_sec=bad)

    def test_stage_names(self):
        assert AdmissionStage.name(AdmissionStage.SHED) == "shed"
        assert "unknown" in AdmissionStage.name(42)
        assert "unknown" in AdmissionStage.name(-1)


class TestSessionDegradation:
    def test_journal_only_stage_defers_then_drains(self, tmp_path):
        trace = generate_trace(14)
        session = _session_with_journal(tmp_path, "defer")
        for inst in trace.instances:
            session.register(inst.instance_id, inst.kind, None, inst.label)
        windows = list(_windows(trace.events, 64))
        mid = len(windows) // 2
        for i, (start, raws) in enumerate(windows):
            stage = AdmissionStage.JOURNAL if i < mid else AdmissionStage.NORMAL
            session.ingest(start, raws, stage=stage)
            if i < mid:
                assert session.deferred > 0, "journal-only must defer analysis"
        assert session.deferred == 0, "pressure drop must drain the backlog"
        report = session.finish()
        assert not diff_summaries(
            "batch",
            summarize_report(run_batch_path(trace)),
            "degraded",
            summarize_report(report),
        )

    def test_backlog_is_drained_by_finish_at_the_latest(self, tmp_path):
        trace = generate_trace(15)
        session = _session_with_journal(tmp_path, "fin-drain")
        for inst in trace.instances:
            session.register(inst.instance_id, inst.kind, None, inst.label)
        for start, raws in _windows(trace.events, 64):
            session.ingest(start, raws, stage=AdmissionStage.JOURNAL)
        assert session.deferred == len(trace.events)
        report = session.finish()
        assert not diff_summaries(
            "batch",
            summarize_report(run_batch_path(trace)),
            "deferred-to-fin",
            summarize_report(report),
        )

    def test_journal_stage_without_journal_folds_at_once(self):
        trace = generate_trace(16)
        session = Session("nj", StreamingUseCaseEngine())
        for inst in trace.instances:
            session.register(inst.instance_id, inst.kind, None, inst.label)
        for start, raws in _windows(trace.events, 64):
            session.ingest(start, raws, stage=AdmissionStage.JOURNAL)
            assert session.deferred == 0, "no journal -> nothing may be deferred"
        assert session.engine.events_folded == len(trace.events)
        assert "decimated" not in session.stats()
        assert session.stats()["stage"] == "normal"
        assert not diff_summaries(
            "batch",
            summarize_report(run_batch_path(trace)),
            "journal-less",
            summarize_report(session.finish()),
        )


class TestDaemonOverload:
    def test_shed_sends_retry_after_and_breaks_the_connection(self, tmp_path):
        trace = generate_trace(17)
        daemon = ProfilingDaemon(
            port=0,
            state_dir=tmp_path / "state",
            session_max_events_per_sec=1.0,
            retry_after=7.5,
        )
        try:
            client = ServiceClient(daemon.address)
            client.register_instances([i.registration() for i in trace.instances])
            # First window: the session meter has no history -> NORMAL.
            client.send_events(0, trace.events[:64])
            # Second window: ~64/s against a 1/s quota -> far past 4x.
            client.send_events(64, trace.events[64:128])
            with pytest.raises(RetryAfterError) as excinfo:
                client.heartbeat()
            assert excinfo.value.retry_after == 7.5
            client.close()
        finally:
            daemon.close()

    def test_journal_stage_acks_journaled_and_fin_report_is_exact(self, tmp_path):
        trace = generate_trace(18)  # 564 events
        half = len(trace.events) // 2
        # Quota tuned so the second window's burst lands in the
        # journal-only band [2x, 4x): ~282 events over a 1 s floored
        # span against a (half/3)/s quota is a load of ~3.
        daemon = ProfilingDaemon(
            port=0,
            state_dir=tmp_path / "state",
            session_max_events_per_sec=half / 3.0,
        )
        try:
            client = ServiceClient(daemon.address)
            client.register_instances([i.registration() for i in trace.instances])
            client.send_events(0, trace.events[:half])
            assert client.heartbeat()["deferred"] == 0
            client.send_events(half, trace.events[half:])
            ack = client.heartbeat()
            assert ack["deferred"] > 0, "the journal-only stage must engage"
            assert ack["received"] == len(trace.events), "deferred events still ack"
            fin = client.fin()
            client.close()
        finally:
            daemon.close()
        assert fin["received"] == len(trace.events)
        assert not diff_summaries(
            "batch",
            summarize_report(run_batch_path(trace)),
            "overloaded",
            summarize_report(fin["report"]),
        )

    def test_shedding_daemon_turns_away_new_sessions(self):
        daemon = ProfilingDaemon(port=0, max_events_per_sec=1.0, clock=SimClock())
        try:
            hot = ServiceClient(daemon.address)
            hot.send_events(0, generate_trace(17).events[:64])
            with pytest.raises(RetryAfterError):
                hot.heartbeat()  # the 64-event burst tripped the global quota
            with pytest.raises(RetryAfterError):
                ServiceClient(daemon.address)  # HELLO refused while shedding
            hot.close()
        finally:
            daemon.close()


class TestExactLadder:
    """Differential: a quota-limited daemon, journaled or not, whose
    windows climb through the whole [1x, 4x) band of quota still ends
    with the batch report and drops no event.  Thinning the in-band
    windows 1 in 10 changes the report of every seed here but 18."""

    @pytest.mark.parametrize("journaled", [False, True], ids=["no-journal", "journal"])
    @pytest.mark.parametrize("seed", [5, 7, 16, 17, 18])
    def test_fin_report_equals_batch_through_the_quota_band(
        self, tmp_path, seed, journaled
    ):
        trace = generate_trace(seed)
        # The clock never advances, so each meter reads the events so
        # far over its floored 1 s span: load climbs window by window
        # to 3.5x quota, through the journal band and short of shed.
        quota = len(trace.events) / 3.5
        daemon = ProfilingDaemon(
            port=0,
            state_dir=tmp_path / "state" if journaled else None,
            max_events_per_sec=quota,
            session_max_events_per_sec=quota,
            clock=SimClock(),
        )
        try:
            client = ServiceClient(daemon.address, session_id=f"band-{seed}")
            client.register_instances([i.registration() for i in trace.instances])
            for start, raws in _windows(trace.events, 32):
                client.send_events(start, raws)
            fin = client.fin()
            client.close()
            stats = daemon.stats()
        finally:
            daemon.close()
        by_stage = stats["admission"]["windows_by_stage"]
        assert by_stage["normal"] > 0 and by_stage["journal"] > 0
        assert by_stage["shed"] == 0
        (row,) = stats["sessions"]
        assert "decimated" not in row and "spilled" not in row
        assert fin["received"] == len(trace.events)
        assert not diff_summaries(
            "batch",
            summarize_report(run_batch_path(trace)),
            "quota-band",
            summarize_report(fin["report"]),
        )

    def test_stats_keep_the_keys_older_readers_index(self, tmp_path):
        """`dsspy sessions`, the fleet router, the chaos ledger and the
        e2e harness of the previous release read these keys.  The
        always-0 ``decimated`` and ``spilled`` keys are gone: the
        previous release reads neither."""
        with ProfilingDaemon(
            port=0, state_dir=tmp_path / "state", max_events_per_sec=1e9
        ) as daemon:
            client = ServiceClient(daemon.address, session_id="keys")
            client.send_events(0, generate_trace(3).events[:64])
            client.heartbeat()
            stats = daemon.stats()
            client.close()
        admission = stats["admission"]
        assert admission["refused_hellos"] == 0
        assert admission["windows_by_stage"]["shed"] == 0
        assert admission["governor"]["pressure_stage"] == "normal"
        assert admission["governor"]["refused_windows"] == 0
        assert "governor" not in stats
        (row,) = stats["sessions"]
        assert "decimated" not in row and "spilled" not in row
        for key in ("received", "duplicates", "events_per_sec", "deferred",
                    "stage", "pressure", "refused_windows", "checkpoints"):
            assert key in row


class TestBackoffPolicy:
    def test_exponential_growth_to_the_cap(self):
        policy = BackoffPolicy(base=0.1, cap=1.0, multiplier=2.0, jitter=0.0)
        delays = [policy.note_failure() for _ in range(6)]
        assert delays == [
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.4),
            pytest.approx(0.8),
            pytest.approx(1.0),
            pytest.approx(1.0),
        ]

    def test_jitter_stretches_but_never_shrinks(self):
        policy = BackoffPolicy(
            base=0.1, cap=10.0, multiplier=2.0, jitter=0.5, rng=random.Random(0)
        )
        for n in range(1, 6):
            delay = policy.note_failure()
            floor = 0.1 * 2.0 ** (n - 1)
            assert floor <= delay <= floor * 1.5

    def test_server_retry_after_overrides_a_short_delay(self):
        policy = BackoffPolicy(base=0.01, cap=5.0, jitter=0.0)
        assert policy.note_failure(min_delay=3.0) == pytest.approx(3.0)

    def test_success_resets_the_ladder(self):
        clock = SimClock()
        policy = BackoffPolicy(base=1.0, cap=8.0, jitter=0.0, clock=clock)
        policy.note_failure()
        policy.note_failure()
        assert not policy.ready()
        assert policy.down_for() == pytest.approx(2.0)
        policy.note_success()
        assert policy.ready()
        assert policy.failures == 0
        policy.note_failure()
        assert policy.down_for() == pytest.approx(1.0)

    def test_ready_flips_when_the_clock_passes_the_deadline(self):
        clock = SimClock()
        policy = BackoffPolicy(base=1.0, jitter=0.0, clock=clock)
        policy.note_failure()
        assert not policy.ready()
        clock.advance(1.01)
        assert policy.ready()

    def test_parameter_validation(self):
        for kwargs in (
            {"base": 0.0},
            {"base": 2.0, "cap": 1.0},
            {"multiplier": 0.5},
            {"jitter": 1.5},
        ):
            with pytest.raises(ValueError):
                BackoffPolicy(**kwargs)


class TestGiveUpFallbackSpill:
    def test_unshipped_tail_spills_locally_after_give_up(self, tmp_path):
        raws = generate_trace(20).events  # 232 events
        spill = tmp_path / "leftover.bin"
        daemon = ProfilingDaemon(port=0)
        channel = RemoteChannel(
            daemon.address,
            batch_size=1,  # ship every event as it is produced
            heartbeat_interval=0.05,  # the heartbeat detects the dead link
            backoff=BackoffPolicy(base=0.01, cap=0.02, jitter=0.0),
            give_up_after=0.0,  # give up on the first confirmed failure
            fallback_spill=spill,
        )
        half = len(raws) // 2
        produce = channel.producer()
        for raw in raws[:half]:
            produce(raw)
        _wait_for(lambda: channel._shipped == half)
        daemon.crash()  # daemon dies and never comes back
        _wait_for(lambda: channel.gave_up)  # heartbeat read fails -> give up
        for raw in raws[half:]:
            produce(raw)
        master = channel.drain()
        assert master == raws, "local capture must be complete regardless"
        assert channel.spill_path == spill
        assert read_spill_raw(spill) == raws[half:]
        assert channel.final_ack is None

    def test_no_spill_without_give_up(self):
        raws = generate_trace(21).events
        with ProfilingDaemon(port=0) as daemon:
            channel = RemoteChannel(
                daemon.address, batch_size=64, heartbeat_interval=3600.0
            )
            produce = channel.producer()
            for raw in raws:
                produce(raw)
            channel.drain()
            assert channel.spill_path is None
            assert not channel.gave_up
            assert channel.final_ack is not None
            assert channel.final_ack["received"] == len(raws)


class TestStaleUnixSocket:
    def test_dead_socket_file_is_removed_and_reused(self, tmp_path):
        path = tmp_path / "dsspy.sock"
        orphan = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        orphan.bind(str(path))
        orphan.close()  # no listener left behind: the file is stale
        assert path.exists()
        with ProfilingDaemon(unix_socket=path) as daemon:
            client = ServiceClient(daemon.address)
            client.close()
        assert not path.exists()

    def test_live_socket_is_refused_not_stolen(self, tmp_path):
        path = tmp_path / "dsspy.sock"
        with ProfilingDaemon(unix_socket=path):
            with pytest.raises(OSError, match="live daemon"):
                _remove_stale_unix_socket(path)
            with pytest.raises(OSError):
                ProfilingDaemon(unix_socket=path)

    def test_non_socket_file_is_refused(self, tmp_path):
        path = tmp_path / "dsspy.sock"
        path.write_text("precious data")
        with pytest.raises(OSError, match="not a socket"):
            _remove_stale_unix_socket(path)
        assert path.read_text() == "precious data"

    def test_missing_file_is_fine(self, tmp_path):
        _remove_stale_unix_socket(tmp_path / "never-existed.sock")


class TestProtocolAdditions:
    def test_new_message_type_names(self):
        assert MessageType.name(MessageType.RETRY_AFTER) == "RETRY_AFTER"
        assert MessageType.name(MessageType.JOURNALED) == "JOURNALED"

    def test_retry_after_error_is_a_protocol_error(self):
        err = RetryAfterError(2.5)
        assert isinstance(err, ProtocolError)
        assert err.retry_after == 2.5
        assert "2.5" in str(err)


#: The chaos soak with disk, storm and upgrade faults off: network
#: faults only, so each trial is the batch ≡ streaming ≡ daemon check.
NETWORK_ONLY = dict(disk_fault_rate=0.0, storm_rate=0.0, upgrade_rate=0.0)


class TestOracleKillFault:
    def test_kill_only_trials_converge(self):
        with ChaosSoak(
            fault_intensity=0.5, fault_kinds=("kill",), max_faults=4, **NETWORK_ONLY
        ) as soak:
            summary = soak.run(trials=8, base_seed=0)
        assert summary["ok"], summary["seeds_with_violations"]
        assert summary["kills"] > 0, "the kill fault must actually fire"

    def test_kill_is_part_of_the_default_vocabulary(self):
        assert "kill" in FAULT_KINDS
        with ChaosSoak(fault_intensity=0.4, **NETWORK_ONLY) as soak:
            summary = soak.run(trials=10, base_seed=50)
        assert summary["ok"], summary["seeds_with_violations"]


class TestRecoverCLI:
    def _crashed_state(self, tmp_path, seed=22):
        trace = generate_trace(seed)
        daemon = ProfilingDaemon(port=0, state_dir=tmp_path / "state")
        client = ServiceClient(daemon.address)
        session_id = client.session_id
        client.register_instances([i.registration() for i in trace.instances])
        client.send_events(0, trace.events)
        client.heartbeat()
        client.close()
        daemon.crash()
        return trace, session_id

    def test_recover_prints_the_interrupted_sessions(self, tmp_path, capsys):
        from repro.cli import main

        trace, session_id = self._crashed_state(tmp_path)
        assert main(["recover", str(tmp_path / "state")]) == 0
        out = capsys.readouterr().out
        assert session_id in out
        assert f"{len(trace.events)} events journaled" in out

    def test_recover_json_report_dir_and_purge(self, tmp_path, capsys):
        from repro.cli import main

        trace, session_id = self._crashed_state(tmp_path)
        reports = tmp_path / "reports"
        assert (
            main(
                [
                    "recover",
                    str(tmp_path / "state"),
                    "--json",
                    "--report-dir",
                    str(reports),
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["session"] == session_id
        assert payload[0]["received"] == len(trace.events)
        assert (reports / f"{session_id}.json").exists()

        assert main(["recover", str(tmp_path / "state"), "--purge"]) == 0
        assert "purged 1 session journal(s)" in capsys.readouterr().out
        assert walk_state_dir(tmp_path / "state") == []

    def test_recover_on_empty_dir_is_a_noop(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["recover", str(tmp_path)]) == 0
        assert "no recoverable sessions" in capsys.readouterr().out

    def test_recover_accepts_a_bare_session_dir(self, tmp_path, capsys):
        from repro.cli import main

        trace, session_id = self._crashed_state(tmp_path)
        assert main(["recover", str(tmp_path / "state" / session_id)]) == 0
        out = capsys.readouterr().out
        assert "no recoverable sessions" not in out
        assert f"{session_id}: interrupted, {len(trace.events)} events journaled" in out

    def test_recover_on_newer_format_state_exits_two(self, tmp_path, capsys):
        from repro.cli import main
        from repro.service.durability import journal_magic

        _trace, session_id = self._crashed_state(tmp_path)
        segment = sorted((tmp_path / "state" / session_id).glob("journal-*.wal"))[0]
        before = segment.read_bytes()
        segment.write_bytes(journal_magic(99) + before[8:])
        assert main(["recover", str(tmp_path / "state")]) == 2
        err = capsys.readouterr().err
        assert "state written by a newer dsspy build" in err
        assert "dsspy migrate" in err
        assert segment.read_bytes()[8:] == before[8:], "newer state is never touched"
