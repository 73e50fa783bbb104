"""Version-skew safety: protocol negotiation, state-format migration,
and rolling upgrades.

Three contracts under test.  On the wire: peers negotiate the highest
common protocol version, degrade gracefully to version 1, and skip —
count, never crash on — frame types from a newer build.  On disk: a
state directory written by the previous generation migrates in place
via crash-safe whole-file rewrites (swept at every byte, the PR 4
torn-write discipline), refuses downgrades, and classifies
future-format state as needs-migration rather than damage.  In the
fleet: a rolling upgrade drains, migrates, and respawns workers one at
a time with exact cursor resume and zero event loss.
"""

from __future__ import annotations

import json
import shutil
import socket
import struct

import pytest

from repro.cli import main as cli_main
from repro.buildinfo import build_info, format_build_info
from repro.service import (
    DowngradeError,
    FutureFormatError,
    PROTOCOL_FEATURES,
    PROTOCOL_MIN_SUPPORTED,
    PROTOCOL_VERSION,
    ProfilingDaemon,
    ProtocolError,
    RetryAfterError,
    STATE_VERSION,
    SessionJournal,
    StreamingUseCaseEngine,
    fetch_stats,
    negotiate_version,
    parse_version_offer,
    recover_session_dir,
    version_offer,
)
from repro.service.client import ServiceClient
from repro.service.durability import (
    _MAGIC_LEN,
    CHECKPOINT_VERSION,
    JOURNAL_VERSION,
    journal_magic,
    scan_session_dir,
)
from repro.service.fleet import FleetSupervisor
from repro.service.migrate import (
    TMP_SUFFIX,
    migrate_session_dir,
    migrate_state_dir,
)
from repro.service.protocol import MessageType, encode_events
from repro.service.router import shard_for
from repro.service.session import Session
from repro.testing import generate_trace
from repro.testing.chaos import ChaosSoak, regress_state_dir_to_v1
from repro.testing.faults import FaultFS
from repro.testing.oracle import diff_summaries, run_batch_path, summarize_report
from repro.usecases.json_export import report_to_dict

from pathlib import Path

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "state_v1"

#: Mirrors tests/fixtures/make_v1_state.py — the traces are pure
#: functions of their seeds, so the fixture stores no event data.
FIXTURE_SESSIONS = (("fixture-a", 1005), ("fixture-b", 1006))

SMALL = dict(max_instances=2, max_segments=2, max_segment_events=40)


def _windows(events, window=64):
    for offset in range(0, len(events), window):
        yield offset, events[offset : offset + window]


def _ship(client: ServiceClient, trace, window: int = 64, start: int = 0):
    if start == 0:
        client.register_instances([i.registration() for i in trace.instances])
    for offset, raws in _windows(trace.events, window):
        if offset >= start:
            client.send_events(offset, raws)


def _batch_summary(trace):
    return summarize_report(run_batch_path(trace))


def _assert_report_matches_batch(report: dict, trace) -> None:
    diffs = diff_summaries(
        "replayed", summarize_report(report), "batch", _batch_summary(trace)
    )
    assert not diffs, diffs


# -- raw-socket plumbing (version-1 peers have no client class) ----------


class _RawPeer:
    """A hand-rolled peer speaking exactly the frames we give it."""

    def __init__(self, address: str):
        host, port = address.rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)), timeout=10)

    def send(self, mtype: int, payload: bytes) -> None:
        self.sock.sendall(
            struct.pack("!I", 1 + len(payload)) + bytes([mtype]) + payload
        )

    def send_json(self, mtype: int, obj: dict) -> None:
        self.send(mtype, json.dumps(obj).encode())

    def recv(self) -> tuple[int, dict]:
        header = b""
        while len(header) < 4:
            chunk = self.sock.recv(4 - len(header))
            if not chunk:
                raise ConnectionError("peer closed")
            header += chunk
        (length,) = struct.unpack("!I", header)
        body = b""
        while len(body) < length:
            body += self.sock.recv(length - len(body))
        return body[0], json.loads(body[1:]) if len(body) > 1 else {}

    def close(self) -> None:
        self.sock.close()


# -- negotiation units ---------------------------------------------------


class TestNegotiation:
    def test_offer_advertises_range_and_features(self):
        offer = version_offer()
        assert offer["proto"] == PROTOCOL_VERSION
        assert offer["proto_min"] == PROTOCOL_MIN_SUPPORTED
        assert set(offer["features"]) == set(PROTOCOL_FEATURES)

    def test_offer_roundtrips_through_parse(self):
        low, high, features = parse_version_offer(version_offer())
        assert (low, high) == (PROTOCOL_MIN_SUPPORTED, PROTOCOL_VERSION)
        assert features == PROTOCOL_FEATURES

    def test_legacy_hello_is_a_version_1_peer(self):
        assert parse_version_offer({"session": "s"}) == (1, 1, frozenset())

    @pytest.mark.parametrize(
        "bad",
        [
            {"proto": "two"},
            {"proto": 0},
            {"proto": 2, "proto_min": 3},
            {"proto": 2, "proto_min": 0},
            {"proto": 2, "features": "shm"},
            {"proto": 2, "features": [1]},
        ],
    )
    def test_malformed_offers_are_bugs_not_legacy(self, bad):
        with pytest.raises(ProtocolError):
            parse_version_offer(bad)

    def test_negotiation_picks_highest_common(self):
        assert negotiate_version(1, 2) == PROTOCOL_VERSION
        assert negotiate_version(1, 1) == 1
        assert negotiate_version(2, 5) == PROTOCOL_VERSION
        assert negotiate_version(1, 99, local_min=1, local_max=3) == 3

    def test_disjoint_ranges_have_no_fallback(self):
        assert negotiate_version(99, 100) is None
        assert negotiate_version(3, 5, local_min=1, local_max=2) is None


class TestBuildInfo:
    def test_build_info_names_every_format(self):
        info = build_info()
        assert info["proto"] == PROTOCOL_VERSION
        assert info["proto_min"] == PROTOCOL_MIN_SUPPORTED
        assert info["journal_format"] == JOURNAL_VERSION
        assert info["checkpoint_format"] == CHECKPOINT_VERSION
        assert "kernel" not in info

    def test_format_build_info_is_one_line(self):
        line = format_build_info()
        assert line.startswith("dsspy ")
        assert f"proto {PROTOCOL_MIN_SUPPORTED}-{PROTOCOL_VERSION}" in line

    def test_version_flag_prints_build_info(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--version"])
        assert exc.value.code == 0
        assert format_build_info() in capsys.readouterr().out


# -- live daemon skew ----------------------------------------------------


class TestLiveSkew:
    def test_new_client_negotiates_current_version(self):
        with ProfilingDaemon(port=0) as daemon:
            client = ServiceClient(daemon.address, session_id="skew-new")
            try:
                assert client.proto_version == PROTOCOL_VERSION
                assert "journaled" in client.server_features
            finally:
                client.close()
            stats = daemon.stats()
            assert stats["build"] == build_info()
            row = next(s for s in stats["sessions"] if s["session"] == "skew-new")
            assert row["proto"] == PROTOCOL_VERSION
            assert row["pressure"] == "normal"

    def test_legacy_hello_degrades_to_version_1(self):
        with ProfilingDaemon(port=0) as daemon:
            peer = _RawPeer(daemon.address)
            try:
                peer.send_json(MessageType.HELLO, {"session": "skew-legacy"})
                mtype, ack = peer.recv()
                assert mtype == MessageType.ACK
                # The ACK still carries the daemon's range (the legacy
                # client ignores the unknown keys) but the negotiated
                # pick is the legacy peer's only version.
                assert ack["proto"] == 1
                assert ack["proto_min"] == PROTOCOL_MIN_SUPPORTED
            finally:
                peer.close()
            row = next(
                s for s in daemon.stats()["sessions"]
                if s["session"] == "skew-legacy"
            )
            assert row["proto"] == 1

    @pytest.mark.parametrize(
        "hello",
        [
            # What an older build's RemoteChannel sends when it offers
            # its shared-memory ring: proto 2 advertising "shm" ...
            {
                "proto": 2,
                "proto_min": 1,
                "features": ["journaled", "retry-after", "shm", "snapshot"],
                "shm": {"name": "psm_oldclient", "capacity": 32 * 65536},
            },
            # ... and a version-1 HELLO carrying only the legacy key.
            {"shm": {"name": "psm_oldclient", "capacity": 32 * 65536}},
        ],
        ids=["proto2", "legacy"],
    )
    def test_old_client_ring_offer_gets_the_socket(self, hello):
        trace = generate_trace(31, **SMALL)
        with ProfilingDaemon(port=0) as daemon:
            peer = _RawPeer(daemon.address)
            try:
                peer.send_json(MessageType.HELLO, {"session": "skew-ring", **hello})
                mtype, ack = peer.recv()
                assert mtype == MessageType.ACK
                # No truthy "shm" in the ACK: the old client keeps
                # shipping EVENTS frames on the socket.
                assert not ack.get("shm")
                assert "shm" not in ack["features"]
                peer.send_json(
                    MessageType.REGISTER,
                    {"instances": [i.registration() for i in trace.instances]},
                )
                for offset, raws in _windows(trace.events):
                    peer.sock.sendall(encode_events(offset, raws))
                peer.send_json(MessageType.FIN, {})
                mtype, fin = peer.recv()
            finally:
                peer.close()
        assert mtype == MessageType.ACK
        assert fin["received"] == len(trace.events)
        _assert_report_matches_batch(fin["report"], trace)

    def test_disjoint_version_range_is_a_clear_error(self):
        with ProfilingDaemon(port=0) as daemon:
            peer = _RawPeer(daemon.address)
            try:
                peer.send_json(
                    MessageType.HELLO,
                    {"session": "skew-future", "proto": 99, "proto_min": 99},
                )
                mtype, payload = peer.recv()
                assert mtype == MessageType.ERROR
                assert "no common protocol version" in payload["error"]
            finally:
                peer.close()

    def test_unknown_frame_type_is_skipped_and_counted(self):
        with ProfilingDaemon(port=0) as daemon:
            peer = _RawPeer(daemon.address)
            try:
                peer.send_json(MessageType.HELLO, {"session": "skew-frames"})
                assert peer.recv()[0] == MessageType.ACK
                peer.send(42, b"payload-from-the-future")
                peer.send(43, b"")
                # The session must survive: a HEARTBEAT after the
                # unknown frames still gets its ACK.
                peer.send_json(MessageType.HEARTBEAT, {})
                assert peer.recv()[0] == MessageType.ACK
            finally:
                peer.close()
            stats = daemon.stats()
            assert stats["frames_skipped"] == 2
            assert fetch_stats(daemon.address)["frames_skipped"] == 2


# -- state-format migration ----------------------------------------------


def _copy_fixture(tmp_path: Path) -> Path:
    target = tmp_path / "state_v1"
    shutil.copytree(FIXTURE, target)
    return target


class TestFixtureMigration:
    """The committed pre-PR state directory is the ground truth: it was
    written by the old build and must migrate, verify, and replay."""

    def test_fixture_is_still_version_1(self):
        for session_id, _seed in FIXTURE_SESSIONS:
            versions = scan_session_dir(FIXTURE / session_id).versions
            assert versions["state"] == 1
            assert set(versions["segments"].values()) == {1}
            assert versions["checkpoint"] == 1

    def test_migrate_cli_then_fsck_then_replay_matches_batch(self, tmp_path):
        state = _copy_fixture(tmp_path)
        assert cli_main(["migrate", str(state)]) == 0
        assert cli_main(["fsck", str(state)]) == 0
        for session_id, seed in FIXTURE_SESSIONS:
            versions = scan_session_dir(state / session_id).versions
            assert versions["state"] == STATE_VERSION
            trace = generate_trace(seed)
            recovered = recover_session_dir(state / session_id)
            assert recovered.received == len(trace.events)
            _assert_report_matches_batch(
                report_to_dict(recovered.engine.report()), trace
            )

    def test_migration_is_idempotent(self, tmp_path):
        state = _copy_fixture(tmp_path)
        first = migrate_state_dir(state)
        assert first["migrated"] == len(FIXTURE_SESSIONS)
        assert all(entry["steps"] == ["v1->v2", "v2->v3"] for entry in first["sessions"])
        # v2 -> v3 turns each run's list of positions into its count.
        old_fold = json.loads((FIXTURE / "fixture-a" / "checkpoint.json").read_text())
        new_fold = json.loads((state / "fixture-a" / "checkpoint.json").read_text())
        old_runs = old_fold["engine"]["folds"][0]["completed_runs"]
        new_runs = new_fold["engine"]["folds"][0]["completed_runs"]
        assert old_runs and len(new_runs) == len(old_runs)
        for old_run, new_run in zip(old_runs, new_runs):
            assert "positions" not in new_run
            assert new_run["distinct_positions"] == len(old_run["positions"])
        again = migrate_state_dir(state)
        assert again["migrated"] == 0
        assert all(not entry["steps"] for entry in again["sessions"])

    def test_downgrade_is_refused(self, tmp_path):
        state = _copy_fixture(tmp_path)
        migrate_state_dir(state)
        with pytest.raises(DowngradeError, match="downgrades are not supported"):
            migrate_session_dir(state / "fixture-a", to=1)
        assert cli_main(["migrate", str(state), "--to", "1"]) == 2

    def test_future_state_needs_migration_not_repair(self, tmp_path, capsys):
        state = _copy_fixture(tmp_path)
        segment = next((state / "fixture-a").glob("journal-*.wal"))
        segment.write_bytes(journal_magic(99) + segment.read_bytes()[_MAGIC_LEN:])
        ckpt = state / "fixture-b" / "checkpoint.json"
        ckpt_state = json.loads(ckpt.read_text())
        ckpt_state["version"] = 99
        ckpt.write_text(json.dumps(ckpt_state))
        # fsck: exit 2 (needs migration), never 1 (damaged).
        assert cli_main(["fsck", str(state)]) == 2
        captured = capsys.readouterr()
        assert "needs-migration" in captured.err
        assert json.loads(captured.out)["needs_migration"] == 2
        # migrate: a clear refusal pointing at the newer build.
        with pytest.raises(FutureFormatError):
            migrate_state_dir(state)
        assert cli_main(["migrate", str(state)]) == 2
        err = capsys.readouterr().err
        assert "newer dsspy build" in err


class TestCrashDuringMigration:
    """The PR 4 torn-write discipline applied to migration: a crash at
    *any* byte of the rewrite leaves each artifact wholly old or wholly
    new, and rerunning the migration completes it."""

    @pytest.fixture()
    def v1_session(self, tmp_path):
        trace = generate_trace(77, **SMALL)
        directory = tmp_path / "pristine"
        journal = SessionJournal(directory, segment_max_bytes=2048)
        session = Session(
            "crashy", StreamingUseCaseEngine(), journal=journal, checkpoint_every=32
        )
        for inst in trace.instances:
            session.register(inst.instance_id, inst.kind, None, inst.label)
        for offset, raws in _windows(trace.events, 32):
            session.ingest(offset, raws)
        session.abandon()
        assert regress_state_dir_to_v1(directory) > 0
        assert scan_session_dir(directory).versions["state"] == 1
        return directory, trace

    @staticmethod
    def _artifact_bytes(directory: Path) -> dict[str, bytes]:
        names = sorted(p.name for p in directory.glob("journal-*.wal"))
        names.append("checkpoint.json")
        return {name: (directory / name).read_bytes() for name in names}

    def test_torn_tmp_at_every_byte_recovers_wholly_old_or_new(
        self, tmp_path, v1_session
    ):
        directory, trace = v1_session
        old = self._artifact_bytes(directory)
        done = tmp_path / "done"
        shutil.copytree(directory, done)
        migrate_session_dir(done)
        new = self._artifact_bytes(done)
        expected = len(trace.events)

        iteration = 0
        for name, new_bytes in new.items():
            for cut in range(len(new_bytes) + 1):
                work = tmp_path / "work"
                if work.exists():
                    shutil.rmtree(work)
                shutil.copytree(directory, work)
                # The crash: a torn temp sibling, original intact.
                (work / (name + TMP_SUFFIX)).write_bytes(new_bytes[:cut])
                # Nothing versioned sees the temp file — the directory
                # is still wholly old.
                assert scan_session_dir(work).versions["state"] == 1
                assert self._artifact_bytes(work) == old
                # Rerunning the migration sweeps the leftover and
                # finishes the job.
                result = migrate_session_dir(work)
                assert result["steps"] == ["v1->v2", "v2->v3"]
                assert self._artifact_bytes(work) == new
                assert not list(work.glob("*" + TMP_SUFFIX))
                if iteration % 97 == 0:
                    recovered = recover_session_dir(work)
                    assert recovered.received == expected
                    _assert_report_matches_batch(
                        report_to_dict(recovered.engine.report()), trace
                    )
                iteration += 1

    def test_enospc_mid_migration_never_commits_a_hybrid(
        self, tmp_path, v1_session
    ):
        directory, trace = v1_session
        old = self._artifact_bytes(directory)
        done = tmp_path / "done"
        shutil.copytree(directory, done)
        migrate_session_dir(done, to=2)
        mid = self._artifact_bytes(done)
        migrate_session_dir(done)
        new = self._artifact_bytes(done)
        # The budget sweeps the bytes both hops write.
        total = sum(len(b) for b in (*mid.values(), *new.values()))
        expected = len(trace.events)

        for budget in range(1, total + 1, 23):
            work = tmp_path / "work"
            if work.exists():
                shutil.rmtree(work)
            shutil.copytree(directory, work)
            hostile = FaultFS(
                enospc_after_bytes=budget, partial_writes=budget % 2 == 0
            )
            try:
                migrate_session_dir(work, fs=hostile)
            except OSError:
                pass
            # However far the rewrite got, every artifact is exactly
            # one generation — never a byte-mixed hybrid.
            for name, data in self._artifact_bytes(work).items():
                assert data in (old[name], mid[name], new[name]), (
                    f"budget={budget}: {name} is a hybrid"
                )
            recovered = recover_session_dir(work)
            assert recovered.received == expected
            # Clean rerun completes regardless of where the fault hit.
            migrate_session_dir(work)
            assert self._artifact_bytes(work) == new
        final = recover_session_dir(work)
        _assert_report_matches_batch(report_to_dict(final.engine.report()), trace)


# -- park / resume (the single-daemon half of a rolling upgrade) ---------


class TestParkAndResume:
    def test_parked_daemon_resumes_at_exact_cursor(self, tmp_path):
        trace = generate_trace(321)
        state = tmp_path / "state"
        half = (len(trace.events) // 2 // 64) * 64

        daemon = ProfilingDaemon(port=0, state_dir=state)
        try:
            client = ServiceClient(daemon.address, session_id="parked")
            client.register_instances([i.registration() for i in trace.instances])
            for offset, raws in _windows(trace.events[:half], 64):
                client.send_events(offset, raws)
            client.close()
        finally:
            daemon.park()

        # The parked state migrates as a no-op (already current) and
        # carries the cursor.
        assert migrate_state_dir(state)["migrated"] == 0
        assert recover_session_dir(state / "parked").received == half

        with ProfilingDaemon(port=0, state_dir=state) as daemon2:
            client = ServiceClient(daemon2.address, session_id="parked")
            assert client.resumed
            assert client.server_received == half
            _ship(client, trace, start=client.server_received)
            ack = client.fin()
            client.close()
            assert ack["received"] == len(trace.events)
            _assert_report_matches_batch(ack["report"], trace)


# -- fleet rolling upgrade -----------------------------------------------


class TestPreviousSupervisorArgv:
    """During ``dsspy fleet upgrade`` the previous main commit's
    supervisor respawns its workers on the new code with the argv its
    ``FleetSupervisor.worker_command`` builds; ``serve`` must accept it.
    The retired ``--overflow`` flag is not in that argv, so it is gone."""

    #: ``FleetSupervisor.worker_command`` of the previous main commit,
    #: after ``python -m repro.cli``, for ``dsspy serve --workers N
    #: --report-dir reports --max-events-per-sec 5000 --journal-fsync``.
    PREVIOUS_WORKER_ARGV = [
        "serve",
        "--host", "127.0.0.1",
        "--port", "40123",
        "--state-dir", "fleet/shard-00",
        "--port-file", "fleet/shard-00/port",
        "--checkpoint-every", "50000",
        "--heartbeat-timeout", "30.0",
        "--linger", "60.0",
        "--report-dir", "reports",
        "--retry-after", "1.0",
        "--journal-fsync",
        "--max-events-per-sec", "5000.0",
    ]

    def test_previous_worker_argv_parses(self):
        from repro.cli import _cmd_serve, build_parser

        args = build_parser().parse_args(self.PREVIOUS_WORKER_ARGV)
        assert args.fn is _cmd_serve
        assert (args.port, args.state_dir, args.port_file) == (
            40123, "fleet/shard-00", "fleet/shard-00/port"
        )
        assert (args.checkpoint_every, args.linger) == (50000, 60.0)
        assert (args.retry_after, args.journal_fsync) == (1.0, True)
        assert args.max_events_per_sec == 5000.0

    @pytest.mark.parametrize("policy", ["block", "spill", "decimate"])
    def test_overflow_flag_is_gone(self, policy, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--overflow", policy])
        assert exc.value.code == 2
        assert "--overflow" in capsys.readouterr().err

    def test_help_names_neither_overflow_nor_max_pending(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["serve", "--help"])
        out = capsys.readouterr().out
        assert "--overflow" not in out and "--max-pending" not in out
        with pytest.raises(SystemExit) as exc:
            cli_main(["serve", "--max-pending", "10"])
        assert exc.value.code == 2


@pytest.mark.slow
class TestRollingUpgrade:
    def test_rolling_upgrade_cycles_every_worker_without_loss(self, tmp_path):
        with FleetSupervisor(
            2, tmp_path / "fleet", heartbeat_timeout=60.0, startup_timeout=60.0
        ) as sup:
            trace = generate_trace(4242)
            client = ServiceClient(sup.address, session_id="pre-upgrade")
            _ship(client, trace)
            ack = client.fin()
            client.close()
            assert ack["received"] == len(trace.events)
            _assert_report_matches_batch(ack["report"], trace)

            results = sup.rolling_upgrade(drain_timeout=15.0)
            assert len(results) == 2
            assert all(r["restarted"] for r in results)
            assert all(r["migrated"] is not None for r in results)
            assert sup.upgrades == 2

            stats = sup.stats()
            assert stats["upgrades"] == 2
            for worker in stats["workers"]:
                assert worker["build"]["proto"] == PROTOCOL_VERSION
            # Over the wire too — `dsspy fleet upgrade --address` polls
            # the router's STATS to watch the upgrade converge.
            assert fetch_stats(sup.address)["upgrades"] == 2

            # The upgraded fleet still takes new work.
            trace2 = generate_trace(4243)
            client2 = ServiceClient(sup.address, session_id="post-upgrade")
            _ship(client2, trace2)
            ack2 = client2.fin()
            client2.close()
            assert ack2["received"] == len(trace2.events)
            _assert_report_matches_batch(ack2["report"], trace2)

    def test_draining_shard_refuses_with_retry_after(self, tmp_path):
        with FleetSupervisor(
            2, tmp_path / "fleet", heartbeat_timeout=60.0, startup_timeout=60.0
        ) as sup:
            session_id = next(
                f"drain-{i}" for i in range(1000) if shard_for(f"drain-{i}", 2) == 0
            )
            sup.router.set_draining(0, True)
            try:
                with pytest.raises(RetryAfterError):
                    ServiceClient(sup.address, session_id=session_id)
            finally:
                sup.router.set_draining(0, False)
            client = ServiceClient(sup.address, session_id=session_id)
            client.close()
            assert sup.stats()["drain_refusals"] >= 1


# -- chaos: the upgrade fault --------------------------------------------


class TestChaosUpgradeFault:
    def test_upgrade_fault_holds_every_invariant(self, tmp_path):
        soak = ChaosSoak(trace_kwargs=SMALL, upgrade_rate=1.0)
        with soak:
            summary = soak.run(
                trials=2, base_seed=8800, ledger_path=tmp_path / "ledger.jsonl"
            )
        assert summary["ok"], summary["seeds_with_violations"]
        assert summary["upgrades"] == 2
        records = [
            json.loads(line)
            for line in (tmp_path / "ledger.jsonl").read_text().splitlines()
        ]
        assert all(r["upgrades"] == 1 for r in records)
