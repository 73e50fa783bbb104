"""The block record codec (`pack_records` / `unpack_records`) against a
per-record reference.

The reference below is the format written out field by field with
``struct``, one record at a time, independent of `repro.events.spill`.
Validation must accept and reject exactly the frames the per-record
plausibility screen does, and a journal the daemon writes from the
bytes it received must be byte-identical to one packed from tuples.
"""

from __future__ import annotations

import json
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from repro.events.spill import (
    RECORD_SIZE,
    ImplausibleRecords,
    pack_record,
    pack_records,
    unpack_records,
)
from repro.events.types import AccessKind, OperationKind
from repro.service import ProfilingDaemon, SessionJournal, StreamingUseCaseEngine
from repro.service.client import ServiceClient
from repro.service.durability import REC_EVENTS, recover_session_dir, scan_segment
from repro.service.fsck import fsck_session_dir
from repro.service.protocol import (
    _EVENTS_HEADER,
    FrameDecoder,
    ProtocolError,
    decode_events,
    encode_events,
)
from repro.service.session import Session
from repro.testing import generate_trace
from repro.usecases.json_export import report_to_dict

REPO = Path(__file__).resolve().parent.parent

_REF = struct.Struct("<qqqiBBBd")


def ref_pack(raw) -> bytes:
    iid, op, kind, pos, size, tid, wall = raw
    flags = (1 if pos is not None else 0) | (2 if wall is not None else 0)
    return _REF.pack(
        iid, 0 if pos is None else pos, size, tid, op, kind, flags,
        0.0 if wall is None else wall,
    )


def ref_plausible(record: bytes) -> bool:
    _, pos, size, tid, op, kind, flags, _ = _REF.unpack(record)
    return (
        op <= max(OperationKind)
        and kind <= max(AccessKind)
        and flags & ~3 == 0
        and size >= 0
        and pos >= 0
        and tid >= 0
    )


def ref_unpack(record: bytes):
    iid, pos, size, tid, op, kind, flags, wall = _REF.unpack(record)
    return (iid, op, kind, pos if flags & 1 else None, size, tid, wall if flags & 2 else None)


def _records(body: bytes) -> list[bytes]:
    return [body[o : o + RECORD_SIZE] for o in range(0, len(body), RECORD_SIZE)]


def _random_raw(rng: random.Random):
    return (
        rng.randrange(1 << 40),
        rng.randrange(max(OperationKind) + 1),
        rng.randrange(max(AccessKind) + 1),
        rng.choice([None, 0, rng.randrange(1 << 62)]),
        rng.randrange(1 << 62),
        rng.randrange(1 << 31),
        rng.choice([None, 0.0, rng.random() * 1e6]),
    )


def _payload(frame: bytes) -> bytes:
    ((_, payload),) = FrameDecoder().feed(frame)
    return payload


class TestPack:
    def test_pack_records_equals_per_record_reference(self):
        rng = random.Random(19)
        for _ in range(200):
            raws = [_random_raw(rng) for _ in range(rng.randrange(0, 40))]
            expected = b"".join(map(ref_pack, raws))
            assert pack_records(raws) == expected
            assert pack_records(iter(raws)) == expected  # any iterable
            assert b"".join(map(pack_record, raws)) == expected

    def test_round_trip(self):
        rng = random.Random(7)
        raws = [_random_raw(rng) for _ in range(500)]
        assert unpack_records(pack_records(raws)) == raws
        assert unpack_records(memoryview(pack_records(raws)), validate=True) == raws

    def test_partial_record_is_refused(self):
        with pytest.raises(ValueError, match="not a multiple"):
            unpack_records(b"\x00" * (RECORD_SIZE + 1))

    def test_encode_events_carries_the_block(self):
        raws = generate_trace(3).events[:50]
        payload = _payload(encode_events(12, raws))
        assert payload == _EVENTS_HEADER.pack(12, len(raws)) + pack_records(raws)


class TestValidationParity:
    def test_corruptions_are_judged_like_the_per_record_screen(self):
        """3,000+ seeded byte corruptions: validate=True accepts and
        rejects exactly the frames the per-record screen does, reports
        the same count, and decodes the accepted ones identically."""
        rng = random.Random(2014)
        events = generate_trace(5).events
        corruptions = accepted = rejected = 0
        while corruptions < 3000:
            count = rng.randint(1, 64)
            start = rng.randrange(0, len(events) - count)
            payload = bytearray(_payload(encode_events(start, events[start : start + count])))
            for _ in range(rng.randint(1, 4)):
                at = rng.randrange(_EVENTS_HEADER.size, len(payload))
                payload[at] = rng.randrange(256)
                corruptions += 1
            records = _records(bytes(payload[_EVENTS_HEADER.size :]))
            bad = sum(1 for r in records if not ref_plausible(r))
            if bad:
                rejected += 1
                with pytest.raises(ProtocolError) as info:
                    decode_events(bytes(payload), validate=True)
                assert (
                    f"at stream index {start} carries {bad} implausible record(s) "
                    f"of {count};" in str(info.value)
                )
                with pytest.raises(ImplausibleRecords) as info:
                    unpack_records(bytes(payload[_EVENTS_HEADER.size :]), validate=True)
                assert info.value.bad == bad
            else:
                accepted += 1
                assert decode_events(bytes(payload), validate=True) == (
                    start, [ref_unpack(r) for r in records],
                )
            # Without validation every frame decodes, garbage included.
            assert decode_events(bytes(payload))[1] == [ref_unpack(r) for r in records]
        assert accepted > 500 and rejected > 200, (accepted, rejected)  # both sides exercised

    def test_every_field_check_rejects(self):
        base = bytearray(ref_pack((1, 0, 0, 5, 3, 2, None)))
        # (byte offset, value): op, kind, flags, then the sign byte of
        # position, size and thread id (little-endian).
        for offset, value in ((28, 255), (29, 255), (30, 4), (15, 0x80), (23, 0x80), (27, 0x80)):
            record = bytearray(base)
            record[offset] = value
            assert not ref_plausible(bytes(record))
            with pytest.raises(ImplausibleRecords):
                unpack_records(bytes(base + record), validate=True)


def _windows():
    """Windows of one trace as a client ships them, including a
    retransmission that starts below the cursor (skip > 0)."""
    trace = generate_trace(11, max_segments=10)
    events = trace.events
    assert len(events) > 200
    cuts = [(0, 64), (64, 150), (100, 180), (180, len(events)), (len(events) - 5, len(events))]
    return trace, [(lo, events[lo:hi]) for lo, hi in cuts]


def _segment_bytes(directory: Path) -> list[bytes]:
    return [p.read_bytes() for p in sorted(directory.glob("journal-*.wal"))]


def _journaled_session(directory: Path, trace, windows, *, received_bytes: bool):
    session = Session(
        "s", StreamingUseCaseEngine(), journal=SessionJournal(directory / "s")
    )
    for inst in trace.instances:
        session.register(inst.instance_id, inst.kind, None, inst.label)
    for start, raws in windows:
        if received_bytes:
            payload = _payload(encode_events(start, raws))
            got_start, got = decode_events(payload, validate=True)
            session.ingest(
                got_start, got, data=memoryview(payload)[_EVENTS_HEADER.size :]
            )
        else:
            session.ingest(start, raws)
    return session


class TestJournalFromReceivedBytes:
    def test_byte_identical_to_repacked_journal(self, tmp_path):
        trace, windows = _windows()
        sessions = {}
        for received in (True, False):
            root = tmp_path / ("received" if received else "repacked")
            sessions[received] = _journaled_session(root, trace, windows, received_bytes=received)
            sessions[received].abandon()  # the journal alone must carry the session
        assert sessions[True].duplicates == sessions[False].duplicates > 0
        ours = _segment_bytes(tmp_path / "received" / "s")
        assert ours and ours == _segment_bytes(tmp_path / "repacked" / "s")

        # It reads back to the same tuples, through replay and recovery.
        with SessionJournal(tmp_path / "received" / "s") as journal:
            replayed = [raw for _, raws in journal.iter_event_windows(0) for raw in raws]
        assert replayed == trace.events
        recovered = {
            r: recover_session_dir(tmp_path / ("received" if r else "repacked") / "s")
            for r in (True, False)
        }
        assert recovered[True].received == recovered[False].received == len(trace.events)
        assert report_to_dict(recovered[True].engine.report()) == report_to_dict(
            recovered[False].engine.report()
        )

        # ... and fsck finds it clean, in-process and through the CLI.
        assert fsck_session_dir(tmp_path / "received" / "s")["ok"]
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "fsck", str(tmp_path / "received")],
            capture_output=True, text=True, cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ok"]

    def test_daemon_journals_the_window_bytes_it_received(self, tmp_path):
        trace, windows = _windows()
        state = tmp_path / "state"
        with ProfilingDaemon(port=0, state_dir=state) as daemon:
            client = ServiceClient(daemon.address)
            client.register_instances([i.registration() for i in trace.instances])
            for start, raws in windows:
                client.send_events(start, raws)
            assert client.heartbeat()["received"] == len(trace.events)
            segments = sorted((state / client.session_id).glob("journal-*.wal"))
            journaled = [
                payload
                for segment in segments
                for rtype, payload in scan_segment(segment)[0]
                if rtype == REC_EVENTS
            ]
            client.fin()
            client.close()
        # Each window lands once, past the retransmitted overlap.
        cursor, expected = 0, []
        for start, raws in windows:
            fresh = raws[cursor - start :]
            if fresh:
                expected.append(
                    _EVENTS_HEADER.pack(cursor, len(fresh)) + b"".join(map(ref_pack, fresh))
                )
                cursor += len(fresh)
        assert journaled == expected
