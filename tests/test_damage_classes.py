"""One damage table, four readers: daemon start-up, ``recover_session_dir``,
read-only ``fsck_session_dir`` and ``fsck_session_dir(repair=True)``
followed by recovery must classify every damage class of the table in
docs/operations.md the same way, rebuild the same ``received`` and
``applied`` cursors and engine, and destroy no byte but a torn tail.

The journal is 5 segments and 32 events: a REGISTER plus four 8-event
windows in segments 0-3, and the empty segment the last window's roll
opened.
"""

from __future__ import annotations

import errno
import json
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import pytest

from repro.service import (
    FutureFormatError,
    ProfilingDaemon,
    SessionJournal,
    recover_session_dir,
)
from repro.events.spill import RECORD_SIZE
from repro.service.durability import JOURNAL_MAGIC, checkpoint_state, journal_magic
from repro.service.fsck import fsck_session_dir
from repro.service.streaming import StreamingUseCaseEngine
from repro.testing.faults import FaultFS

SESSION = "s"


def _raws(n: int, base: int) -> list:
    return [(1, 0, 0, (base + i) % 4, 4, 0, None) for i in range(n)]


def _journal(directory: Path, starts: tuple[int, ...] = (0, 8, 16, 24)) -> None:
    with SessionJournal(directory, segment_max_bytes=256) as journal:
        journal.append_register(
            [{"id": 1, "kind": "list", "site": None, "label": "t"}]
        )
        for start in starts:
            journal.append_events(start, _raws(8, start))
    # One window per segment, then the empty segment the last roll opened.
    assert len(list(directory.glob("journal-*.wal"))) == len(starts) + 1
    assert _segment(directory, len(starts)).read_bytes() == JOURNAL_MAGIC


def _segment(directory: Path, index: int) -> Path:
    return directory / f"journal-{index:06d}.wal"


def _append(path: Path, data: bytes) -> None:
    with path.open("ab") as fh:
        fh.write(data)


def _flip_mid_segment(directory: Path) -> None:
    path = _segment(directory, 1)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF  # inside window 1's payload: CRC fails
    path.write_bytes(bytes(data))


def _bad_header(directory: Path) -> None:
    path = _segment(directory, 2)
    path.write_bytes(b"NOTAWAL!" + path.read_bytes()[8:])


#: Bytes of a segment holding one 8-event window: magic, record header,
#: EVENTS header, records.
_WINDOW_SEGMENT = len(JOURNAL_MAGIC) + 9 + 12 + 8 * RECORD_SIZE


def _torn_earlier_segment(directory: Path) -> None:
    # What an append leaves when it fails part-way and the journal
    # cannot truncate it away: the next append rolled to a new segment.
    _append(_segment(directory, 1), struct.pack("<BII", 2, 100, 0) + bytes(20))


def _checkpoint_engine_lost(directory: Path) -> None:
    # Valid cursors over an engine that does not deserialize, with the
    # segments it covers still on disk (pruning is best effort).
    state = checkpoint_state(
        SimpleNamespace(
            session_id=SESSION,
            engine=StreamingUseCaseEngine(),
            received=16,
            applied=16,
            duplicates=0,
        )
    )
    state["engine"] = {"folds": "lost"}
    (directory / "checkpoint.json").write_text(json.dumps(state))


def _future_segment(directory: Path) -> None:
    path = _segment(directory, 0)
    path.write_bytes(journal_magic(99) + path.read_bytes()[8:])


@dataclass(frozen=True)
class Case:
    mutate: Callable[[Path], None] | None
    #: Damage classes every reader reports; ``("future",)`` means every
    #: reader refuses the session as written by a newer build.
    damage: tuple[str, ...]
    #: ``received`` (= ``applied``) every reader rebuilds; ``None`` for
    #: state no reader may recover.
    received: int | None
    #: ``(segment, bytes kept)`` for the one torn tail a reader may cut.
    torn: tuple[str, int] | None = None
    starts: tuple[int, ...] = (0, 8, 16, 24)
    #: Events the rebuilt engine folded, when not ``received``.
    events_folded: int | None = None

    @property
    def folded(self) -> int | None:
        return self.received if self.events_folded is None else self.events_folded


CASES = {
    "clean": Case(None, (), 32),
    "last-segment torn tail": Case(
        lambda d: _append(_segment(d, 4), b"\x02\x99\x00\x00"),
        ("torn-tail",),
        32,
        torn=("journal-000004.wal", 8),
    ),
    "zero-byte last segment": Case(
        lambda d: _segment(d, 5).write_bytes(b""),
        ("torn-tail",),
        32,
        torn=("journal-000005.wal", 0),
    ),
    "partial-magic last segment": Case(
        lambda d: _segment(d, 5).write_bytes(JOURNAL_MAGIC[:5]),
        ("torn-tail",),
        32,
        torn=("journal-000005.wal", 0),
    ),
    "torn tail in an earlier segment": Case(
        _torn_earlier_segment,
        ("torn-tail",),
        32,
        torn=("journal-000001.wal", _WINDOW_SEGMENT),
    ),
    "mid-journal CRC damage": Case(_flip_mid_segment, ("damaged-segment",), 8),
    "mid-journal bad header": Case(_bad_header, ("damaged-segment",), 16),
    "unreadable checkpoint": Case(
        lambda d: (d / "checkpoint.json").write_text("{ not json"),
        ("bad-checkpoint",),
        32,
    ),
    "checkpoint engine lost, segments kept": Case(
        _checkpoint_engine_lost, ("bad-checkpoint",), 32
    ),
    "future-format segment": Case(_future_segment, ("future",), None),
    "future-format checkpoint": Case(
        lambda d: (d / "checkpoint.json").write_text(
            json.dumps({"version": 99, "session": SESSION})
        ),
        ("future",),
        None,
    ),
    "cursor gap": Case(
        None, ("cursor-gap",), 32, starts=(0, 16, 24), events_folded=24
    ),
}


def _build(root: Path, case: Case) -> Path:
    """A fresh state dir holding session ``s`` with the case's damage."""
    directory = root / SESSION
    _journal(directory, case.starts)
    if case.mutate is not None:
        case.mutate(directory)
    return directory


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}


def _assert_nothing_destroyed(
    before: dict[str, bytes], directory: Path, case: Case
) -> None:
    """Every original byte is still in place or moved into quarantine/,
    except the bytes past the last whole record of a torn segment."""
    for name, data in before.items():
        moved = directory / "quarantine" / name
        if moved.exists() and moved.read_bytes() == data:
            continue
        here = directory / name
        if case.torn is not None and case.torn[0] == name:
            kept = data[: case.torn[1]]
            assert not here.exists() and not kept or (
                here.read_bytes().startswith(kept)
            ), f"{name}: bytes before the torn tail were destroyed"
            continue
        assert here.exists() and here.read_bytes() == data, f"{name} destroyed"


def _start_daemon(
    root: Path, fs: FaultFS | None = None
) -> tuple[tuple[str, ...] | None, tuple[int, int, int], list[str]]:
    """Daemon start-up on ``root``: (refusal, (received, applied, events
    folded), warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            daemon = ProfilingDaemon(port=0, state_dir=root, fs=fs)
        except FutureFormatError:
            return ("future",), (-1, -1, -1), []
    try:
        session = daemon.sessions[SESSION]
        cursors = session.received, session.applied, session.engine.events_folded
    finally:
        daemon.crash()
    notes = [str(w.message) for w in caught if w.category is RuntimeWarning]
    return None, cursors, notes


def _cursors(recovered) -> tuple[int, int, int]:
    return recovered.received, recovered.applied, recovered.engine.events_folded


@pytest.mark.parametrize("name", list(CASES))
class TestOneDamageTable:
    def test_every_reader_rebuilds_the_same_cursors(self, tmp_path, name):
        case = CASES[name]

        expected = (case.received, case.received, case.folded)

        startup_root = tmp_path / "startup"
        _build(startup_root, case)
        refused, cursors, _ = _start_daemon(startup_root)
        if case.received is None:
            assert refused == ("future",)
        else:
            assert cursors == expected

        directory = _build(tmp_path / "recover", case)
        if case.received is None:
            with pytest.raises(FutureFormatError):
                recover_session_dir(directory)
        else:
            assert _cursors(recover_session_dir(directory)) == expected

        directory = _build(tmp_path / "fsck", case)
        report = fsck_session_dir(directory)
        if case.received is not None:
            assert report["received"] == case.received

        directory = _build(tmp_path / "repair", case)
        fsck_session_dir(directory, repair=True)
        if case.received is None:
            with pytest.raises(FutureFormatError):
                recover_session_dir(directory)
        else:
            recovered = recover_session_dir(directory)
            assert _cursors(recovered) == expected
            assert recovered.notes == [], "a repaired directory rescans clean"

    def test_no_reader_destroys_more_than_a_torn_tail(self, tmp_path, name):
        case = CASES[name]

        directory = _build(tmp_path / "fsck", case)
        before = _files(directory)
        fsck_session_dir(directory)
        assert _files(directory) == before, "plain fsck is strictly read-only"

        for path in ("startup", "recover", "repair"):
            directory = _build(tmp_path / path, case)
            before = _files(directory)
            if path == "startup":
                _start_daemon(directory.parent)
            elif path == "recover":
                try:
                    recover_session_dir(directory)
                except FutureFormatError:
                    pass
            else:
                fsck_session_dir(directory, repair=True)
            _assert_nothing_destroyed(before, directory, case)

    def test_every_reader_reaches_the_same_classification(self, tmp_path, name):
        case = CASES[name]

        startup = _build(tmp_path / "startup", case).parent
        refused, _, startup_notes = _start_daemon(startup)

        directory = _build(tmp_path / "recover", case)
        try:
            recovered = recover_session_dir(directory)
            recover_damage, recover_notes = recovered.damage, recovered.notes
        except FutureFormatError:
            recover_damage, recover_notes = ("future",), []

        read_only = fsck_session_dir(_build(tmp_path / "fsck", case))
        repaired = fsck_session_dir(_build(tmp_path / "repair", case), repair=True)

        def fsck_damage(report: dict) -> tuple[str, ...]:
            return ("future",) if report["needs_migration"] else tuple(report["damage"])

        assert refused == (("future",) if case.received is None else None)
        assert recover_damage == case.damage
        assert fsck_damage(read_only) == case.damage
        assert fsck_damage(repaired) == case.damage
        # Newer-format state is not damage: fsck passes it (and exits 2).
        assert read_only["ok"] == (case.damage in ((), ("future",)))
        # Start-up warns exactly what recovery notes: the same problems
        # and the same repair actions.
        assert startup_notes == [f"session {SESSION}: {n}" for n in recover_notes]
        # fsck names the same problems, and its repair did the same.
        assert read_only["problems"] == repaired["problems"]
        assert recover_notes[: len(read_only["problems"])] == read_only["problems"]
        if case.received is not None:
            assert repaired["quarantined"] == recovered.quarantined
            assert repaired["repaired"] == recovered.repaired
        else:
            assert repaired["quarantined"] == repaired["repaired"] == []


def test_lost_cursor_range_is_named(tmp_path):
    directory = _build(tmp_path, CASES["mid-journal CRC damage"])
    report = fsck_session_dir(directory)
    assert any("cursor range 8..32" in p for p in report["problems"])
    directory = _build(tmp_path / "gap", CASES["cursor gap"])
    assert any("cursor gap 8..16" in p for p in fsck_session_dir(directory)["problems"])


class _NoTruncate:
    """A file handle whose ``truncate`` fails."""

    def __init__(self, fh) -> None:
        self._fh = fh

    def truncate(self, size=None):
        raise OSError(errno.EIO, "truncate failed")

    def __getattr__(self, name):
        return getattr(self._fh, name)


class _TruncateFailsFS(FaultFS):
    def open(self, path, mode="wb"):
        return _NoTruncate(super().open(path, mode))


def test_segment_abandoned_by_a_failed_append_recovers_whole(tmp_path):
    """An append that fails part-way, on a disk where the journal's
    self-heal truncate fails too, leaves a torn record in a segment the
    journal abandons; the retried append lands in the next segment.
    Nothing acked was lost, so start-up cuts the tear and keeps every
    segment."""
    fs = _TruncateFailsFS(partial_writes=True)
    directory = tmp_path / SESSION
    journal = SessionJournal(directory, fs=fs)
    journal.append_register([{"id": 1, "kind": "list", "site": None, "label": "t"}])
    journal.append_events(0, _raws(8, 0))
    fs.enospc_after_bytes = fs.bytes_written + 20  # the next record tears at 20 bytes
    with pytest.raises(OSError):
        journal.append_events(8, _raws(8, 8))
    fs.relieve()
    journal.append_events(8, _raws(8, 8))
    journal.append_events(16, _raws(8, 16))
    journal.close()
    before = _files(directory)
    assert sorted(before) == ["journal-000000.wal", "journal-000001.wal"]

    refused, cursors, notes = _start_daemon(tmp_path)
    assert (refused, cursors) == (None, (24, 24, 24))
    assert notes and all("torn" in n for n in notes)
    assert not (directory / "quarantine").exists()
    assert _segment(directory, 0).read_bytes() == before["journal-000000.wal"][:-20]
    assert _segment(directory, 1).read_bytes() == before["journal-000001.wal"]


@pytest.mark.parametrize("budget", [0, 10])
@pytest.mark.parametrize(
    "name", ["mid-journal CRC damage", "unreadable checkpoint", "cursor gap"]
)
def test_startup_repair_on_a_full_disk_keeps_the_session(tmp_path, name, budget):
    """A repair that runs out of disk stops, says so, and the daemon
    still comes up with the session it rebuilt in memory; no partial
    checkpoint is left behind and nothing is destroyed."""
    case = CASES[name]
    directory = _build(tmp_path, case)
    before = _files(directory)
    fs = FaultFS(enospc_after_bytes=budget, partial_writes=True)
    refused, cursors, notes = _start_daemon(tmp_path, fs)
    assert (refused, cursors) == (None, (case.received, case.received, case.folded))
    assert any("repair stopped short" in n for n in notes)
    assert not (directory / "checkpoint.json.tmp").exists()
    _assert_nothing_destroyed(before, directory, case)
    recovered = recover_session_dir(directory)
    assert recovered.received == case.received
    if "damaged-segment" in case.damage:
        # No segment moves before the rebuilt checkpoint is on disk, so
        # the next scan finds the damage and names the loss again.
        assert recovered.damage == case.damage
