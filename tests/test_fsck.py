"""`dsspy fsck`: the offline deep-verifier must tell the truth about a
state directory (read-only by default), and `--repair` must quarantine
damage — never delete it — and rebuild a checkpoint that matches what
a journal replay from scratch produces.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.events.types import StructureKind
from repro.service.durability import (
    CHECKPOINT_VERSION,
    SessionJournal,
    engine_to_dict,
    recover_session_dir,
)
from repro.service.fsck import QUARANTINE_DIRNAME, fsck_session_dir, fsck_state_dir
from repro.service.router import shard_for
from repro.service.fleet import shard_dir_name

REPO = Path(__file__).resolve().parent.parent


def _raws(n: int, base: int = 0) -> list:
    return [(1, 0, 0, (base + i) % 4, 4, 0, None) for i in range(n)]


def _fabricate(directory: Path, *, windows: int = 3, per_window: int = 4,
               segment_max: int = 1 << 22, fin: bool = False) -> int:
    """An on-disk journaled session; returns the event count."""
    with SessionJournal(directory, segment_max_bytes=segment_max) as journal:
        journal.append_register(
            [{"id": 1, "kind": "list", "site": None, "label": "t"}]
        )
        for w in range(windows):
            journal.append_events(w * per_window, _raws(per_window, w * per_window))
        if fin:
            journal.append_fin()
    return windows * per_window


def _write_checkpoint(directory: Path) -> dict:
    """A valid checkpoint derived the same way the daemon derives one."""
    recovered = recover_session_dir(directory)
    state = {
        "version": CHECKPOINT_VERSION,
        "session": directory.name,
        "received": recovered.received,
        "applied": recovered.applied,
        "duplicates": recovered.duplicates,
        "engine": engine_to_dict(recovered.engine),
    }
    (directory / "checkpoint.json").write_text(
        json.dumps(state, separators=(",", ":"))
    )
    return state


class TestCleanSessions:
    def test_clean_journal_passes(self, tmp_path):
        events = _fabricate(tmp_path / "s")
        report = fsck_session_dir(tmp_path / "s")
        assert report["ok"]
        assert report["problems"] == []
        assert report["received"] == events
        assert not report["finished"]

    def test_finished_session_reports_fin(self, tmp_path):
        _fabricate(tmp_path / "s", fin=True)
        assert fsck_session_dir(tmp_path / "s")["finished"]

    def test_valid_checkpoint_recognized(self, tmp_path):
        events = _fabricate(tmp_path / "s")
        _write_checkpoint(tmp_path / "s")
        report = fsck_session_dir(tmp_path / "s")
        assert report["ok"]
        assert report["checkpoint"] == {
            "present": True, "valid": True, "received": events, "applied": events,
            "version": CHECKPOINT_VERSION,
        }

    def test_repair_on_clean_directory_changes_nothing(self, tmp_path):
        _fabricate(tmp_path / "s")
        before = sorted(p.name for p in (tmp_path / "s").iterdir())
        report = fsck_session_dir(tmp_path / "s", repair=True)
        assert report["ok"] and not report["repaired"] and not report["quarantined"]
        assert sorted(p.name for p in (tmp_path / "s").iterdir()) == before


class TestTornTail:
    def test_detected_read_only_then_truncated_by_repair(self, tmp_path):
        events = _fabricate(tmp_path / "s")
        segment = sorted((tmp_path / "s").glob("journal-*.wal"))[-1]
        with segment.open("ab") as fh:
            fh.write(b"\x02\x99\x00\x00")  # header torn mid-crash
        report = fsck_session_dir(tmp_path / "s")
        assert not report["ok"]
        assert any("torn tail" in p for p in report["problems"])

        repaired = fsck_session_dir(tmp_path / "s", repair=True)
        assert repaired["ok"]
        assert any("truncated torn tail" in r for r in repaired["repaired"])
        # Post-repair the directory is genuinely clean again.
        assert fsck_session_dir(tmp_path / "s")["ok"]
        assert recover_session_dir(tmp_path / "s").received == events


class TestBitFlips:
    def _flip(self, path: Path, offset: int) -> None:
        data = bytearray(path.read_bytes())
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))

    def test_mid_journal_flip_is_not_mistaken_for_a_crash_tail(self, tmp_path):
        # Small segments force a multi-segment journal; damage an early
        # segment so intact newer segments exist after it.
        _fabricate(tmp_path / "s", windows=8, segment_max=256)
        segments = sorted((tmp_path / "s").glob("journal-*.wal"))
        assert len(segments) >= 3
        self._flip(segments[0], segments[0].stat().st_size // 2)
        report = fsck_session_dir(tmp_path / "s")
        assert not report["ok"]
        assert any("not a crash tail" in p for p in report["problems"])

    def test_repair_quarantines_damage_and_every_later_segment(self, tmp_path):
        _fabricate(tmp_path / "s", windows=8, segment_max=256)
        session = tmp_path / "s"
        segments = sorted(session.glob("journal-*.wal"))
        victim_bytes = {s.name: s.read_bytes() for s in segments}
        damaged = segments[1]
        self._flip(damaged, damaged.stat().st_size - 10)

        report = fsck_session_dir(session, repair=True)
        assert report["ok"]
        # The damaged segment and everything after it moved aside —
        # replaying past broken continuity would fabricate history.
        expected_gone = [s.name for s in segments[1:]]
        assert sorted(report["quarantined"]) == sorted(expected_gone)
        qdir = session / QUARANTINE_DIRNAME
        for name in expected_gone:
            assert (qdir / name).exists()
        # Quarantine moves, never deletes: the intact later segments
        # are byte-identical, the damaged one carries its flip.
        assert (qdir / segments[2].name).read_bytes() == victim_bytes[segments[2].name]
        assert (qdir / damaged.name).read_bytes() != victim_bytes[damaged.name]
        # The rebuilt checkpoint matches an independent replay of what
        # survived (the acceptance criterion).
        ckpt = json.loads((session / "checkpoint.json").read_text())
        replay = recover_session_dir(session)
        assert ckpt["received"] == replay.received
        assert ckpt["applied"] == replay.applied
        assert ckpt["engine"] == engine_to_dict(replay.engine)
        assert fsck_session_dir(session)["ok"]

    def test_bit_flipped_checkpoint_quarantined_and_rebuilt(self, tmp_path):
        events = _fabricate(tmp_path / "s")
        _write_checkpoint(tmp_path / "s")
        ckpt_path = tmp_path / "s" / "checkpoint.json"
        self._flip(ckpt_path, 0)

        report = fsck_session_dir(tmp_path / "s")
        assert not report["ok"]
        assert any("checkpoint unreadable" in p for p in report["problems"])

        repaired = fsck_session_dir(tmp_path / "s", repair=True)
        assert repaired["ok"]
        assert "checkpoint.json" in repaired["quarantined"]
        assert (tmp_path / "s" / QUARANTINE_DIRNAME / "checkpoint.json").exists()
        rebuilt = json.loads(ckpt_path.read_text())
        assert rebuilt["received"] == events
        replay = recover_session_dir(tmp_path / "s")
        assert rebuilt["engine"] == engine_to_dict(replay.engine)

    def test_checkpoint_naming_wrong_session_is_flagged(self, tmp_path):
        _fabricate(tmp_path / "s")
        state = _write_checkpoint(tmp_path / "s")
        state["session"] = "somebody-else"
        (tmp_path / "s" / "checkpoint.json").write_text(json.dumps(state))
        report = fsck_session_dir(tmp_path / "s")
        assert not report["ok"]
        assert any("names session" in p for p in report["problems"])


class TestRebuiltCheckpoint:
    def test_has_exactly_the_keys_a_session_writes(self, tmp_path):
        from repro.service import StreamingUseCaseEngine
        from repro.service.session import Session

        session = Session(
            "live",
            StreamingUseCaseEngine(),
            journal=SessionJournal(tmp_path / "live"),
            checkpoint_every=4,
        )
        session.register(1, StructureKind.LIST, None, "t")
        session.ingest(0, _raws(8))
        session.abandon()
        written = json.loads((tmp_path / "live" / "checkpoint.json").read_text())

        _fabricate(tmp_path / "s")
        (tmp_path / "s" / "checkpoint.json").write_text("{ not json")
        fsck_session_dir(tmp_path / "s", repair=True)
        rebuilt = json.loads((tmp_path / "s" / "checkpoint.json").read_text())
        assert list(rebuilt) == list(written)
        assert rebuilt["format"] == written["format"]
        assert rebuilt["version"] == CHECKPOINT_VERSION


class TestCursorContinuity:
    def test_gap_between_windows_is_silent_loss(self, tmp_path):
        with SessionJournal(tmp_path / "s") as journal:
            journal.append_events(0, _raws(4))
            journal.append_events(8, _raws(2, 8))  # events 4..8 on no disk
        report = fsck_session_dir(tmp_path / "s")
        assert not report["ok"]
        assert any("cursor gap" in p for p in report["problems"])

    def test_overlap_is_fine(self, tmp_path):
        with SessionJournal(tmp_path / "s") as journal:
            journal.append_events(0, _raws(4))
            journal.append_events(2, _raws(4, 2))  # retransmit overlap
        assert fsck_session_dir(tmp_path / "s")["ok"]

    def test_journal_starting_past_zero_needs_a_checkpoint(self, tmp_path):
        with SessionJournal(tmp_path / "s") as journal:
            journal.append_events(0, _raws(4))
        # Simulate checkpoint-then-prune where the checkpoint vanished.
        with SessionJournal(tmp_path / "t") as journal:
            journal.append_events(4, _raws(4, 4))
        assert fsck_session_dir(tmp_path / "s")["ok"]
        report = fsck_session_dir(tmp_path / "t")
        assert not report["ok"]
        assert any("no checkpoint" in p for p in report["problems"])


class TestStateDirLayouts:
    def test_daemon_layout_checks_every_session(self, tmp_path):
        _fabricate(tmp_path / "sess-a")
        _fabricate(tmp_path / "sess-b")
        report = fsck_state_dir(tmp_path)
        assert report["ok"]
        assert report["checked"] == 2
        assert report["with_problems"] == 0

    def test_bare_session_directory_accepted(self, tmp_path):
        _fabricate(tmp_path / "s")
        report = fsck_state_dir(tmp_path / "s")
        assert report["ok"] and report["checked"] == 1

    def test_misplaced_fleet_session_flagged(self, tmp_path):
        sid = "sess-x"
        wrong = 1 - shard_for(sid, 2)
        _fabricate(tmp_path / shard_dir_name(wrong) / sid)
        _fabricate(tmp_path / shard_dir_name(1 - wrong) / "placeholder-keep")
        report = fsck_state_dir(tmp_path)
        entry = next(s for s in report["sessions"] if s["session"] == sid)
        assert any("hashes to" in p for p in entry["problems"])
        assert not report["ok"]

    def test_shards_override_controls_ownership_width(self, tmp_path):
        sid = "sess-x"
        home = shard_for(sid, 4)
        _fabricate(tmp_path / shard_dir_name(home) / sid)
        assert fsck_state_dir(tmp_path, shards=4)["ok"]

    def test_missing_root_is_a_problem_not_a_crash(self, tmp_path):
        report = fsck_state_dir(tmp_path / "nope")
        assert not report["ok"]
        assert any("not a directory" in p for p in report["problems"])


class TestCli:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "fsck", *argv],
            capture_output=True, text=True, cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )

    def test_clean_dir_exits_zero_with_json_report(self, tmp_path):
        _fabricate(tmp_path / "s")
        proc = self._run(str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)  # stdout is machine-readable
        assert report["ok"] and report["checked"] == 1
        assert "1 session(s)" in proc.stderr

    def test_corruption_exits_one_and_names_the_problem(self, tmp_path):
        _fabricate(tmp_path / "s")
        segment = next((tmp_path / "s").glob("journal-*.wal"))
        with segment.open("ab") as fh:
            fh.write(b"\x02")
        proc = self._run(str(tmp_path))
        assert proc.returncode == 1
        assert "NOT CLEAN" in proc.stderr
        assert "torn tail" in proc.stderr

    def test_repair_flag_fixes_then_exits_zero(self, tmp_path):
        _fabricate(tmp_path / "s")
        segment = next((tmp_path / "s").glob("journal-*.wal"))
        with segment.open("ab") as fh:
            fh.write(b"\x02")
        proc = self._run(str(tmp_path), "--repair")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["repair"] is True
        assert self._run(str(tmp_path)).returncode == 0
