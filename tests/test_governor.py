"""Resource-exhaustion governance: the pressure ladder, the FaultFS
test double it is exercised with, the journal's self-healing append
path, and the acceptance sweep — ENOSPC at *every* byte budget must
leave a state directory that fsck passes and recovery replays with
exact cursor accounting.
"""

from __future__ import annotations

import errno

import pytest

from repro.service.durability import SessionJournal, recover_session_dir
from repro.service.fsck import fsck_session_dir
from repro.service.governor import (
    RESOURCE_ERRNOS,
    AdmissionStage,
    RealFS,
    ResourceGovernor,
    is_resource_error,
)
from repro.testing import SimClock
from repro.testing.faults import FaultFS


def _enospc() -> OSError:
    return OSError(errno.ENOSPC, "disk full")


def _raws(n: int, base: int = 0) -> list:
    return [(1, 0, 0, (base + i) % 4, 4, 0, None) for i in range(n)]


class TestClassification:
    def test_resource_errnos_are_resource_errors(self):
        for code in RESOURCE_ERRNOS:
            assert is_resource_error(OSError(code, "x"))

    def test_other_errors_are_not(self):
        assert not is_resource_error(OSError(errno.EBADF, "x"))
        assert not is_resource_error(ValueError("x"))


class TestPressureLadder:
    def test_starts_normal(self):
        gov = ResourceGovernor(clock=SimClock())
        assert gov.pressure_stage() == AdmissionStage.NORMAL

    def test_first_failure_demands_compaction(self):
        gov = ResourceGovernor(clock=SimClock())
        gov.record_failure("journal-append", _enospc())
        assert gov.pressure_stage() == AdmissionStage.JOURNAL_COMPACT

    def test_sustained_failure_escalates_to_shed_and_stops(self):
        gov = ResourceGovernor(clock=SimClock(), escalate_after=3)
        for _ in range(1 + 3):
            gov.record_failure("journal-append", _enospc())
        assert gov.pressure_stage() == AdmissionStage.JOURNAL
        for _ in range(3):
            gov.record_failure("journal-append", _enospc())
        assert gov.pressure_stage() == AdmissionStage.SHED
        for _ in range(10):  # the ladder has a top rung
            gov.record_failure("journal-append", _enospc())
        assert gov.pressure_stage() == AdmissionStage.SHED

    def test_cooldown_decays_one_rung_at_a_time(self):
        clock = SimClock()
        gov = ResourceGovernor(clock=clock, escalate_after=1, cooldown=5.0)
        for _ in range(4):
            gov.record_failure("checkpoint", _enospc())
        assert gov.pressure_stage() == AdmissionStage.SHED
        clock.advance(5.0)
        assert gov.pressure_stage() == AdmissionStage.JOURNAL
        clock.advance(5.0)
        assert gov.pressure_stage() == AdmissionStage.JOURNAL_COMPACT
        clock.advance(5.0)
        assert gov.pressure_stage() == AdmissionStage.NORMAL

    def test_new_failure_resets_the_quiet_timer(self):
        clock = SimClock()
        gov = ResourceGovernor(clock=clock, escalate_after=1, cooldown=5.0)
        gov.record_failure("journal-append", _enospc())
        clock.advance(4.0)
        gov.record_failure("journal-append", _enospc())
        clock.advance(4.0)  # 8s since first, 4s since last: no decay
        assert gov.pressure_stage() == AdmissionStage.JOURNAL

    def test_force_pressure_never_lowers(self):
        gov = ResourceGovernor(clock=SimClock(), escalate_after=1)
        for _ in range(4):
            gov.record_failure("journal-append", _enospc())
        gov.force_pressure(AdmissionStage.JOURNAL_COMPACT)
        assert gov.pressure_stage() == AdmissionStage.SHED

    def test_stats_surface_every_ledger_counter(self):
        gov = ResourceGovernor(clock=SimClock())
        gov.record_failure("journal-append", _enospc())
        gov.record_failure("checkpoint", OSError(errno.EMFILE, "fds"))
        gov.note_refused()
        gov.note_compaction()
        stats = gov.stats()
        assert stats["pressure_stage"] == "journal-compact"
        assert stats["failures_by_errno"] == {"ENOSPC": 1, "EMFILE": 1}
        assert stats["failures_by_op"] == {"journal-append": 1, "checkpoint": 1}
        assert stats["refused_windows"] == 1
        assert stats["compactions"] == 1
        for key in ("state_bytes", "state_budget_bytes", "budget_overruns",
                    "budget_evictions"):
            assert key in stats

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError, match="state_budget_bytes"):
            ResourceGovernor(state_budget_bytes=0)


class TestStateBudgetAccounting:
    def test_measure_and_over_budget(self, tmp_path):
        (tmp_path / "a.bin").write_bytes(b"x" * 600)
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "b.bin").write_bytes(b"y" * 600)
        gov = ResourceGovernor(state_budget_bytes=1000, clock=SimClock())
        assert gov.measure_state(tmp_path) == 1200
        assert gov.over_budget()
        (tmp_path / "a.bin").unlink()
        gov.measure_state(tmp_path)
        assert not gov.over_budget()

    def test_no_budget_is_never_over(self, tmp_path):
        gov = ResourceGovernor(clock=SimClock())
        gov.measure_state(tmp_path)
        assert not gov.over_budget()


class TestFaultFS:
    def test_duck_types_realfs(self):
        for name in dir(RealFS):
            if not name.startswith("_"):
                assert hasattr(FaultFS, name), name

    def test_enospc_budget_and_relieve(self, tmp_path):
        fs = FaultFS(enospc_after_bytes=10)
        with (tmp_path / "f").open("wb") as fh:
            fs.write(fh, b"x" * 8)
            with pytest.raises(OSError) as ei:
                fs.write(fh, b"y" * 8)
            assert ei.value.errno == errno.ENOSPC
            fs.relieve(100)
            fs.write(fh, b"y" * 8)
            fs.relieve()  # lift entirely
            fs.write(fh, b"z" * 10_000)
        assert fs.writes_failed == 1

    def test_partial_write_lands_prefix_then_fails(self, tmp_path):
        fs = FaultFS(enospc_after_bytes=5, partial_writes=True)
        path = tmp_path / "f"
        with path.open("wb") as fh:
            with pytest.raises(OSError):
                fs.write(fh, b"abcdefgh")
        assert path.read_bytes() == b"abcde"  # the torn-record case

    def test_eio_every_kth_read(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"data")
        fs = FaultFS(eio_every_reads=3)
        fs.read_bytes(path)
        fs.read_bytes(path)
        with pytest.raises(OSError) as ei:
            fs.read_bytes(path)
        assert ei.value.errno == errno.EIO
        fs.read_bytes(path)  # counter-based: next one succeeds

    def test_from_spec_roundtrip(self):
        fs = FaultFS.from_spec("enospc-after=4096,partial,eio-every=7")
        assert fs.enospc_after_bytes == 4096
        assert fs.partial_writes
        assert fs.eio_every_reads == 7

    def test_from_spec_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="no-such-key"):
            FaultFS.from_spec("no-such-key=1")

    def test_from_seed_is_deterministic(self):
        a, b = FaultFS.from_seed(42), FaultFS.from_seed(42)
        assert a.enospc_after_bytes == b.enospc_after_bytes
        assert a.eio_every_reads == b.eio_every_reads
        assert a.fsync_stall_seconds == b.fsync_stall_seconds


class TestJournalUnderPressure:
    def test_failed_append_leaves_no_torn_record(self, tmp_path):
        fs = FaultFS(enospc_after_bytes=400, partial_writes=True)
        gov = ResourceGovernor(fs=fs, clock=SimClock())
        journal = SessionJournal(tmp_path / "s", fs=fs, governor=gov)
        acked = 0
        for i in range(10):
            try:
                journal.append_events(acked, _raws(4, acked))
            except OSError:
                break
            acked += 4
        assert journal.append_failures >= 1
        assert gov.stats()["failures_by_op"].get("journal-append", 0) >= 1
        journal.close()
        # Self-healing truncate: replay sees exactly the acked events,
        # with no torn tail for recovery to complain about.
        recovered = recover_session_dir(tmp_path / "s")
        assert recovered.received == acked
        assert recovered.truncated_bytes == 0

    def test_append_succeeds_again_after_relief(self, tmp_path):
        fs = FaultFS(enospc_after_bytes=300, partial_writes=True)
        journal = SessionJournal(tmp_path / "s", fs=fs)
        acked = 0
        with pytest.raises(OSError):
            while True:
                journal.append_events(acked, _raws(4, acked))
                acked += 4
        fs.relieve()  # the operator freed disk space
        journal.append_events(acked, _raws(4, acked))
        acked += 4
        journal.close()
        assert recover_session_dir(tmp_path / "s").received == acked

    def test_construction_on_full_disk_defers_the_failure(self, tmp_path):
        # Crash-recovery on the very volume that caused the crash: the
        # journal must come up (degraded), not abort session startup.
        fs = FaultFS(enospc_after_bytes=0)
        gov = ResourceGovernor(fs=fs, clock=SimClock())
        journal = SessionJournal(tmp_path / "s", fs=fs, governor=gov)
        assert journal.append_failures == 1
        assert gov.stats()["failures_by_op"] == {"journal-open": 1}
        with pytest.raises(OSError):
            journal.append_events(0, _raws(2))
        fs.relieve()
        journal.append_events(0, _raws(2))
        journal.close()
        assert recover_session_dir(tmp_path / "s").received == 2


class TestEnospcEveryByte:
    """The acceptance sweep: run the disk out of space at every single
    byte budget.  Whatever the journal acked must fsck clean and replay
    to exactly the acked cursor — no budget may produce a state dir
    that is torn, gapped, or lies about what it holds."""

    @pytest.mark.parametrize("partial", [False, True])
    def test_every_budget_leaves_consistent_state(self, tmp_path, partial):
        # Measure the fault-free footprint first so the sweep provably
        # crosses every write boundary.
        probe_dir = tmp_path / "probe"
        probe_fs = FaultFS()
        journal = SessionJournal(probe_dir, fs=probe_fs)
        journal.append_register([{"id": 1, "kind": "list", "site": None,
                                  "label": "t"}])
        for w in range(3):
            journal.append_events(w * 4, _raws(4, w * 4))
        journal.close()
        total = probe_fs.bytes_written
        assert total > 0

        for budget in range(total + 1):
            directory = tmp_path / f"b{budget:05d}"
            fs = FaultFS(enospc_after_bytes=budget, partial_writes=partial)
            journal = SessionJournal(directory, fs=fs)
            acked = 0
            try:
                journal.append_register(
                    [{"id": 1, "kind": "list", "site": None, "label": "t"}]
                )
                for w in range(3):
                    journal.append_events(acked, _raws(4, acked))
                    acked += 4
            except OSError as exc:
                assert exc.errno == errno.ENOSPC
            journal.close()
            if not directory.exists():
                # Budget so small even the segment magic failed; the
                # open was unwound completely.  Nothing was acked.
                assert acked == 0
                continue
            report = fsck_session_dir(directory)
            assert report["ok"], (budget, report["problems"])
            recovered = recover_session_dir(directory)
            assert recovered.received == acked, (budget, partial)
