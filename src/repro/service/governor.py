"""Resource-exhaustion governance for the profiling service.

Durability (PR 4) made the daemon honest about *crashes*; this module
makes it honest about the slower disasters a production host actually
delivers: a filesystem that fills up mid-journal-append, a process
that runs out of file descriptors, a disk that starts returning EIO.
Two pieces cooperate:

**The filesystem seam.**  Every on-disk write the durability layer
performs — journal appends, checkpoint renames, result-cache entries —
goes through an injectable :class:`RealFS` object instead of calling
:mod:`os` directly.  Production uses the passthrough default; tests
substitute :class:`~repro.testing.faults.FaultFS`, which duck-types the
same surface with a seeded fault schedule (ENOSPC after N bytes, EIO
on read, slow fsync), so every failure branch below is deterministically
reachable.

**The governor.**  :class:`ResourceGovernor` classifies caught
``OSError``\\ s (:data:`RESOURCE_ERRNOS`), counts them per operation
site, and converts sustained pressure into an admission-ladder stage:

- first failures put the governor at ``journal-compact`` — the session
  layer reacts by force-checkpointing, which prunes journal segments
  and is the one disk operation that *frees* space;
- pressure that survives compaction escalates to ``journal-only``
  (analysis deferred, RAM released, durable appends still attempted);
- persistent failure escalates to ``shed`` — windows are refused with
  RETRY-AFTER *before* any disk write, so nothing is half-journaled.

Failures decay: after :attr:`ResourceGovernor.cooldown` seconds
(governor clock) without a new failure the ladder steps back down, so
an operator who frees disk space gets a recovering daemon without a
restart.  The governor also owns the ``--state-budget`` accounting: a
byte cap over the whole state directory that the daemon enforces with
per-session retention (compact the biggest journals first, then evict
finished sessions, then apply ladder pressure).

Every count the governor keeps is surfaced through ``stats()`` into
the daemon's STATS reply — silent degradation is the one failure mode
this module exists to kill.
"""

from __future__ import annotations

import errno
import os
import threading
from pathlib import Path
from typing import IO, Any

from ..testing.clock import SYSTEM_CLOCK, Clock

#: errnos treated as *resource exhaustion* (recoverable by shedding or
#: compaction) rather than bugs: disk full, quota, fd limits, I/O error.
RESOURCE_ERRNOS = frozenset(
    {
        errno.ENOSPC,
        errno.EDQUOT,
        errno.EMFILE,
        errno.ENFILE,
        errno.EIO,
    }
)


def is_resource_error(exc: BaseException) -> bool:
    """Whether ``exc`` is an OSError the governor should absorb."""
    return isinstance(exc, OSError) and exc.errno in RESOURCE_ERRNOS


class RealFS:
    """Passthrough filesystem operations (the production default).

    The durability layer calls these instead of :mod:`os`/:mod:`pathlib`
    directly so a :class:`~repro.testing.faults.FaultFS` can be swapped
    in; the methods are deliberately thin and raise exactly what the
    underlying call raises.
    """

    def open(self, path: str | Path, mode: str = "wb") -> IO[bytes]:
        return Path(path).open(mode)

    def write(self, fh: IO[bytes], data: bytes) -> None:
        """Write + flush: after this returns, the bytes are in the OS
        (a SIGKILL loses nothing; power loss needs :meth:`fsync`)."""
        fh.write(data)
        fh.flush()

    def fsync(self, fh: IO[bytes]) -> None:
        os.fsync(fh.fileno())

    def read_bytes(self, path: str | Path) -> bytes:
        return Path(path).read_bytes()

    def read_text(self, path: str | Path) -> str:
        return Path(path).read_text()

    def write_text(self, path: str | Path, text: str) -> None:
        Path(path).write_text(text)

    def replace(self, src: str | Path, dst: str | Path) -> None:
        os.replace(src, dst)

    def mkdir(self, path: str | Path) -> None:
        Path(path).mkdir(exist_ok=True)

    def unlink(self, path: str | Path) -> None:
        Path(path).unlink(missing_ok=True)

    def size(self, path: str | Path) -> int:
        try:
            return Path(path).stat().st_size
        except OSError:
            return 0

    def tree_bytes(self, root: str | Path) -> int:
        """Total bytes of regular files under ``root`` (state-budget
        accounting; a vanished file mid-walk counts as zero)."""
        total = 0
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in filenames:
                total += self.size(Path(dirpath) / name)
        return total


#: Shared default instance (stateless, so sharing is safe).
REAL_FS = RealFS()


class ResourcePressure(Exception):
    """Raised to refuse a window because a resource failure would make
    accepting it dishonest (the durability barrier could not be kept).
    Carries the cursor the daemon replies with, so the client's
    RETRY-AFTER backoff retransmits from the right place."""

    def __init__(self, message: str, *, retry_after: float = 2.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ResourceGovernor:
    """Classify resource failures and drive the admission ladder.

    Thread-safe; one instance per daemon (shared by every session's
    journal).  ``escalate_after`` failures at one rung step to the
    next; ``cooldown`` clean seconds step back down one rung at a time.
    """

    def __init__(
        self,
        *,
        fs: RealFS | None = None,
        state_budget_bytes: int | None = None,
        escalate_after: int = 3,
        cooldown: float = 5.0,
        retry_after: float = 2.0,
        clock: Clock = SYSTEM_CLOCK,
    ) -> None:
        if state_budget_bytes is not None and state_budget_bytes <= 0:
            raise ValueError(
                f"state_budget_bytes must be positive, got {state_budget_bytes}"
            )
        self.fs = fs if fs is not None else REAL_FS
        self.state_budget_bytes = state_budget_bytes
        self.escalate_after = escalate_after
        self.cooldown = cooldown
        self.retry_after = retry_after
        self._clock = clock
        self._lock = threading.Lock()
        self._level = 0  # 0 normal, 1 compact, 2 journal-only, 3 shed
        self._failures_at_level = 0
        self._last_failure: float | None = None
        self.failures_by_errno: dict[str, int] = {}
        self.failures_by_op: dict[str, int] = {}
        self.compactions = 0
        self.budget_overruns = 0
        self.budget_evictions = 0
        self.refused_windows = 0
        self.state_bytes = 0  # last measured state-dir usage

    # -- failure intake ---------------------------------------------------

    def record_failure(self, op: str, exc: OSError) -> None:
        """Account one resource failure at operation site ``op`` and
        step the pressure ladder if it keeps happening."""
        name = errno.errorcode.get(exc.errno or 0, str(exc.errno))
        with self._lock:
            self.failures_by_errno[name] = self.failures_by_errno.get(name, 0) + 1
            self.failures_by_op[op] = self.failures_by_op.get(op, 0) + 1
            self._last_failure = self._clock.monotonic()
            if self._level == 0:
                self._level = 1
                self._failures_at_level = 0
            else:
                self._failures_at_level += 1
                if self._failures_at_level >= self.escalate_after and self._level < 3:
                    self._level += 1
                    self._failures_at_level = 0

    def note_compaction(self) -> None:
        with self._lock:
            self.compactions += 1

    def note_refused(self) -> None:
        with self._lock:
            self.refused_windows += 1

    def force_pressure(self, level: int) -> None:
        """Pin the ladder at ``level`` (state-budget enforcement uses
        this when usage stays over cap after compaction/eviction)."""
        with self._lock:
            self._level = max(self._level, level)
            self._last_failure = self._clock.monotonic()

    def _decayed_level(self) -> int:
        """Current level after cooldown decay (caller holds the lock)."""
        if self._level and self._last_failure is not None:
            quiet = self._clock.monotonic() - self._last_failure
            steps = int(quiet // self.cooldown)
            if steps:
                self._level = max(0, self._level - steps)
                self._failures_at_level = 0
                if self._level:
                    self._last_failure += steps * self.cooldown
                else:
                    self._last_failure = None
        return self._level

    def pressure_stage(self) -> int:
        """The admission stage this governor currently demands
        (:class:`~repro.service.durability.AdmissionStage` value)."""
        from .durability import AdmissionStage

        with self._lock:
            level = self._decayed_level()
        return {
            0: AdmissionStage.NORMAL,
            1: AdmissionStage.JOURNAL_COMPACT,
            2: AdmissionStage.JOURNAL,
            3: AdmissionStage.SHED,
        }[level]

    # -- state-budget accounting ------------------------------------------

    def measure_state(self, state_dir: str | Path) -> int:
        """Re-measure state-dir usage; returns bytes used."""
        used = self.fs.tree_bytes(state_dir)
        with self._lock:
            self.state_bytes = used
        return used

    def over_budget(self) -> bool:
        return (
            self.state_budget_bytes is not None
            and self.state_bytes > self.state_budget_bytes
        )

    def note_budget_overrun(self) -> None:
        with self._lock:
            self.budget_overruns += 1

    def note_budget_eviction(self, n: int = 1) -> None:
        with self._lock:
            self.budget_evictions += n

    # -- observability ----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        from .durability import AdmissionStage

        stage = self.pressure_stage()
        with self._lock:
            return {
                "pressure_stage": AdmissionStage.name(stage),
                "failures_by_errno": dict(self.failures_by_errno),
                "failures_by_op": dict(self.failures_by_op),
                "compactions": self.compactions,
                "refused_windows": self.refused_windows,
                "state_bytes": self.state_bytes,
                "state_budget_bytes": self.state_budget_bytes,
                "budget_overruns": self.budget_overruns,
                "budget_evictions": self.budget_evictions,
            }


__all__ = [
    "REAL_FS",
    "RESOURCE_ERRNOS",
    "RealFS",
    "ResourceGovernor",
    "ResourcePressure",
    "is_resource_error",
]
