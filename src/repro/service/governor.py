"""Admission and resource governance for the profiling service.

Durability made the daemon honest about *crashes*; this module makes it
honest about overload and about the slower disasters a production host
actually delivers: a filesystem that fills up mid-journal-append, a
process that runs out of file descriptors, a disk that starts returning
EIO.  Every EVENTS window's verdict comes from here.

**The filesystem seam.**  Every on-disk write the durability layer
performs — journal appends, checkpoint renames, result-cache entries —
goes through an injectable :class:`RealFS` object instead of calling
:mod:`os` directly.  Production uses the passthrough default; tests
substitute :class:`~repro.testing.faults.FaultFS`, which duck-types the
same surface with a seeded fault schedule (ENOSPC after N bytes, EIO
on read, slow fsync), so every failure branch below is deterministically
reachable.

**The governor.**  :class:`ResourceGovernor` gives each window one
:class:`AdmissionStage`, the worse of two ladders.

The *rate* ladder compares global and per-session event rates
(sliding-window :class:`RateMeter`) with their quotas.  From
:data:`JOURNAL_AT` times quota a journaled session journals the window
without analyzing it (exact: recovery or FIN replays the backlog); a
session without a journal folds it at once, since TCP already paces
its client.  From :data:`SHED_AT` times quota the window is refused
with a RETRY-AFTER reply, and so is every new HELLO.

The *pressure* ladder classifies caught ``OSError``\\ s
(:data:`RESOURCE_ERRNOS`), counts them per operation site, and converts
sustained pressure into a stage:

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

Every count the governor keeps is surfaced in the daemon's STATS reply
(:meth:`ResourceGovernor.admission_stats`) — silent degradation is the
one failure mode this module exists to kill.
"""

from __future__ import annotations

import errno
import os
import threading
from collections import deque
from pathlib import Path
from typing import IO, Any

from ..testing.clock import SYSTEM_CLOCK, Clock

class AdmissionStage:
    """Ladder positions (ints: comparisons are ordering).

    ``JOURNAL_COMPACT`` is the disk-pressure rung: ingest continues at
    full fidelity but every window force-checkpoints the session,
    which prunes journal segments — the one ladder step that *frees*
    resources instead of consuming fewer.  Rate overload never selects
    it; only resource failures do.
    """

    NORMAL = 0
    JOURNAL_COMPACT = 1
    JOURNAL = 2
    SHED = 3

    _NAMES = ("normal", "journal-compact", "journal", "shed")

    @classmethod
    def name(cls, stage: int) -> str:
        if 0 <= stage < len(cls._NAMES):
            return cls._NAMES[stage]
        return f"unknown({stage})"


#: Rate-ladder thresholds, in multiples of quota: from ``JOURNAL_AT`` a
#: journaled session defers analysis, from ``SHED_AT`` windows and new
#: HELLOs are refused with RETRY-AFTER.
JOURNAL_AT = 1.0
SHED_AT = 4.0


class RateMeter:
    """Sliding-window events/sec estimate."""

    __slots__ = ("_window", "_samples", "_total", "_clock")

    def __init__(self, window: float = 10.0, clock: Clock = SYSTEM_CLOCK) -> None:
        self._window = window
        self._samples: deque[tuple[float, int]] = deque()
        self._total = 0
        self._clock = clock

    def _expire(self, now: float) -> None:
        horizon = now - self._window
        while self._samples and self._samples[0][0] < horizon:
            _, dropped = self._samples.popleft()
            self._total -= dropped

    def tick(self, n: int) -> None:
        now = self._clock.monotonic()
        self._samples.append((now, n))
        self._total += n
        self._expire(now)

    def rate(self, min_span: float = 0.0) -> float:
        """Events/sec over the window.  ``min_span`` floors the divisor
        so a burst in the first milliseconds of traffic reads as an
        average over at least that long — the governor passes 1.0 to
        keep one early window from tripping SHED."""
        now = self._clock.monotonic()
        self._expire(now)
        if not self._samples:
            return 0.0
        span = max(now - self._samples[0][0], min_span, 1e-9)
        return self._total / span


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
    """Give each window its admission verdict: rate quotas and
    resource pressure.

    Thread-safe under one lock; one instance per daemon (shared by
    every session and its journal).  ``escalate_after`` failures at one
    pressure rung step to the next; ``cooldown`` clean seconds step back
    down one rung at a time.  Rates are measured with ``min_span=1.0``
    so a single early burst is averaged over at least a second instead
    of tripping SHED from the first millisecond of traffic.
    """

    def __init__(
        self,
        *,
        fs: RealFS | None = None,
        state_budget_bytes: int | None = None,
        global_events_per_sec: float | None = None,
        session_events_per_sec: float | None = None,
        escalate_after: int = 3,
        cooldown: float = 5.0,
        retry_after: float = 2.0,
        clock: Clock = SYSTEM_CLOCK,
    ) -> None:
        if state_budget_bytes is not None and state_budget_bytes <= 0:
            raise ValueError(
                f"state_budget_bytes must be positive, got {state_budget_bytes}"
            )
        for name, quota in (
            ("global_events_per_sec", global_events_per_sec),
            ("session_events_per_sec", session_events_per_sec),
        ):
            if quota is not None and quota <= 0:
                raise ValueError(f"{name} must be positive, got {quota}")
        self.fs = fs if fs is not None else REAL_FS
        self.state_budget_bytes = state_budget_bytes
        self.global_quota = global_events_per_sec
        self.session_quota = session_events_per_sec
        self.escalate_after = escalate_after
        self.cooldown = cooldown
        self.retry_after = retry_after
        self._clock = clock
        self._lock = threading.Lock()
        self._global_rate = RateMeter(clock=clock)
        self._level = AdmissionStage.NORMAL  # the pressure ladder's rung
        self._failures_at_level = 0
        self._last_failure: float | None = None
        self.windows_by_stage = [0] * len(AdmissionStage._NAMES)
        self.refused_hellos = 0
        self.failures_by_errno: dict[str, int] = {}
        self.failures_by_op: dict[str, int] = {}
        self.compactions = 0
        self.budget_overruns = 0
        self.budget_evictions = 0
        self.refused_windows = 0
        self.state_bytes = 0  # last measured state-dir usage

    # -- admission --------------------------------------------------------

    def _stage_locked(self, session_rate: float) -> int:
        """The worse of the rate and pressure ladders (caller holds the
        lock)."""
        load = 0.0
        if self.global_quota:
            load = self._global_rate.rate(min_span=1.0) / self.global_quota
        if self.session_quota:
            load = max(load, session_rate / self.session_quota)
        if load >= SHED_AT:
            rate_stage = AdmissionStage.SHED
        elif load >= JOURNAL_AT:
            rate_stage = AdmissionStage.JOURNAL
        else:
            rate_stage = AdmissionStage.NORMAL
        return max(rate_stage, self._decayed_level())

    def admit(self, session, n: int) -> int:
        """Account ``n`` incoming events and return the stage to apply.

        ``session`` supplies its own :class:`RateMeter` (``.rate``);
        the governor owns the global one."""
        session_rate = session.rate.rate(min_span=1.0)
        with self._lock:
            self._global_rate.tick(n)
            stage = self._stage_locked(session_rate)
            self.windows_by_stage[stage] += 1
            return stage

    def peek(self) -> int:
        """Current global stage without accounting anything (used to
        turn away a HELLO while shedding)."""
        with self._lock:
            return self._stage_locked(0.0)

    def note_hello_refused(self) -> None:
        """Account one HELLO turned away while shedding — part of the
        no-silent-loss ledger: every RETRY-AFTER the daemon ever sends
        must be visible in some counter."""
        with self._lock:
            self.refused_hellos += 1

    # -- failure intake ---------------------------------------------------

    def record_failure(self, op: str, exc: OSError) -> None:
        """Account one resource failure at operation site ``op`` and
        step the pressure ladder if it keeps happening."""
        name = errno.errorcode.get(exc.errno or 0, str(exc.errno))
        with self._lock:
            self.failures_by_errno[name] = self.failures_by_errno.get(name, 0) + 1
            self.failures_by_op[op] = self.failures_by_op.get(op, 0) + 1
            self._last_failure = self._clock.monotonic()
            if self._level == AdmissionStage.NORMAL:
                self._level = AdmissionStage.JOURNAL_COMPACT
                self._failures_at_level = 0
            else:
                self._failures_at_level += 1
                if (
                    self._failures_at_level >= self.escalate_after
                    and self._level < AdmissionStage.SHED
                ):
                    self._level += 1
                    self._failures_at_level = 0

    def note_compaction(self) -> None:
        with self._lock:
            self.compactions += 1

    def note_refused(self) -> None:
        with self._lock:
            self.refused_windows += 1

    def force_pressure(self, stage: int) -> None:
        """Pin the pressure ladder at ``stage`` or above (state-budget
        enforcement uses this when usage stays over cap after
        compaction/eviction)."""
        with self._lock:
            self._level = max(self._level, stage)
            self._last_failure = self._clock.monotonic()

    def _decayed_level(self) -> int:
        """Current pressure stage after cooldown decay (caller holds the
        lock)."""
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
        """The :class:`AdmissionStage` resource pressure currently
        demands."""
        with self._lock:
            return self._decayed_level()

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
        """The resource ledger (STATS ``admission.governor``)."""
        with self._lock:
            return {
                "pressure_stage": AdmissionStage.name(self._decayed_level()),
                "failures_by_errno": dict(self.failures_by_errno),
                "failures_by_op": dict(self.failures_by_op),
                "compactions": self.compactions,
                "refused_windows": self.refused_windows,
                "state_bytes": self.state_bytes,
                "state_budget_bytes": self.state_budget_bytes,
                "budget_overruns": self.budget_overruns,
                "budget_evictions": self.budget_evictions,
            }

    def admission_stats(self) -> dict[str, Any]:
        """The daemon's STATS ``admission`` block: the rate ladder's
        counters with the resource ledger nested under ``governor``."""
        governor = self.stats()
        with self._lock:
            return {
                "global_events_per_sec": round(self._global_rate.rate(min_span=1.0), 1),
                "global_quota": self.global_quota,
                "session_quota": self.session_quota,
                "stage": AdmissionStage.name(self._stage_locked(0.0)),
                "windows_by_stage": {
                    AdmissionStage.name(stage): n
                    for stage, n in enumerate(self.windows_by_stage)
                },
                "refused_hellos": self.refused_hellos,
                "governor": governor,
            }


__all__ = [
    "AdmissionStage",
    "JOURNAL_AT",
    "REAL_FS",
    "RESOURCE_ERRNOS",
    "RateMeter",
    "RealFS",
    "ResourceGovernor",
    "ResourcePressure",
    "SHED_AT",
    "is_resource_error",
]
