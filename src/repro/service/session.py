"""Per-client session state of the profiling daemon.

A *session* is the server-side life of one instrumented process: its
streaming engine, its resume cursor, and its ingest statistics.  The
session outlives any single TCP connection — a client that loses its
link reconnects with the same session id, the daemon reports how many
events it already accepted (``received``), and the client retransmits
from there; :meth:`Session.ingest` drops the overlap, so a
retransmitted window is never double-counted.

Between the socket and the engine sits an :class:`IngestPipeline`: a
bounded hand-off that decouples frame receipt from event folding.  Its
``overflow`` policy is the daemon's last line of defense when clients
outpace analysis:

``"block"``
    the connection thread waits for the folder — backpressure
    propagates to the client through TCP (lossless).
``"decimate"``
    keep 1-in-``stride`` events and count the rest as ``decimated`` —
    the same graceful degradation the in-process pipeline uses
    (:class:`~repro.events.sampling.Decimate`), trading exactness for
    liveness.
``"spill"``
    append overflow windows to a binary spill file
    (:class:`~repro.events.spill.SpillWriter`) and fold them during the
    next :meth:`~IngestPipeline.flush` — lossless and bounded-RAM, at
    the price of deferred analysis.  Once a window spills, every later
    window spills too until the file is replayed, preserving
    per-instance event order.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from collections import deque
from typing import Any, Callable

from ..events.event import RawEvent
from ..events.profile import site_to_dict
from ..events.spill import RECORD_SIZE, SpillWriter, iter_spill_raw
from ..testing.clock import SYSTEM_CLOCK, Clock
from .durability import checkpoint_state
from .protocol import ProtocolError
from .streaming import StreamingUseCaseEngine


class SessionState:
    """Lifecycle of a session (plain string constants for JSON)."""

    ACTIVE = "active"  # a connection is attached
    DETACHED = "detached"  # connection lost; waiting for resume or reaper
    FINISHED = "finished"  # FIN received or reaper finalized it


class RateMeter:
    """Sliding-window events/sec estimate (for STATS output)."""

    __slots__ = ("_window", "_samples", "_total", "_clock")

    def __init__(self, window: float = 10.0, clock: Clock = SYSTEM_CLOCK) -> None:
        self._window = window
        self._samples: deque[tuple[float, int]] = deque()
        self._total = 0
        self._clock = clock

    def tick(self, n: int) -> None:
        now = self._clock.monotonic()
        self._samples.append((now, n))
        self._total += n
        horizon = now - self._window
        while self._samples and self._samples[0][0] < horizon:
            _, dropped = self._samples.popleft()
            self._total -= dropped

    def rate(self, min_span: float = 0.0) -> float:
        """Events/sec over the window.  ``min_span`` floors the divisor
        so a burst in the first milliseconds of traffic reads as an
        average over at least that long — the admission controller
        passes 1.0 to keep one early window from tripping SHED."""
        if not self._samples:
            return 0.0
        now = self._clock.monotonic()
        horizon = now - self._window
        while self._samples and self._samples[0][0] < horizon:
            _, dropped = self._samples.popleft()
            self._total -= dropped
        if not self._samples:
            return 0.0
        span = max(now - self._samples[0][0], min_span, 1e-9)
        return self._total / span


class IngestPipeline:
    """Bounded hand-off between a receiving thread and a folding worker."""

    def __init__(
        self,
        fold: Callable[[list[RawEvent]], None],
        max_pending_events: int = 200_000,
        overflow: str = "block",
        decimate_stride: int = 10,
        spill_dir: str | None = None,
        block_timeout: float = 30.0,
    ) -> None:
        if overflow not in ("block", "decimate", "spill"):
            raise ValueError(
                f"overflow must be 'block', 'decimate' or 'spill', got {overflow!r}"
            )
        if decimate_stride < 1:
            raise ValueError(f"decimate_stride must be >= 1, got {decimate_stride}")
        self._fold = fold
        self._max_pending = max_pending_events
        self._overflow = overflow
        self._stride = decimate_stride
        self._spill_dir = spill_dir
        self._block_timeout = block_timeout

        self._lock = threading.Lock()
        self._has_work = threading.Condition(self._lock)
        self._has_room = threading.Condition(self._lock)
        self._queue: deque[list[RawEvent]] = deque()
        self._pending = 0
        self._accepted = 0
        self._folded = 0
        self._closing = False

        self.decimated = 0
        self.spilled = 0
        self.spill_corrupt_skipped = 0
        self._decim_counter = 0
        self._spill_writer: SpillWriter | None = None
        self._spill_path: str | None = None
        self._spill_backlog = 0

        self._worker = threading.Thread(
            target=self._run, name="dsspy-ingest-folder", daemon=True
        )
        self._worker.start()

    # -- receiving side --------------------------------------------------

    def submit(self, batch: list[RawEvent]) -> None:
        """Hand one window to the folder, applying the overflow policy."""
        if not batch:
            return
        with self._lock:
            if self._closing:
                raise RuntimeError("ingest pipeline already closed")
            over = self._pending + len(batch) > self._max_pending
            if self._overflow == "spill" and (over or self._spill_backlog):
                self._spill_locked(batch)
                return
            if over and self._overflow == "decimate":
                batch, dropped = self._decimate(batch)
                self.decimated += dropped
                if not batch:
                    return
            elif over:  # block
                deadline = time.monotonic() + self._block_timeout
                while self._pending + len(batch) > self._max_pending:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            "ingest folder did not catch up within "
                            f"{self._block_timeout}s"
                        )
                    self._has_room.wait(remaining)
                    if self._closing:
                        raise RuntimeError("ingest pipeline already closed")
            self._queue.append(batch)
            self._pending += len(batch)
            self._accepted += len(batch)
            self._has_work.notify()

    def _decimate(self, batch: list[RawEvent]) -> tuple[list[RawEvent], int]:
        stride = self._stride
        counter = self._decim_counter
        kept = [raw for i, raw in enumerate(batch, counter) if i % stride == 0]
        self._decim_counter = counter + len(batch)
        return kept, len(batch) - len(kept)

    def _spill_locked(self, batch: list[RawEvent]) -> None:
        if self._spill_writer is None:
            fd, path = tempfile.mkstemp(
                prefix="dsspy-ingest-", suffix=".spill", dir=self._spill_dir
            )
            os.close(fd)
            self._spill_writer = SpillWriter(path)
            self._spill_path = path
        self._spill_writer.write_batch(batch)
        self._spill_backlog += len(batch)
        self.spilled += len(batch)
        self._accepted += len(batch)

    # -- folding side ----------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._closing:
                    self._has_work.wait()
                if not self._queue and self._closing:
                    return
                batch = self._queue.popleft()
            try:
                self._fold(batch)
            finally:
                with self._lock:
                    self._pending -= len(batch)
                    self._folded += len(batch)
                    self._has_room.notify_all()
                    self._has_work.notify_all()  # flush waiters

    def _replay_spill(self) -> None:
        """Fold the spill backlog (receiver must be quiescent or keep
        spilling, which :meth:`submit` guarantees via the backlog flag)."""
        with self._lock:
            writer = self._spill_writer
            if writer is None:
                return
            writer.close()
            path = self._spill_path
            self._spill_writer = None
            self._spill_path = None
            backlog = self._spill_backlog
        def count_skips(n: int) -> None:
            # Surfaced through session STATS ("spill_corrupt_skipped"):
            # a corrupt record dropped here is data loss and must be
            # visible to operators, not just a RuntimeWarning.
            self.spill_corrupt_skipped += n

        window: list[RawEvent] = []
        for raw in iter_spill_raw(path, on_skip=count_skips):
            window.append(raw)
            if len(window) >= 4096:
                self._fold(window)
                self._folded += len(window)
                window = []
        if window:
            self._fold(window)
            self._folded += len(window)
        os.unlink(path)
        with self._lock:
            self._spill_backlog -= backlog

    def flush(self, timeout: float = 30.0) -> None:
        """Block until everything accepted so far has been folded."""
        deadline = time.monotonic() + timeout
        with self._lock:
            while self._queue or self._pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("ingest folder did not drain in time")
                self._has_work.wait(remaining)
        if self._spill_backlog:
            self._replay_spill()

    @property
    def accepted(self) -> int:
        return self._accepted

    @property
    def folded(self) -> int:
        return self._folded

    @property
    def pending(self) -> int:
        with self._lock:
            return self._pending + self._spill_backlog

    def close(self, timeout: float = 30.0) -> None:
        """Flush, then stop the worker thread.  Idempotent."""
        if self._closing and not self._worker.is_alive():
            return
        self.flush(timeout)
        with self._lock:
            self._closing = True
            self._has_work.notify_all()
            self._has_room.notify_all()
        self._worker.join(timeout)

    def abort(self, timeout: float = 5.0) -> None:
        """Stop immediately, discarding queued work.  Used to simulate
        (and clean up after) an abrupt daemon death: whatever was not
        folded is exactly what crash recovery must replay."""
        with self._lock:
            self._closing = True
            self._queue.clear()
            self._pending = 0
            self._has_work.notify_all()
            self._has_room.notify_all()
        self._worker.join(timeout)
        if self._spill_writer is not None:
            self._spill_writer.close()


class Session:
    """One client's engine + resume cursor + statistics.

    With a :class:`~repro.service.durability.SessionJournal` attached,
    every accepted window is journaled *before* the ``received`` cursor
    advances, and two cursors are kept: ``received`` (durably journaled
    and claimable to the client) and ``applied`` (handed to the engine,
    or intentionally decimated).  Their difference is the *deferred*
    backlog of journal-only admission; it is replayed — in journal
    order, preserving per-instance order — as soon as pressure drops,
    and always before the final report.
    """

    def __init__(
        self,
        session_id: str,
        engine: StreamingUseCaseEngine,
        max_pending_events: int = 200_000,
        overflow: str = "block",
        spill_dir: str | None = None,
        clock: Clock = SYSTEM_CLOCK,
        journal=None,
        checkpoint_every: int = 0,
        decimate_stride: int = 10,
        governor=None,
    ) -> None:
        self.session_id = session_id
        self.engine = engine
        self.state = SessionState.ACTIVE
        self.received = 0  # stream-index high-water mark (accepted)
        self.applied = 0  # events handed to the engine path
        self.duplicates = 0
        self.admission_decimated = 0
        self.refused_windows = 0  # windows turned away under resource pressure
        self.forced_checkpoints = 0  # journal-compact rung compactions
        self.recovered = False
        self._governor = governor
        self.last_stage = 0  # AdmissionStage.NORMAL
        #: Wire-protocol version negotiated with the client currently
        #: attached to this session (None until a HELLO negotiates).
        self.proto_version: int | None = None
        self.journal = journal
        #: Set once the owning daemon generation crashed or parked: the
        #: journal and the pipeline are closed, so a connection thread
        #: still holding a frame it read before must not touch them.
        self._closed = False
        self._checkpoint_every = checkpoint_every
        self._last_checkpoint = 0
        self._admission_stride = max(1, decimate_stride)
        self._admission_counter = 0
        self._clock = clock
        self.started_at = clock.wall()
        self.last_seen = clock.monotonic()
        self.detached_at: float | None = None
        self.finished_at: float | None = None
        self.rate = RateMeter(clock=clock)
        self._lock = threading.RLock()
        self._report_dict: dict[str, Any] | None = None
        self.pipeline = IngestPipeline(
            engine.feed_window,
            max_pending_events=max_pending_events,
            overflow=overflow,
            spill_dir=spill_dir,
        )

    @property
    def deferred(self) -> int:
        """Events journaled but not yet analyzed (journal-only stage)."""
        return self.received - self.applied

    # -- ingest ----------------------------------------------------------

    def touch(self) -> None:
        self.last_seen = self._clock.monotonic()

    def _check_open_locked(self) -> None:
        """Refuse work on a session whose daemon generation is gone.
        The ProtocolError ends the connection with an ERROR frame; the
        client's reconnect-and-resume lands on the next generation."""
        if self._closed:
            raise ProtocolError(
                f"session {self.session_id} is closed: its daemon stopped"
            )

    def ingest(
        self, start: int, raws: list[RawEvent], stage: int = 0,
        data: bytes | memoryview | None = None,
    ) -> int:
        """Accept one EVENTS window; returns how many events were new.

        ``start`` is the stream index of the window's first event.  A
        window that begins past the high-water mark means events were
        lost in transit (a client bug — the protocol retransmits from
        ``received``), which is a hard protocol error.  A window that
        begins below it is a retransmission; the overlap is skipped.

        ``stage`` is the admission controller's verdict for this
        window (:class:`~repro.service.durability.AdmissionStage`);
        SHED never reaches here — the daemon refuses the window before
        calling in.  A journal append that fails on a resource error
        (disk full, fd exhaustion) raises
        :class:`~repro.service.governor.ResourcePressure` with the
        cursor untouched: the window is *refused*, never half-accepted,
        and the client's backoff retransmits it — after a best-effort
        compaction attempt to free journal segments.

        ``data`` is ``raws`` as received (packed records); the journal
        stores its fresh part as is instead of packing the window again.
        """
        from .durability import AdmissionStage
        from .governor import ResourcePressure, is_resource_error

        with self._lock:
            self._check_open_locked()
            if self.state == SessionState.FINISHED:
                raise ProtocolError(f"session {self.session_id} already finished")
            if start > self.received:
                raise ProtocolError(
                    f"event gap: window starts at {start} but only "
                    f"{self.received} events were received"
                )
            skip = self.received - start
            if skip >= len(raws):
                self.duplicates += len(raws)
                return 0
            fresh = raws[skip:] if skip else raws
            self.duplicates += skip
            # Durability barrier: the journal append happens before the
            # cursor moves, so a cursor the client ever observes only
            # covers events that survive a daemon death.
            if self.journal is not None:
                try:
                    body = None if data is None else data[skip * RECORD_SIZE :]
                    self.journal.append_events(self.received, fresh, body)
                except OSError as exc:
                    if not is_resource_error(exc):
                        raise
                    # The governor was already notified by the journal;
                    # try to reclaim disk, then refuse the window with
                    # full accounting.
                    self._compact_locked(best_effort=True)
                    self.refused_windows += 1
                    if self._governor is not None:
                        self._governor.note_refused()
                    retry = (
                        self._governor.retry_after
                        if self._governor is not None
                        else 2.0
                    )
                    raise ResourcePressure(
                        f"session {self.session_id}: journal append "
                        f"refused under resource pressure ({exc})",
                        retry_after=retry,
                    ) from exc
            self.received += len(fresh)
            self.touch()
            self.rate.tick(len(fresh))
            if self.journal is None and stage >= AdmissionStage.JOURNAL:
                stage = AdmissionStage.DECIMATE  # cannot defer without a journal
            self.last_stage = stage
            if self.journal is not None and (
                stage >= AdmissionStage.JOURNAL or self.applied < self.received - len(fresh)
            ):
                # Journal-only: analysis deferred.  Sticky — once any
                # window is deferred, later windows defer too until the
                # backlog is replayed, preserving per-instance order.
                if stage < AdmissionStage.JOURNAL:
                    self._drain_deferred_locked()
                return len(fresh)
            if stage == AdmissionStage.DECIMATE:
                fresh, dropped = self._admission_decimate(fresh)
                self.admission_decimated += dropped
            # Submit under the session lock: the cursor advance and the
            # hand-off must be atomic or two racing windows could fold
            # out of order.  (The folder never takes this lock, so
            # blocking backpressure cannot deadlock.)
            self.applied = self.received
            if fresh:
                self.pipeline.submit(fresh)
            if stage == AdmissionStage.JOURNAL_COMPACT:
                # Disk-pressure rung: checkpoint *now* — pruning the
                # journal segments behind it is what frees space.
                self._compact_locked()
            else:
                self._maybe_checkpoint_locked()
        return self.received - start - skip

    def _admission_decimate(self, batch: list[RawEvent]) -> tuple[list[RawEvent], int]:
        stride = self._admission_stride
        counter = self._admission_counter
        kept = [raw for i, raw in enumerate(batch, counter) if i % stride == 0]
        self._admission_counter = counter + len(batch)
        return kept, len(batch) - len(kept)

    def _drain_deferred_locked(self) -> None:
        """Replay the journal-only backlog into the pipeline (caller
        holds the lock).  Windows come back in journal append order, so
        per-instance order — the convergence precondition — holds."""
        if self.journal is None or self.applied >= self.received:
            return
        for _start, raws in self.journal.iter_event_windows(self.applied):
            self.pipeline.submit(raws)
            self.applied += len(raws)

    def _maybe_checkpoint_locked(self) -> None:
        """Checkpoint when enough new events accumulated (caller holds
        the lock).  Only sound with no deferred backlog — pruning the
        journal must never delete events the engine has not seen."""
        if (
            self.journal is None
            or self._checkpoint_every <= 0
            or self.applied != self.received
            or self.received - self._last_checkpoint < self._checkpoint_every
        ):
            return
        try:
            # The engine must be quiescent and complete up to `applied`
            # before its state can stand in for the journal prefix.
            self.pipeline.flush(timeout=5.0)
        except TimeoutError:
            return  # folder busy; try again on a later window
        try:
            self.journal.checkpoint(checkpoint_state(self))
        except OSError:
            # Recorded by the journal/governor; the old checkpoint and
            # every segment are intact, so skipping is always safe.
            return
        self._last_checkpoint = self.received

    def _compact_locked(self, best_effort: bool = False) -> None:
        """Force a checkpoint to prune journal segments (caller holds
        the lock).  Only sound when the engine covers every received
        event; a deferred backlog or a busy folder skips silently —
        compaction is pressure relief, not a correctness step."""
        if (
            self.journal is None
            or self.applied != self.received
            or self.received == self._last_checkpoint
        ):
            return
        try:
            self.pipeline.flush(timeout=1.0 if best_effort else 5.0)
            self.journal.checkpoint(checkpoint_state(self))
        except (TimeoutError, OSError):
            return
        self._last_checkpoint = self.received
        self.forced_checkpoints += 1
        if self._governor is not None:
            self._governor.note_compaction()

    def compact(self) -> bool:
        """Force a checkpoint to shrink the on-disk journal; the
        daemon's state-budget enforcement calls this on the fattest
        sessions first.  Returns whether a checkpoint was written."""
        with self._lock:
            before = self.forced_checkpoints
            self._compact_locked()
            return self.forced_checkpoints > before

    def journal_bytes(self) -> int:
        """On-disk footprint of this session's journal (0 without one)."""
        journal = self.journal
        return journal.size_bytes() if journal is not None else 0

    def register(self, instance_id: int, kind, site, label) -> None:
        with self._lock:
            self._check_open_locked()
            if self.journal is not None:
                self.journal.append_register(
                    [
                        {
                            "id": instance_id,
                            "kind": kind.value,
                            "site": site_to_dict(site),
                            "label": label,
                        }
                    ]
                )
            self.engine.register_instance(instance_id, kind, site=site, label=label)
            self.touch()

    # -- lifecycle -------------------------------------------------------

    def detach(self) -> None:
        with self._lock:
            if self.state == SessionState.ACTIVE:
                self.state = SessionState.DETACHED
                self.detached_at = self._clock.monotonic()

    def resume(self) -> bool:
        """Reattach a connection; ``True`` if this was a resume."""
        with self._lock:
            if self.state == SessionState.FINISHED:
                raise ProtocolError(f"session {self.session_id} already finished")
            resumed = self.state == SessionState.DETACHED
            self.state = SessionState.ACTIVE
            self.detached_at = None
            self.touch()
            return resumed

    def finish(self) -> dict[str, Any]:
        """Flush the pipeline, freeze the final report, return it as a
        JSON-ready dict.  Idempotent — a second FIN gets the same
        report.  Any journal-only backlog is replayed first: the final
        report always covers every received event."""
        from ..usecases.json_export import report_to_dict

        with self._lock:
            if self._report_dict is None:
                self._check_open_locked()
                self._drain_deferred_locked()
                self.pipeline.close()
                self._report_dict = report_to_dict(self.engine.report())
                self.state = SessionState.FINISHED
                self.finished_at = self._clock.monotonic()
                if self.journal is not None:
                    try:
                        self.journal.append_fin()
                    except OSError:
                        # Every event the report covers is already
                        # journaled; the FIN marker only lets recovery
                        # skip the replay-and-report step.  A full disk
                        # here must not turn a finished session into an
                        # unackable retry loop — the journal already
                        # classified the failure with the governor.
                        pass
                    self.journal.close()
            return self._report_dict

    def abandon(self) -> None:
        """Tear down without flushing or reporting — the session is
        dying with its daemon (a real or simulated crash).  Whatever
        the pipeline had not folded stays only in the journal, which
        is exactly what recovery replays."""
        with self._lock:
            self._closed = True
            self.pipeline.abort()
            if self.journal is not None:
                self.journal.close()

    def park(self) -> None:
        """Quiesce for a rolling upgrade: drain the deferred backlog,
        flush the pipeline, write a final checkpoint under the same
        barrier discipline as :meth:`_maybe_checkpoint_locked`, and
        close the journal *without* deleting it.  The next daemon
        generation resumes from the checkpoint (plus any journal tail)
        with the exact ``received`` cursor, so clients reconnecting
        after the upgrade retransmit nothing they do not have to.

        Best-effort by design: a flush timeout or a failing disk skips
        the checkpoint — the journal already holds every accepted
        window, so recovery replays instead of resuming, trading
        restart latency for zero loss."""
        with self._lock:
            if self.state == SessionState.FINISHED:
                # Report already frozen (and FIN journaled); finish()
                # closed the journal. Nothing to quiesce.
                return
            try:
                self._drain_deferred_locked()
                self.pipeline.close()
                if self.journal is not None:
                    self.journal.checkpoint(checkpoint_state(self))
            except (OSError, TimeoutError):
                self.pipeline.abort()
            finally:
                self._closed = True
                if self.journal is not None:
                    self.journal.close()
                self.state = SessionState.DETACHED
                self.detached_at = self._clock.monotonic()

    def delete_journal(self) -> None:
        """Remove the session's on-disk journal (eviction/cleanup)."""
        if self.journal is not None:
            self.journal.delete()

    def snapshot(self, flush_timeout: float = 5.0) -> dict[str, Any]:
        """Serialized engine state + cursors, for fleet-wide merging.

        The engine must be quiescent while it is serialized, so the
        deferred backlog is drained and the pipeline flushed first
        (holding the session lock keeps new windows out, exactly as
        :meth:`_maybe_checkpoint_locked` does).  Raises
        :class:`TimeoutError` when the folder cannot drain in time —
        the coordinator retries on its next merge pass rather than
        reading a torn engine.
        """
        from .durability import engine_to_dict

        with self._lock:
            if self.state != SessionState.FINISHED:
                self._drain_deferred_locked()
                self.pipeline.flush(timeout=flush_timeout)
            return {
                "session": self.session_id,
                "state": self.state,
                "received": self.received,
                "applied": self.applied,
                "engine": engine_to_dict(self.engine),
            }

    # -- observability ---------------------------------------------------

    def stats(self) -> dict[str, Any]:
        from .durability import AdmissionStage

        with self._lock:
            engine = self.engine
            return {
                "session": self.session_id,
                "state": self.state,
                "received": self.received,
                "folded": engine.events_folded,
                "pending": self.pipeline.pending,
                "duplicates": self.duplicates,
                "decimated": self.pipeline.decimated + self.admission_decimated,
                "spilled": self.pipeline.spilled,
                "spill_corrupt_skipped": self.pipeline.spill_corrupt_skipped,
                "refused_windows": self.refused_windows,
                "forced_checkpoints": self.forced_checkpoints,
                "append_failures": (
                    self.journal.append_failures if self.journal is not None else 0
                ),
                "dropped_unknown_instance": engine.unknown_instance_events,
                "instances": engine.instances_analyzed,
                "events_per_sec": round(self.rate.rate(), 1),
                "deferred": self.deferred,
                "checkpoints": (
                    self.journal.checkpoints if self.journal is not None else 0
                ),
                "journaled": self.journal is not None,
                "recovered": self.recovered,
                "proto": self.proto_version,
                "pressure": AdmissionStage.name(
                    self._governor.pressure_stage()
                    if self._governor is not None
                    else 0
                ),
                "stage": AdmissionStage.name(self.last_stage),
                "flagged": {
                    str(iid): kinds for iid, kinds in engine.flagged_kinds().items()
                },
            }
