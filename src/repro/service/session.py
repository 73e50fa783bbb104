"""Per-client session state of the profiling daemon.

A *session* is the server-side life of one instrumented process: its
streaming engine, its resume cursor, and its ingest statistics.  The
session outlives any single TCP connection — a client that loses its
link reconnects with the same session id, the daemon reports how many
events it already accepted (``received``), and the client retransmits
from there; :meth:`Session.ingest` drops the overlap, so a
retransmitted window is never double-counted.

Each EVENTS window is folded into the engine on the connection thread
that read it, under the session lock that orders windows.  Backpressure
is TCP: the thread reads its next frame only after the fold returns,
so a client that outpaces analysis fills the kernel socket buffers and
blocks in ``send``.  The only degradation is the daemon's admission
ladder (:class:`~repro.service.governor.AdmissionStage`):
journal-compact, journal-only deferral, shed.  Every stage keeps the
final report exact.
"""

from __future__ import annotations

import threading
from typing import Any

from ..events.event import RawEvent
from ..events.profile import site_to_dict
from ..events.spill import RECORD_SIZE
from ..testing.clock import SYSTEM_CLOCK, Clock
from .durability import checkpoint_state
from .governor import AdmissionStage, RateMeter, ResourcePressure, is_resource_error
from .protocol import ProtocolError
from .streaming import StreamingUseCaseEngine


class SessionState:
    """Lifecycle of a session (plain string constants for JSON)."""

    ACTIVE = "active"  # a connection is attached
    DETACHED = "detached"  # connection lost; waiting for resume or reaper
    FINISHED = "finished"  # FIN received or reaper finalized it


class IngestPipeline:
    """Retired.  Windows fold on the connection thread, in
    :meth:`Session.ingest`; nothing constructs this class or calls
    :meth:`submit`.  The name stays only because the end-to-end
    benchmark's span tracer (``benchmarks/e2e/trace``) wraps
    ``IngestPipeline.submit`` by name when this module loads, and fails
    on a missing target; its ``session.submit_wait_s`` layer now reads
    0.  Delete both with that tracer target."""

    def submit(self, batch: list[RawEvent]) -> None:
        raise NotImplementedError("windows fold in Session.ingest")


class Session:
    """One client's engine + resume cursor + statistics.

    With a :class:`~repro.service.durability.SessionJournal` attached,
    every accepted window is journaled *before* the ``received`` cursor
    advances, and two cursors are kept: ``received`` (durably journaled
    and claimable to the client) and ``applied`` (handed to the
    engine).  Their difference is the *deferred* backlog of
    journal-only admission; it is replayed — in journal order,
    preserving per-instance order — as soon as pressure drops, and
    always before the final report.
    """

    def __init__(
        self,
        session_id: str,
        engine: StreamingUseCaseEngine,
        clock: Clock = SYSTEM_CLOCK,
        journal=None,
        checkpoint_every: int = 0,
        governor=None,
    ) -> None:
        self.session_id = session_id
        self.engine = engine
        self.state = SessionState.ACTIVE
        self.received = 0  # stream-index high-water mark (accepted)
        self.applied = 0  # events handed to the engine path
        self.duplicates = 0
        self.refused_windows = 0  # windows turned away under resource pressure
        self.forced_checkpoints = 0  # journal-compact rung compactions
        self.recovered = False
        self._governor = governor
        self.last_stage = AdmissionStage.NORMAL
        #: Wire-protocol version negotiated with the client currently
        #: attached to this session (None until a HELLO negotiates).
        self.proto_version: int | None = None
        self.journal = journal
        #: Set once the owning daemon generation crashed or parked: the
        #: journal is closed, so a connection thread still holding a
        #: frame it read before must not touch it.
        self._closed = False
        self._checkpoint_every = checkpoint_every
        self._last_checkpoint = 0
        self._clock = clock
        self.started_at = clock.wall()
        self.last_seen = clock.monotonic()
        self.detached_at: float | None = None
        self.finished_at: float | None = None
        self.rate = RateMeter(clock=clock)
        self._lock = threading.RLock()
        self._report_dict: dict[str, Any] | None = None

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

        ``stage`` is the governor's verdict for this window
        (:class:`~repro.service.governor.AdmissionStage`); SHED never
        reaches here — the daemon refuses the window before calling in.
        A session without a journal cannot defer, so it folds every
        window at once.  A journal append that fails on a resource error
        (disk full, fd exhaustion) raises
        :class:`~repro.service.governor.ResourcePressure` with the
        cursor untouched: the window is *refused*, never half-accepted,
        and the client's backoff retransmits it — after a best-effort
        compaction attempt to free journal segments.

        ``data`` is ``raws`` as received (packed records); the journal
        stores its fresh part as is instead of packing the window again.
        """
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
                    self._compact_locked()
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
            if self.journal is None:
                stage = AdmissionStage.NORMAL  # nothing to defer to or compact
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
            # Fold under the session lock: the cursor advance and the
            # fold must be atomic or two racing windows could fold out
            # of order.
            self.applied = self.received
            self.engine.feed_window(fresh)
            if stage == AdmissionStage.JOURNAL_COMPACT:
                # Disk-pressure rung: checkpoint *now* — pruning the
                # journal segments behind it is what frees space.
                self._compact_locked()
            else:
                self._maybe_checkpoint_locked()
        return self.received - start - skip

    def _drain_deferred_locked(self) -> None:
        """Fold the journal-only backlog (caller holds the lock).
        Windows come back in journal append order, so per-instance
        order — the convergence precondition — holds."""
        if self.journal is None or self.applied >= self.received:
            return
        for _start, raws in self.journal.iter_event_windows(self.applied):
            self.engine.feed_window(raws)
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
            self.journal.checkpoint(checkpoint_state(self))
        except OSError:
            # Recorded by the journal/governor; the old checkpoint and
            # every segment are intact, so skipping is always safe.
            return
        self._last_checkpoint = self.received

    def _compact_locked(self) -> None:
        """Force a checkpoint to prune journal segments (caller holds
        the lock).  Only sound when the engine covers every received
        event; a deferred backlog or a failing disk skips silently —
        compaction is pressure relief, not a correctness step."""
        if (
            self.journal is None
            or self.applied != self.received
            or self.received == self._last_checkpoint
        ):
            return
        try:
            self.journal.checkpoint(checkpoint_state(self))
        except OSError:
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
        """Freeze the final report and return it as a JSON-ready dict.
        Idempotent — a second FIN gets the same report.  Any
        journal-only backlog is replayed first: the final report always
        covers every received event."""
        from ..usecases.json_export import report_to_dict

        with self._lock:
            if self._report_dict is None:
                self._check_open_locked()
                self._drain_deferred_locked()
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
        """Tear down without reporting — the session is dying with its
        daemon (a real or simulated crash).  Recovery replays the
        journal."""
        with self._lock:
            self._closed = True
            if self.journal is not None:
                self.journal.close()

    def park(self) -> None:
        """Quiesce for a rolling upgrade: drain the deferred backlog,
        write a final checkpoint under the same barrier discipline as
        :meth:`_maybe_checkpoint_locked`, and close the journal
        *without* deleting it.  The next daemon
        generation resumes from the checkpoint (plus any journal tail)
        with the exact ``received`` cursor, so clients reconnecting
        after the upgrade retransmit nothing they do not have to.

        Best-effort by design: a failing disk skips the checkpoint —
        the journal already holds every accepted window, so recovery
        replays instead of resuming, trading restart latency for zero
        loss."""
        with self._lock:
            if self.state == SessionState.FINISHED:
                # Report already frozen (and FIN journaled); finish()
                # closed the journal. Nothing to quiesce.
                return
            try:
                self._drain_deferred_locked()
                if self.journal is not None:
                    self.journal.checkpoint(checkpoint_state(self))
            except OSError:
                pass
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

    def snapshot(self) -> dict[str, Any]:
        """Serialized engine state + cursors, for fleet-wide merging.

        The deferred backlog is folded first, so the snapshot covers
        every received event; holding the session lock keeps new
        windows out while the engine is serialized.
        """
        from .durability import engine_to_dict

        with self._lock:
            if self.state != SessionState.FINISHED:
                self._drain_deferred_locked()
            return {
                "session": self.session_id,
                "state": self.state,
                "received": self.received,
                "applied": self.applied,
                "engine": engine_to_dict(self.engine),
            }

    # -- observability ---------------------------------------------------

    def stats(self) -> dict[str, Any]:
        with self._lock:
            engine = self.engine
            return {
                "session": self.session_id,
                "state": self.state,
                "received": self.received,
                "folded": engine.events_folded,
                "duplicates": self.duplicates,
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
                    else AdmissionStage.NORMAL
                ),
                "stage": AdmissionStage.name(self.last_stage),
                "flagged": {
                    str(iid): kinds for iid, kinds in engine.flagged_kinds().items()
                },
            }
