"""The profiling daemon: many instrumented clients, one analyzer.

:class:`ProfilingDaemon` listens on TCP (or a Unix socket), speaks the
frame protocol of :mod:`~repro.service.protocol`, and keeps one
:class:`~repro.service.session.Session` — engine, cursor, stats — per
client.  Each accepted connection gets its own handler thread, which
folds every EVENTS window it reads before it reads the next frame, so
a client that outpaces analysis is slowed by TCP itself.  Under load
the admission ladder of :mod:`~repro.service.governor`
(journal-compact, journal-only, shed) is the one way the daemon
degrades, and none of its stages changes the final report.  A
background *reaper* enforces the time-based guarantees:

- an ACTIVE session whose client went silent past ``heartbeat_timeout``
  has its connection closed (the session detaches and can resume);
- a DETACHED session past ``session_linger`` is finalized — the daemon
  emits a report for the events it *did* receive, which is what makes
  an abrupt client death non-fatal to the capture;
- a FINISHED session past ``session_linger`` is evicted from memory.

Shutdown is a first-class path, not process teardown: ``SIGTERM`` and
``SIGINT`` (when :meth:`serve_forever` installs handlers) stop the
accept loop, close every live connection, finalize every session
(reports optionally land in ``report_dir``), and remove the Unix
socket file.
"""

from __future__ import annotations

import json
import shutil
import signal
import socket
import stat
import threading
import time
import uuid
from pathlib import Path
from typing import Any

from ..patterns.detector import DetectorConfig
from ..testing.clock import SYSTEM_CLOCK, Clock
from ..usecases.rules import ALL_RULES, Rule
from ..usecases.thresholds import PAPER_THRESHOLDS, Thresholds
from .durability import (
    SessionJournal,
    parse_register_entries,
    recover_session_dir,
    walk_state_dir,
    warn_notes,
)
from .governor import AdmissionStage, RealFS, ResourceGovernor, ResourcePressure
from .protocol import (
    _EVENTS_HEADER,
    PROTOCOL_FEATURES,
    PROTOCOL_MIN_SUPPORTED,
    PROTOCOL_VERSION,
    MessageType,
    ProtocolError,
    decode_events,
    decode_json,
    encode_json,
    negotiate_version,
    parse_version_offer,
    recv_frame,
)
from .session import Session, SessionState
from .streaming import StreamingUseCaseEngine


def _remove_stale_unix_socket(path: Path) -> None:
    """Unlink ``path`` only if it is a dead daemon's leftover socket.

    A crashed daemon (SIGKILL, power loss) cannot remove its socket
    file, so a restart must cope with the leftover — but blindly
    unlinking would hijack a *live* daemon's address or destroy an
    unrelated file.  The probe: a non-socket path is refused outright;
    a socket someone still answers on is an address-in-use error; only
    a socket nobody accepts on (``ECONNREFUSED``) is removed.
    """
    try:
        mode = path.lstat().st_mode
    except FileNotFoundError:
        return
    if not stat.S_ISSOCK(mode):
        raise OSError(
            f"{path} exists and is not a socket; refusing to remove it"
        )
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(1.0)
    try:
        probe.connect(str(path))
    except ConnectionRefusedError:
        path.unlink(missing_ok=True)  # dead socket: safe to reclaim
    except FileNotFoundError:
        pass  # raced away; bind will recreate it
    else:
        raise OSError(f"{path} is in use by a live daemon")
    finally:
        probe.close()


class ProfilingDaemon:
    """Long-running analysis service for remote event streams.

    Parameters
    ----------
    host, port:
        TCP listen address; ``port=0`` picks a free port (see
        :attr:`address`).  Ignored when ``unix_socket`` is given.
    unix_socket:
        Path for an ``AF_UNIX`` listener instead of TCP.
    heartbeat_timeout:
        Seconds of client silence before its connection is closed.
    session_linger:
        Seconds a detached session waits for a resume before being
        finalized, and a finished one stays queryable before eviction.
    report_dir:
        When set, every finalized session writes
        ``<report_dir>/<session>.json``.
    clock:
        Time source for every policy deadline (heartbeat staleness,
        linger windows, reaper cadence, uptime).  Defaults to real
        time; tests pass a :class:`~repro.testing.clock.SimClock` and
        advance it instead of sleeping.  I/O waits (socket reads and
        the close-time connection drain) stay on real time regardless.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_socket: str | Path | None = None,
        *,
        heartbeat_timeout: float = 30.0,
        session_linger: float = 60.0,
        report_dir: str | Path | None = None,
        state_dir: str | Path | None = None,
        checkpoint_every: int = 50_000,
        journal_fsync: bool = False,
        max_events_per_sec: float | None = None,
        session_max_events_per_sec: float | None = None,
        retry_after: float = 2.0,
        state_budget: int | None = None,
        fs: RealFS | None = None,
        thresholds: Thresholds = PAPER_THRESHOLDS,
        detector_config: DetectorConfig | None = None,
        rules: tuple[Rule, ...] = ALL_RULES,
        clock: Clock = SYSTEM_CLOCK,
    ) -> None:
        self.clock = clock
        self.heartbeat_timeout = heartbeat_timeout
        self.session_linger = session_linger
        self._report_dir = Path(report_dir) if report_dir is not None else None
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self._checkpoint_every = checkpoint_every
        self._journal_fsync = journal_fsync
        self._thresholds = thresholds
        self._detector_config = detector_config
        self._rules = rules
        # Admission and resource governance: a quota, a state budget, a
        # fault-injecting fs or a state_dir turns it on (a state_dir so
        # disk failures are always accounted).  Without any of them the
        # daemon runs no ladder at all.
        self._governor: ResourceGovernor | None = None
        if (
            max_events_per_sec is not None
            or session_max_events_per_sec is not None
            or state_budget is not None
            or fs is not None
            or state_dir is not None
        ):
            self._governor = ResourceGovernor(
                fs=fs,
                state_budget_bytes=state_budget,
                global_events_per_sec=max_events_per_sec,
                session_events_per_sec=session_max_events_per_sec,
                retry_after=retry_after,
                clock=clock,
            )
        self._fs = self._governor.fs if self._governor is not None else None

        self.sessions: dict[str, Session] = {}
        self._sessions_lock = threading.Lock()
        #: Live connections, each with an event its handler sets once
        #: it has stopped ingesting and detached its session.
        self._conns: dict[socket.socket, threading.Event] = {}
        #: The connection each session is bound to.
        self._bound: dict[str, socket.socket] = {}
        self._conns_lock = threading.Lock()
        self._closed = False
        self._close_lock = threading.Lock()
        self.started_at = clock.wall()
        self._shutdown = threading.Event()
        self._drain_requested = False
        #: Frames of a type this build does not know, skipped whole
        #: (version-skew tolerance; framing is self-delimiting).
        self.frames_skipped = 0
        self.recovered_sessions: list[str] = []
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            self._recover_state_dir()

        self.unix_socket_path: Path | None = None
        if unix_socket is not None:
            self.unix_socket_path = Path(unix_socket)
            _remove_stale_unix_socket(self.unix_socket_path)
            self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._listener.bind(str(self.unix_socket_path))
            self.host, self.port = None, None
        else:
            self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self.host, self.port = self._listener.getsockname()[:2]
        self._listener.listen(64)

        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="dsspy-daemon-accept", daemon=True
        )
        self._accept_thread.start()
        self._reaper_thread = threading.Thread(
            target=self._reap_loop, name="dsspy-daemon-reaper", daemon=True
        )
        self._reaper_thread.start()

    # -- addresses -------------------------------------------------------

    @property
    def address(self) -> str:
        """Dialable address string (``host:port`` or ``unix:<path>``)."""
        if self.unix_socket_path is not None:
            return f"unix:{self.unix_socket_path}"
        return f"{self.host}:{self.port}"

    @property
    def bound_port(self) -> int | None:
        """The actually-bound TCP port (resolves ``port=0``); ``None``
        for Unix-socket daemons.  Fleet supervisors and tests that ask
        for an ephemeral port read the real one back from here."""
        return self.port

    # -- crash recovery --------------------------------------------------

    def _recover_state_dir(self) -> None:
        """Rebuild every unfinished session found under ``state_dir``.

        Runs before the listener opens, so a resuming client can never
        race a half-rebuilt session.  Directories whose journal carries
        a FIN record belong to cleanly finished sessions — their report
        was already delivered or written — and are deleted, not
        resurrected.
        """
        for directory in walk_state_dir(self.state_dir, nested=False):
            recovered = recover_session_dir(
                directory,
                fs=self._fs,
                thresholds=self._thresholds,
                detector_config=self._detector_config,
                rules=self._rules,
            )
            warn_notes(recovered.session_id, recovered.notes)
            if recovered.finished:
                shutil.rmtree(directory, ignore_errors=True)
                continue
            session = Session(
                recovered.session_id,
                recovered.engine,
                clock=self.clock,
                journal=SessionJournal(
                    directory,
                    fsync=self._journal_fsync,
                    governor=self._governor,
                ),
                checkpoint_every=self._checkpoint_every,
                governor=self._governor,
            )
            session.received = recovered.received
            session.applied = recovered.applied
            session.duplicates = recovered.duplicates
            session.recovered = True
            session.state = SessionState.DETACHED
            session.detached_at = self.clock.monotonic()
            self.sessions[recovered.session_id] = session
            self.recovered_sessions.append(recovered.session_id)

    def _new_journal(self, session_id: str) -> SessionJournal | None:
        if self.state_dir is None:
            return None
        return SessionJournal(
            self.state_dir / session_id,
            fsync=self._journal_fsync,
            governor=self._governor,
        )

    # -- accept / handle -------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            thread = threading.Thread(
                target=self._handle,
                args=(conn,),
                name="dsspy-daemon-conn",
                daemon=True,
            )
            thread.start()

    def _handle(self, conn: socket.socket) -> None:
        done = threading.Event()
        with self._conns_lock:
            self._conns[conn] = done
        session: Session | None = None
        try:
            while True:
                frame = recv_frame(conn)
                if frame is None:
                    break  # clean EOF
                mtype, payload = frame
                if mtype == MessageType.HELLO:
                    session = self._hello(conn, payload)
                    if session is None:
                        break  # shedding load: RETRY_AFTER already sent
                elif mtype == MessageType.STATS:
                    conn.sendall(encode_json(MessageType.ACK, self.stats()))
                elif mtype == MessageType.SNAPSHOT:
                    # Like STATS, allowed before HELLO: the fleet
                    # coordinator is an observer, not a producer.
                    req = decode_json(payload)
                    conn.sendall(
                        encode_json(
                            MessageType.ACK, self.snapshot(req.get("session"))
                        )
                    )
                elif session is None:
                    raise ProtocolError(
                        f"{MessageType.name(mtype)} before HELLO"
                    )
                elif mtype == MessageType.REGISTER:
                    self._register(session, payload)
                elif mtype == MessageType.EVENTS:
                    # validate=True: a corrupted record (torn frame, bad proxy,
                    # bit rot) is rejected with a ProtocolError — tearing down the
                    # connection so the client retransmits the window — rather than
                    # folded into the analysis as garbage.  The journal then stores
                    # the validated record bytes as received (``data`` below).
                    start, raws = decode_events(payload, validate=True)
                    stage = AdmissionStage.NORMAL
                    if self._governor is not None:
                        stage = self._governor.admit(session, len(raws))
                        if stage >= AdmissionStage.SHED:
                            # Refuse the window before it is journaled
                            # or folded; the cursor in the reply tells
                            # the client where to retransmit from once
                            # its backoff delay expires.
                            conn.sendall(
                                encode_json(
                                    MessageType.RETRY_AFTER,
                                    {
                                        "session": session.session_id,
                                        "received": session.received,
                                        "retry_after": self._governor.retry_after,
                                    },
                                )
                            )
                            break
                    try:
                        data = memoryview(payload)[_EVENTS_HEADER.size :]
                        session.ingest(start, raws, stage=stage, data=data)
                    except ResourcePressure as exc:
                        # Disk is refusing the durability barrier; the
                        # window was NOT accepted.  Same contract as
                        # admission shedding — RETRY_AFTER carries the
                        # cursor to retransmit from.
                        conn.sendall(
                            encode_json(
                                MessageType.RETRY_AFTER,
                                {
                                    "session": session.session_id,
                                    "received": session.received,
                                    "retry_after": exc.retry_after,
                                },
                            )
                        )
                        break
                elif mtype == MessageType.HEARTBEAT:
                    session.touch()
                    deferred = session.deferred
                    # JOURNALED instead of ACK tells the client its
                    # events are durable but analysis lags (journal-only
                    # admission); clients treat both as success.
                    conn.sendall(
                        encode_json(
                            MessageType.JOURNALED if deferred else MessageType.ACK,
                            {"session": session.session_id,
                             "received": session.received,
                             "deferred": deferred},
                        )
                    )
                elif mtype == MessageType.FIN:
                    report = session.finish()
                    self._write_report(session)
                    conn.sendall(
                        encode_json(
                            MessageType.ACK,
                            {
                                "session": session.session_id,
                                "received": session.received,
                                "report": report,
                            },
                        )
                    )
                elif mtype in MessageType._NAMES:
                    raise ProtocolError(
                        f"unexpected message type {MessageType.name(mtype)}"
                    )
                else:
                    # A frame type from a newer protocol than this
                    # build speaks.  Framing is self-delimiting, so the
                    # frame has already been consumed whole — skip it
                    # and keep the session alive instead of treating
                    # version skew as corruption.  Counted and surfaced
                    # in STATS so a mixed fleet is diagnosable.
                    self.frames_skipped += 1
        except ProtocolError as exc:
            try:
                conn.sendall(encode_json(MessageType.ERROR, {"error": str(exc)}))
            except OSError:
                pass
        except OSError:
            pass  # abrupt disconnect: fall through to detach
        finally:
            try:
                conn.close()
            except OSError:
                pass
            # Detach before the connection leaves the tables: a HELLO
            # that finds it there waits for ``done``, and must then find
            # the session detached.
            bound = session is not None and self._bound.get(session.session_id) is conn
            if bound:
                session.detach()
            with self._conns_lock:
                self._conns.pop(conn, None)
                if bound:
                    del self._bound[session.session_id]
            done.set()

    def _await_previous_connection(self, session_id: str, conn: socket.socket) -> None:
        """Let the session's previous connection finish before a new
        HELLO reads its cursor.

        A client that reconnects after a broken link usually gets here
        while the old connection's handler is still ingesting the frames
        that reached it, and has not detached the session yet.  The ACK
        would then carry a ``received`` cursor that still moves, and
        ``resumed=False``.  So the HELLO waits for that handler: it ends
        at once when the old peer is gone (it reads the rest, then EOF);
        a connection still open after a second is shut down, and a
        handler that still has not finished refuses the HELLO (the
        client retries), so no session is ever fed by two handlers."""
        with self._conns_lock:
            old = self._bound.get(session_id)
            done = self._conns.get(old)
        if old is conn or done is None:
            return
        if done.wait(1.0):
            return
        try:
            old.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        if not done.wait(5.0):
            raise ProtocolError(f"session {session_id} is still busy on another connection")

    def _hello(self, conn: socket.socket, payload: bytes) -> Session | None:
        obj = decode_json(payload)
        session_id = obj.get("session") or uuid.uuid4().hex[:12]
        if not isinstance(session_id, str):
            raise ProtocolError("HELLO 'session' must be a string")
        peer_min, peer_max, peer_features = parse_version_offer(obj)
        proto = negotiate_version(peer_min, peer_max)
        if proto is None:
            # Disjoint ranges have no safe fallback; a clear refusal
            # beats a half-understood conversation.
            conn.sendall(
                encode_json(
                    MessageType.ERROR,
                    {
                        "error": (
                            f"no common protocol version: client speaks "
                            f"{peer_min}-{peer_max}, server speaks "
                            f"{PROTOCOL_MIN_SUPPORTED}-{PROTOCOL_VERSION}"
                        )
                    },
                )
            )
            return None
        features = sorted(PROTOCOL_FEATURES & peer_features)
        if (
            self._governor is not None
            and self._governor.peek() >= AdmissionStage.SHED
        ):
            self._governor.note_hello_refused()
            conn.sendall(
                encode_json(
                    MessageType.RETRY_AFTER,
                    {"retry_after": self._governor.retry_after},
                )
            )
            return None
        self._await_previous_connection(session_id, conn)
        with self._sessions_lock:
            # crash() and park() set _closed before they take this lock,
            # so a HELLO that passes here is in the table they tear down.
            if self._closed:
                raise ProtocolError("daemon is shutting down")
            session = self.sessions.get(session_id)
            if session is None:
                session = Session(
                    session_id,
                    StreamingUseCaseEngine(
                        thresholds=self._thresholds,
                        detector_config=self._detector_config,
                        rules=self._rules,
                    ),
                    clock=self.clock,
                    journal=self._new_journal(session_id),
                    checkpoint_every=self._checkpoint_every,
                    governor=self._governor,
                )
                self.sessions[session_id] = session
                resumed = False
            else:
                resumed = session.resume()
        session.proto_version = proto
        with self._conns_lock:  # before the ACK, so a reap right after it finds this conn
            self._bound[session_id] = conn
        conn.sendall(
            encode_json(
                MessageType.ACK,
                {
                    "session": session_id,
                    "received": session.received,
                    "resumed": resumed,
                    "recovered": session.recovered,
                    "proto": proto,
                    "proto_min": PROTOCOL_MIN_SUPPORTED,
                    "features": features,
                },
            )
        )
        return session

    def _register(self, session: Session, payload: bytes) -> None:
        obj = decode_json(payload)
        try:
            for instance_id, kind, site, label in parse_register_entries(obj):
                session.register(instance_id, kind, site, label)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc

    # -- reaper ----------------------------------------------------------

    def _reap_loop(self) -> None:
        interval = min(1.0, self.heartbeat_timeout / 4)
        while not self.clock.wait(self._shutdown, interval):
            self.reap()

    def reap(self) -> None:
        """One maintenance pass (also called directly by tests)."""
        now = self.clock.monotonic()
        with self._sessions_lock:
            sessions = list(self.sessions.values())
        stale_ids = set()
        for session in sessions:
            if (
                session.state == SessionState.ACTIVE
                and now - session.last_seen > self.heartbeat_timeout
            ):
                stale_ids.add(session.session_id)
            elif (
                session.state == SessionState.DETACHED
                and session.detached_at is not None
                and now - session.detached_at > self.session_linger
            ):
                session.finish()
                self._write_report(session)
            elif (
                session.state == SessionState.FINISHED
                and session.finished_at is not None
                and now - session.finished_at > self.session_linger
            ):
                with self._sessions_lock:
                    self.sessions.pop(session.session_id, None)
                session.delete_journal()  # report delivered: state is garbage
        if stale_ids:
            with self._conns_lock:
                stale_conns = [
                    conn for sid, conn in self._bound.items() if sid in stale_ids
                ]
            for conn in stale_conns:
                try:  # handler thread unblocks with an OSError and detaches
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        self._enforce_state_budget()

    def _enforce_state_budget(self) -> None:
        """Keep the state directory under ``--state-budget`` bytes.

        Retention runs cheapest-first: force-checkpoint the fattest
        journals (pruning their replayed segments), then evict FINISHED
        sessions oldest-first (their reports are already delivered),
        and only if the directory *still* overflows pin the admission
        ladder at shed so no new bytes land until usage drops.  Every
        action is counted on the governor — an operator reading STATS
        sees exactly what the cap cost."""
        gov = self._governor
        if (
            gov is None
            or gov.state_budget_bytes is None
            or self.state_dir is None
        ):
            return
        if gov.measure_state(self.state_dir) <= gov.state_budget_bytes:
            return
        gov.note_budget_overrun()
        with self._sessions_lock:
            sessions = list(self.sessions.values())
        for session in sorted(sessions, key=lambda s: s.journal_bytes(), reverse=True):
            if session.journal_bytes() == 0:
                break
            session.compact()
            if gov.measure_state(self.state_dir) <= gov.state_budget_bytes:
                return
        finished = [s for s in sessions if s.state == SessionState.FINISHED]
        finished.sort(key=lambda s: s.finished_at or 0.0)
        for session in finished:
            with self._sessions_lock:
                self.sessions.pop(session.session_id, None)
            session.delete_journal()
            gov.note_budget_eviction()
            if gov.measure_state(self.state_dir) <= gov.state_budget_bytes:
                return
        # Nothing left to reclaim: stop the bleeding at admission.
        gov.force_pressure(AdmissionStage.SHED)

    def _write_report(self, session: Session) -> None:
        if self._report_dir is None:
            return
        self._report_dir.mkdir(parents=True, exist_ok=True)
        path = self._report_dir / f"{session.session_id}.json"
        path.write_text(json.dumps(session.finish(), indent=2))

    # -- observability ---------------------------------------------------

    def stats(self) -> dict[str, Any]:
        with self._sessions_lock:
            sessions = list(self.sessions.values())
        from ..buildinfo import build_info

        out = {
            "address": self.address,
            "uptime_sec": round(self.clock.wall() - self.started_at, 1),
            "state_dir": str(self.state_dir) if self.state_dir else None,
            "recovered_sessions": list(self.recovered_sessions),
            "build": build_info(),
            "frames_skipped": self.frames_skipped,
            "sessions": [s.stats() for s in sessions],
        }
        if self._governor is not None:
            out["admission"] = self._governor.admission_stats()
        return out

    def snapshot(self, session_id: str | None = None) -> dict[str, Any]:
        """Serialized engine state of one session (or all of them).

        The payload feeds :meth:`~repro.service.fleet.FleetCoordinator.merge`
        and ``dsspy whatif --address``.
        """
        with self._sessions_lock:
            if session_id is not None:
                found = self.sessions.get(session_id)
                sessions = [found] if found is not None else []
            else:
                sessions = list(self.sessions.values())
        return {
            "address": self.address,
            "snapshots": [session.snapshot() for session in sessions],
        }

    # -- lifecycle -------------------------------------------------------

    def serve_forever(self, install_signals: bool = True) -> None:
        """Block until :meth:`shutdown` or a termination signal."""
        if install_signals:
            try:
                signal.signal(signal.SIGTERM, self.handle_signal)
                signal.signal(signal.SIGINT, self.handle_signal)
                signal.signal(signal.SIGUSR1, self.handle_drain_signal)
            except (ValueError, AttributeError):
                pass  # not the main thread; caller drives shutdown
        try:
            self._shutdown.wait()
        finally:
            if self._drain_requested:
                self.park()
            else:
                self.close()

    def handle_signal(self, signum, frame) -> None:  # noqa: ARG002
        self.shutdown()

    def handle_drain_signal(self, signum, frame) -> None:  # noqa: ARG002
        self.request_drain()

    def shutdown(self) -> None:
        """Request shutdown (signal-safe: just sets an event)."""
        self._shutdown.set()

    def request_drain(self) -> None:
        """Request a journal-preserving exit (signal-safe).

        ``serve_forever`` answers with :meth:`park` instead of
        :meth:`close`: sessions are checkpointed and left on disk for
        the next daemon generation — the exit half of a rolling
        upgrade."""
        self._drain_requested = True
        self._shutdown.set()

    def crash(self) -> None:
        """Die abruptly, as SIGKILL would: no flush, no reports, no
        socket-file cleanup — in-memory state is discarded and only the
        journal survives.  The fault-injection harness uses this to
        test crash recovery in-process; a subsequent daemon constructed
        with the same ``state_dir`` must rebuild every session."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._shutdown.set()
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.close()  # hard close: handler threads die on OSError
            except OSError:
                pass
        self._accept_thread.join(timeout=5.0)
        self._reaper_thread.join(timeout=5.0)
        with self._sessions_lock:
            sessions = list(self.sessions.values())
            self.sessions.clear()
        for session in sessions:
            session.abandon()

    def purge_sessions(self) -> None:
        """Finalize and evict every session, removing its journal.

        The chaos soak calls this after each inproc trial: the trial's
        sessions (plus any stranded by a reset during HELLO) each own a
        live pipeline thread and a journal directory, which would
        otherwise accumulate across hundreds of trials.
        """
        with self._sessions_lock:
            sessions = list(self.sessions.values())
            self.sessions.clear()
        for session in sessions:
            if session.state != SessionState.FINISHED:
                session.finish()  # idempotent; joins the pipeline worker
            session.delete_journal()

    def _quiesce_transport(self) -> bool:
        """Common first half of :meth:`close` and :meth:`park`: stop
        accepting, wake the worker threads, and give in-flight
        connections a moment to drain.  Returns False when another
        caller already closed the daemon."""
        with self._close_lock:
            if self._closed:
                return False
            self._closed = True
        self._shutdown.set()
        try:
            # close() alone does not wake a thread blocked in accept()
            # (the in-flight syscall pins the open file description);
            # shutdown() forces accept() to return so the thread exits.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=5.0)
        self._reaper_thread.join(timeout=5.0)
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            with self._conns_lock:
                if not self._conns:
                    break
            time.sleep(0.01)
        return True

    def _remove_unix_socket(self) -> None:
        if self.unix_socket_path is not None:
            try:
                self.unix_socket_path.unlink()
            except FileNotFoundError:
                pass

    def close(self) -> None:
        """Stop listening, finalize every session, remove the
        Unix socket file.  Idempotent and safe to call from any thread."""
        if not self._quiesce_transport():
            return
        with self._sessions_lock:
            sessions = list(self.sessions.values())
        for session in sessions:
            if session.state != SessionState.FINISHED:
                session.finish()
            self._write_report(session)
            # A clean shutdown delivers (or persists) every report, so
            # the journals have served their purpose; only a crash
            # leaves state behind for the next daemon to recover.
            session.delete_journal()
        self._remove_unix_socket()

    def park(self) -> None:
        """Journal-preserving shutdown — the exit half of a rolling
        upgrade.  Unlike :meth:`close`, unfinished sessions are *not*
        finalized: each is quiesced under the checkpoint barrier
        (deferred backlog folded, checkpoint written) and its journal
        closed but kept, so the next daemon generation on the same
        state directory resumes every session at its exact
        ``received`` cursor.  Idempotent with close():
        whichever runs first wins."""
        if not self._quiesce_transport():
            return
        with self._sessions_lock:
            sessions = list(self.sessions.values())
        for session in sessions:
            if session.state == SessionState.FINISHED:
                # Report already frozen; deliver it and clean up as a
                # normal shutdown would.
                self._write_report(session)
                session.delete_journal()
            else:
                session.park()
        self._remove_unix_socket()

    def __enter__(self) -> "ProfilingDaemon":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
