"""Client side of the profiling service.

:class:`ServiceClient` is the thin protocol speaker: connect, HELLO,
ship frames, strict request/response for the control messages.
:class:`RemoteChannel` is what instrumented programs actually use — a
:class:`~repro.events.batching.BatchingChannel` whose drainer-thread
sink forwards each harvested batch to the daemon, so the hot recording
path stays the same bare ``list.append`` as the in-process pipeline
and all network cost is paid off-thread.

Fault tolerance lives here, not in user code: the channel keeps every
event in its master buffer until drained, tracks how much of it the
server acknowledged receiving, and on a broken connection silently
reconnects with the same session id and retransmits from the server's
``received`` cursor.  The daemon's overlap-skip
(:meth:`~repro.service.session.Session.ingest`) makes the retransmit
idempotent, so an abrupt mid-stream disconnect costs nothing but
latency.
"""

from __future__ import annotations

import random
import socket
import threading
from pathlib import Path
from typing import Any

from ..events.batching import BatchingChannel
from ..events.event import RawEvent
from ..events.profile import AllocationSite, site_to_dict
from ..events.spill import SpillWriter
from ..events.types import StructureKind
from ..testing.clock import SYSTEM_CLOCK, Clock
from .protocol import (
    MAX_EVENTS_PER_FRAME,
    MessageType,
    ProtocolError,
    RetryAfterError,
    decode_json,
    encode_events,
    encode_json,
    parse_version_offer,
    recv_frame,
    version_offer,
)


def parse_address(text: str) -> tuple[int, Any]:
    """Parse ``host:port``, ``unix:<path>``, or a filesystem path into
    ``(address_family, connect_arg)``."""
    text = text.strip()
    if text.startswith("unix:"):
        return socket.AF_UNIX, text[5:]
    if "/" in text:
        return socket.AF_UNIX, text
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"bad service address {text!r}; expected HOST:PORT or unix:PATH"
        )
    return socket.AF_INET, (host or "127.0.0.1", int(port))


class ServiceClient:
    """One connection-with-session to a profiling daemon.

    All I/O is serialized under one lock; the server only ever speaks
    when spoken to (strict request/response), so a reply always belongs
    to the request just sent.
    """

    def __init__(
        self,
        address: str,
        session_id: str | None = None,
        timeout: float = 10.0,
    ) -> None:
        self.address = address
        family, connect_arg = parse_address(address)
        self._io_lock = threading.RLock()
        self._sock = socket.socket(family, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        self._sock.connect(connect_arg)
        if family == socket.AF_INET:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        #: Unknown frame types skipped whole instead of erroring — a
        #: newer daemon talking past this build (version skew).
        self.frames_skipped = 0
        hello: dict[str, Any] = version_offer()
        if session_id:
            hello["session"] = session_id
        ack = self._request(MessageType.HELLO, hello)
        self.session_id: str = ack["session"]
        self.server_received: int = int(ack.get("received", 0))
        self.resumed: bool = bool(ack.get("resumed", False))
        # A version-1 daemon sends no version keys; parse_version_offer
        # folds that case into (1, 1, inferred features).  The ACK's
        # "proto" is already the daemon's negotiated pick, so the max
        # of its range *is* the session version.
        _, self.proto_version, self.server_features = parse_version_offer(ack)

    # -- plumbing --------------------------------------------------------

    def _request(self, mtype: int, obj: dict[str, Any]) -> dict[str, Any]:
        with self._io_lock:
            self._sock.sendall(encode_json(mtype, obj))
            return self._read_ack()

    def _read_ack(self) -> dict[str, Any]:
        while True:
            frame = recv_frame(self._sock)
            if frame is None:
                raise ProtocolError("server closed the connection")
            rtype, payload = frame
            if rtype in MessageType._NAMES:
                break
            # Version skew: a newer daemon sent a frame type this
            # build does not know.  Skip it (framing is
            # self-delimiting) and keep waiting for the reply.
            self.frames_skipped += 1
        obj = decode_json(payload)
        if rtype == MessageType.ERROR:
            raise ProtocolError(f"server error: {obj.get('error', '?')}")
        if rtype == MessageType.RETRY_AFTER:
            raise RetryAfterError(float(obj.get("retry_after", 1.0)))
        # JOURNALED is a positive ack: the events are durable, their
        # analysis is merely deferred behind the journal backlog.
        if rtype not in (MessageType.ACK, MessageType.JOURNALED):
            raise ProtocolError(f"expected ACK, got {MessageType.name(rtype)}")
        return obj

    # -- protocol verbs --------------------------------------------------

    def register_instances(self, instances: list[dict[str, Any]]) -> None:
        """Fire-and-forget instance declarations (no reply)."""
        with self._io_lock:
            self._sock.sendall(
                encode_json(MessageType.REGISTER, {"instances": instances})
            )

    def send_events(self, start: int, raws: list[RawEvent]) -> None:
        """Ship a window of raw events (no reply); chunks as needed."""
        with self._io_lock:
            for offset in range(0, len(raws), MAX_EVENTS_PER_FRAME):
                chunk = raws[offset : offset + MAX_EVENTS_PER_FRAME]
                self._sock.sendall(encode_events(start + offset, chunk))

    def heartbeat(self) -> dict[str, Any]:
        return self._request(MessageType.HEARTBEAT, {})

    def fin(self) -> dict[str, Any]:
        """End the session; the ACK carries the final report dict."""
        return self._request(MessageType.FIN, {})

    def stats(self) -> dict[str, Any]:
        return self._request(MessageType.STATS, {})

    def close(self) -> None:
        with self._io_lock:
            try:
                self._sock.close()
            except OSError:
                pass


def fetch_stats(address: str, timeout: float = 10.0) -> dict[str, Any]:
    """One-shot STATS query (used by ``dsspy sessions``).

    Speaks STATS before HELLO — the daemon answers observability
    queries without creating a session.
    """
    family, connect_arg = parse_address(address)
    sock = socket.socket(family, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect(connect_arg)
        sock.sendall(encode_json(MessageType.STATS, {}))
        frame = recv_frame(sock)
        if frame is None:
            raise ProtocolError("server closed the connection")
        rtype, payload = frame
        obj = decode_json(payload)
        if rtype != MessageType.ACK:
            raise ProtocolError(f"expected ACK, got {MessageType.name(rtype)}")
        return obj
    finally:
        sock.close()


def fetch_snapshot(address: str, session: str, timeout: float = 10.0) -> dict[str, Any]:
    """One-shot SNAPSHOT query: one session's serialized engine state.

    Like STATS, spoken before HELLO — the fleet coordinator observes a
    worker without creating a session on it.  One session per frame
    keeps every reply far below the frame ceiling;
    :func:`~repro.service.router.gather_snapshots` walks all of them.
    """
    family, connect_arg = parse_address(address)
    sock = socket.socket(family, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect(connect_arg)
        sock.sendall(encode_json(MessageType.SNAPSHOT, {"session": session}))
        frame = recv_frame(sock)
        if frame is None:
            raise ProtocolError("server closed the connection")
        rtype, payload = frame
        obj = decode_json(payload)
        if rtype != MessageType.ACK:
            raise ProtocolError(
                f"expected ACK, got {MessageType.name(rtype)}: "
                f"{obj.get('error', '')}"
            )
        return obj
    finally:
        sock.close()


class BackoffPolicy:
    """Capped exponential backoff with jitter for reconnect attempts.

    Delay after the *n*-th consecutive failure is
    ``min(cap, base * multiplier**(n-1))`` stretched by up to
    ``jitter`` of itself (seedable ``random.Random`` — tests pin the
    schedule), and never shorter than a server-mandated minimum (the
    RETRY-AFTER delay).  A success resets the ladder.

    Timing goes through a :class:`~repro.testing.clock.Clock`, so a
    SimClock test can walk the schedule without sleeping.
    """

    def __init__(
        self,
        base: float = 0.05,
        cap: float = 5.0,
        multiplier: float = 2.0,
        jitter: float = 0.5,
        rng: random.Random | None = None,
        clock: Clock = SYSTEM_CLOCK,
    ) -> None:
        if base <= 0 or cap < base or multiplier < 1.0 or not 0 <= jitter <= 1:
            raise ValueError(
                f"bad backoff parameters base={base} cap={cap} "
                f"multiplier={multiplier} jitter={jitter}"
            )
        self.base = base
        self.cap = cap
        self.multiplier = multiplier
        self.jitter = jitter
        self._rng = rng if rng is not None else random.Random()
        self._clock = clock
        self.failures = 0
        self._until = 0.0

    def note_failure(self, min_delay: float = 0.0) -> float:
        """Record a failed attempt; returns the chosen delay."""
        self.failures += 1
        delay = min(self.cap, self.base * self.multiplier ** (self.failures - 1))
        delay *= 1.0 + self.jitter * self._rng.random()
        delay = max(delay, min_delay)
        self._until = self._clock.monotonic() + delay
        return delay

    def note_success(self) -> None:
        self.failures = 0
        self._until = 0.0

    def ready(self) -> bool:
        """Is the current delay over (always true when never failed)?"""
        return self._clock.monotonic() >= self._until

    def down_for(self) -> float:
        """Seconds until the next attempt is allowed (0 when ready)."""
        return max(0.0, self._until - self._clock.monotonic())


class RemoteChannel(BatchingChannel):
    """Batching channel that streams its harvests to a daemon.

    Producer side is untouched :class:`BatchingChannel` (same ~25 ns
    append); the drainer's ``sink`` hook ships each batch.  The master
    buffer retains everything (no spill), serving as
    the retransmission source: on any socket error the channel marks
    itself disconnected and the next harvest reconnects with the same
    session id, rewinds its cursor to the server's ``received`` count,
    and resends the tail.

    ``drain()`` performs the handshake ending the session: final ship,
    FIN, and stores the server's report in :attr:`final_ack`.
    """

    def __init__(
        self,
        address: str,
        session_id: str | None = None,
        heartbeat_interval: float = 2.0,
        clock: Clock = SYSTEM_CLOCK,
        backoff: BackoffPolicy | None = None,
        give_up_after: float | None = None,
        fallback_spill: str | Path | None = None,
        **batching_kwargs: Any,
    ) -> None:
        if batching_kwargs.pop("spill", None) is not None:
            raise ValueError(
                "RemoteChannel keeps its retransmission source in RAM; "
                "spill is not supported (use the daemon-side spill instead)"
            )
        self.address = address
        self._clock = clock
        self.final_ack: dict[str, Any] | None = None
        self._client: ServiceClient | None = None
        self._session_id = session_id
        self._shipped = 0
        self._ship_lock = threading.Lock()
        self._registered: list[dict[str, Any]] = []
        self._registered_sent = 0
        self._reconnects = 0
        self._backoff = backoff if backoff is not None else BackoffPolicy(clock=clock)
        self._give_up_after = give_up_after
        self._fallback_spill = (
            Path(fallback_spill) if fallback_spill is not None else None
        )
        self._down_since: float | None = None
        self._gave_up = False
        self.spill_path: Path | None = None
        self._heartbeat_interval = heartbeat_interval
        self._connect()  # fail fast: a bad address raises here, not mid-run
        super().__init__(sink=self._ship, **batching_kwargs)
        self._hb_stop = threading.Event()
        self._hb_thread = threading.Thread(
            target=self._heartbeat_loop,
            args=(heartbeat_interval,),
            name="dsspy-remote-heartbeat",
            daemon=True,
        )
        self._hb_thread.start()

    # -- collector hook --------------------------------------------------

    def on_register(
        self,
        instance_id: int,
        kind: StructureKind,
        site: AllocationSite | None,
        label: str,
    ) -> None:
        """Called by the collector for each new instance; forwards the
        declaration so the daemon knows the instance's identity."""
        entry = {
            "id": instance_id,
            "kind": kind.value,
            "site": site_to_dict(site),
            "label": label,
        }
        with self._ship_lock:
            self._registered.append(entry)
            self._flush_registrations()

    def _flush_registrations(self) -> None:
        """Send not-yet-delivered registrations (caller holds the lock)."""
        client = self._client
        if client is None:
            return
        pending = self._registered[self._registered_sent :]
        if not pending:
            return
        try:
            client.register_instances(pending)
            self._registered_sent = len(self._registered)
        except (OSError, ProtocolError):
            self._disconnect()

    # -- shipping (drainer thread) ---------------------------------------

    def _connect(self) -> None:
        client = ServiceClient(self.address, session_id=self._session_id)
        self._client = client
        self._session_id = client.session_id
        if client.resumed:
            # The server's cursor is authoritative: anything past it
            # was lost in flight and must be resent from the master.
            self._shipped = min(self._shipped, client.server_received)
            self._reconnects += 1
        # A fresh session (e.g. the old one was reaped) starts at zero.
        elif self._shipped:
            self._shipped = 0
        self._registered_sent = 0
        self._backoff.note_success()
        self._down_since = None
        self._flush_registrations()

    def _disconnect(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            client.close()

    def _note_failure(self, exc: Exception | None = None) -> None:
        """Failure bookkeeping: back off (honoring a server-mandated
        RETRY-AFTER delay) and track how long the link has been down
        for the give-up deadline."""
        min_delay = exc.retry_after if isinstance(exc, RetryAfterError) else 0.0
        self._backoff.note_failure(min_delay)
        now = self._clock.monotonic()
        if self._down_since is None:
            self._down_since = now
        if (
            self._give_up_after is not None
            and now - self._down_since >= self._give_up_after
        ):
            self._gave_up = True

    def _ship(self, batch: list[RawEvent]) -> None:  # noqa: ARG002
        """Sink hook: forward everything harvested but not yet shipped.

        Works from the master buffer rather than the batch argument so
        a failed send is automatically retried by the next harvest."""
        with self._ship_lock:
            self._ship_pending()

    def _ship_pending(self, force: bool = False) -> None:
        if self._gave_up:
            return
        if self._client is None:
            if not force and not self._backoff.ready():
                return  # inside the backoff delay; skip this harvest
            try:
                self._connect()
            except (OSError, ProtocolError) as exc:
                self._note_failure(exc)
                return  # still down; retry after the backoff delay
        pending = self._master[self._shipped :]
        if not pending:
            return
        try:
            self._client.send_events(self._shipped, pending)
            self._shipped += len(pending)
        except (OSError, ProtocolError) as exc:
            self._disconnect()
            self._note_failure(exc)

    def _heartbeat_loop(self, interval: float) -> None:
        # Cadence goes through the clock so tests can trigger (or
        # suppress) heartbeats deterministically with a SimClock.
        while not self._clock.wait(self._hb_stop, interval):
            with self._ship_lock:
                client = self._client
                if client is None:
                    continue
                try:
                    client.heartbeat()
                except (OSError, ProtocolError) as exc:
                    self._disconnect()
                    self._note_failure(exc)

    # -- lifecycle -------------------------------------------------------

    def _after_fork_child(self, policy: str) -> None:
        """Reinitialize in a fork child.

        The child inherits a *copy* of the parent's socket file
        descriptor: writing even one byte would interleave with the
        parent's length-prefixed frames and corrupt the stream for
        both.  The fd copy is closed without any protocol traffic
        (closing a duplicate sends no FIN — the parent still holds its
        own descriptor, so its connection is untouched).

        ``policy`` then picks the child's posture:

        ``"disable"``
            The channel gives up shipping permanently; recording
            continues into the child's local buffers.

        ``"resession"``
            The session id is cleared so the next harvest opens a
            *fresh* daemon session, re-sending the instance
            registrations (the structures live on in the child); the
            heartbeat thread is restarted.
        """
        sock = self._client._sock if self._client is not None else None
        self._client = None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
        self._ship_lock = threading.Lock()
        self._shipped = 0
        self._registered_sent = 0
        self._down_since = None
        self.final_ack = None
        # The fallback spill path belongs to the parent; the child
        # writing it would clobber the parent's residue.
        self._fallback_spill = None
        super()._after_fork_child(policy)
        if policy == "resession" and not self._gave_up:
            self._session_id = None
            self._hb_stop = threading.Event()
            self._hb_thread = threading.Thread(
                target=self._heartbeat_loop,
                args=(self._heartbeat_interval,),
                name="dsspy-remote-heartbeat",
                daemon=True,
            )
            self._hb_thread.start()
        else:
            self._gave_up = True

    @property
    def session_id(self) -> str | None:
        return self._session_id

    @property
    def proto_version(self) -> int | None:
        """Wire-protocol version negotiated with the daemon on the
        current connection (None while disconnected)."""
        client = self._client
        return client.proto_version if client is not None else None

    @property
    def reconnects(self) -> int:
        return self._reconnects

    @property
    def gave_up(self) -> bool:
        """True once the give-up deadline expired with the link down;
        unshipped events go to the fallback spill at drain time."""
        return self._gave_up

    def drain(self) -> list[RawEvent]:
        """Final harvest + final ship + FIN.  Returns the locally
        retained events (so in-process analysis still works), with the
        server's report available in :attr:`final_ack`.

        When the daemon stayed unreachable past the give-up deadline,
        the unshipped tail is written to the fallback spill file
        (:attr:`spill_path`) instead of being dropped — ``dsspy
        analyze`` reads the residue with the ordinary spill tooling."""
        master = super().drain()
        self._hb_stop.set()
        self._hb_thread.join(timeout=5.0)
        with self._ship_lock:
            # A few reconnect-and-ship rounds: one either ships the
            # whole tail or fails, so a dead daemon exhausts them quickly.
            for _ in range(3):
                self._ship_pending(force=True)
                if self._client is not None and self._shipped == len(master):
                    break
            for _ in range(2):
                client = self._client
                if client is None:
                    break
                try:
                    self.final_ack = client.fin()
                    break
                except (OSError, ProtocolError):
                    # EVENTS frames get no reply, so a connection the
                    # daemon already dropped (a heartbeat reap, a restart)
                    # may only surface at FIN's reply: reconnect (resuming
                    # the session), re-ship whatever the server lost, and
                    # try the FIN once more.
                    self.final_ack = None
                    self._disconnect()
                    self._ship_pending(force=True)
            self._disconnect()
            if self._shipped < len(master) and self._fallback_spill is not None:
                with SpillWriter(self._fallback_spill) as writer:
                    writer.write_batch(master[self._shipped :])
                self.spill_path = self._fallback_spill
        return master
