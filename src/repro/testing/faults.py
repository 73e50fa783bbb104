"""Scripted fault injection between a service client and the daemon.

:class:`FaultProxy` is a TCP man-in-the-middle: clients dial the proxy,
the proxy dials the real daemon, and bytes flow through a pump that
reassembles the client→daemon stream into protocol frames and applies
a seeded :class:`FaultPlan` to the EVENTS frames passing by.  The
daemon→client direction is forwarded untouched — the guarantees under
test (exact resume, overlap dedup, corrupt-frame rejection) all
concern what the *daemon* receives.

Faults are drawn from the failure modes a real deployment meets:

``reset``
    Both sides of the proxied connection are torn down mid-stream.
    The client sees a broken socket and must reconnect + retransmit.
``duplicate``
    An EVENTS frame is forwarded twice.  The daemon's stream-index
    dedup must fold it exactly once.
``reorder``
    An EVENTS frame is held back and sent *after* its successor.  The
    daemon sees a stream-index gap — a hard protocol error — and must
    recover through the reconnect path.
``corrupt``
    One record inside an EVENTS frame gets its op byte blown to 0xFF
    (guaranteed implausible).  The daemon must reject the frame rather
    than fold garbage.
``chunk``
    The frame is dribbled out in single-digit-byte pieces, exercising
    partial-read reassembly.
``stall``
    Forwarding pauses briefly (bounded real time), exercising timeout
    tolerance without slowing the suite meaningfully.
``kill``
    The *daemon itself* dies mid-ingest.  The proxy invokes its
    ``on_kill`` callback — the chaos soak crashes the daemon (SIGKILL
    semantics: no flush, no reports) and starts a replacement on the
    same state directory, returning the new address — then tears the
    connection down like a reset.  Without a callback the fault
    degrades to a plain reset, so the proxy still works against a
    daemon that cannot be restarted.

Every decision comes from ``random.Random(seed)`` at plan-build time,
so a failing trial is replayed exactly by its seed.  Plans are finite:
after ``max_faults`` injections the proxy turns transparent, which
guarantees every trial eventually completes.
"""

from __future__ import annotations

import errno
import os
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

from ..events.spill import RECORD_SIZE
from ..service.protocol import (
    _EVENTS_HEADER,
    FrameDecoder,
    MessageType,
    ProtocolError,
    encode_frame,
)

FAULT_KINDS = ("reset", "duplicate", "reorder", "corrupt", "chunk", "stall", "kill")

#: Byte offset of the op field inside a packed record ("<qqqiBBBd").
_OP_BYTE_OFFSET = 28
_STALL_SECONDS = 0.02


@dataclass(frozen=True)
class Fault:
    """One scripted injection: apply ``kind`` to EVENTS frame number
    ``frame_index`` (counted across all proxied connections)."""

    frame_index: int
    kind: str


@dataclass
class FaultPlan:
    """Seed-deterministic schedule of faults over the EVENTS stream."""

    faults: dict[int, str] = field(default_factory=dict)
    injected: list[Fault] = field(default_factory=list)

    @classmethod
    def from_seed(
        cls,
        seed: int,
        *,
        intensity: float = 0.15,
        horizon: int = 64,
        max_faults: int = 8,
        kinds: tuple[str, ...] = FAULT_KINDS,
    ) -> "FaultPlan":
        """Roll a fault for each of the first ``horizon`` EVENTS frames
        with probability ``intensity``, capped at ``max_faults``."""
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}; choose from {FAULT_KINDS}")
        rng = random.Random(seed)
        faults: dict[int, str] = {}
        for index in range(horizon):
            if len(faults) >= max_faults:
                break
            if rng.random() < intensity:
                faults[index] = rng.choice(kinds)
        return cls(faults=faults)

    @classmethod
    def transparent(cls) -> "FaultPlan":
        return cls()

    def action_for(self, frame_index: int) -> str | None:
        return self.faults.get(frame_index)

    def record(self, frame_index: int, kind: str) -> None:
        self.injected.append(Fault(frame_index, kind))

    def describe(self) -> str:
        if not self.faults:
            return "transparent"
        return ", ".join(f"#{i}:{k}" for i, k in sorted(self.faults.items()))


def _corrupt_events_payload(payload: bytes) -> bytes:
    """Blow the op byte of the middle record to 0xFF (implausible by
    construction, so the corruption is always *detectable* — a silent
    bit flip that stays plausible is outside this harness's contract)."""
    body_len = len(payload) - _EVENTS_HEADER.size
    if body_len < RECORD_SIZE:
        return payload  # empty window: nothing to corrupt
    count = body_len // RECORD_SIZE
    offset = _EVENTS_HEADER.size + (count // 2) * RECORD_SIZE + _OP_BYTE_OFFSET
    blob = bytearray(payload)
    blob[offset] = 0xFF
    return bytes(blob)


class _ConnectionReset(Exception):
    """Internal signal: the plan asked for a mid-stream reset."""


class FaultProxy:
    """Man-in-the-middle proxy applying a :class:`FaultPlan`.

    Counts EVENTS frames across *all* connections it ever carries, so
    a plan keeps progressing through client reconnects.  Concurrent
    clients (the chaos soak's storm producers) share one fault
    schedule.
    """

    def __init__(
        self,
        upstream_address: str,
        plan: FaultPlan | None = None,
        on_kill=None,
    ) -> None:
        self.upstream_address = upstream_address
        self.on_kill = on_kill
        self.plan = plan if plan is not None else FaultPlan.transparent()
        self.events_seen = 0
        self.bytes_forwarded = 0
        self._lock = threading.Lock()
        self._closed = False
        self._pairs: list[tuple[socket.socket, socket.socket]] = []
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(16)
        self.host, self.port = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="dsspy-faultproxy-accept", daemon=True
        )
        self._accept_thread.start()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def injected(self) -> list[Fault]:
        return list(self.plan.injected)

    # -- plumbing --------------------------------------------------------

    def _accept_loop(self) -> None:
        from ..service.client import parse_address

        while True:
            try:
                client_sock, _ = self._listener.accept()
            except OSError:
                return
            # Re-resolve per connection: a kill fault replaces the
            # upstream daemon, and its restart rarely lands on the
            # same port.
            family, connect_arg = parse_address(self.upstream_address)
            try:
                upstream = socket.socket(family, socket.SOCK_STREAM)
                upstream.connect(connect_arg)
            except OSError:
                client_sock.close()
                continue
            with self._lock:
                if self._closed:
                    client_sock.close()
                    upstream.close()
                    return
                self._pairs.append((client_sock, upstream))
            threading.Thread(
                target=self._pump_c2s,
                args=(client_sock, upstream),
                name="dsspy-faultproxy-c2s",
                daemon=True,
            ).start()
            threading.Thread(
                target=self._pump_transparent,
                args=(upstream, client_sock),
                name="dsspy-faultproxy-s2c",
                daemon=True,
            ).start()

    def _pump_transparent(self, src: socket.socket, dst: socket.socket) -> None:
        try:
            while True:
                data = src.recv(65536)
                if not data:
                    break
                dst.sendall(data)
        except OSError:
            pass
        finally:
            self._drop(src, dst)

    def _pump_c2s(self, client_sock: socket.socket, upstream: socket.socket) -> None:
        decoder = FrameDecoder()
        try:
            while True:
                data = client_sock.recv(65536)
                if not data:
                    break
                for mtype, payload in decoder.feed(data):
                    self._forward(upstream, mtype, payload)
        except (OSError, ProtocolError, _ConnectionReset):
            pass
        finally:
            self._drop(client_sock, upstream)

    def _forward(self, upstream: socket.socket, mtype: int, payload: bytes) -> None:
        if mtype != MessageType.EVENTS:
            upstream.sendall(encode_frame(mtype, payload))
            return
        with self._lock:
            index = self.events_seen
            self.events_seen += 1
            action = self.plan.action_for(index)
            if action is not None:
                self.plan.record(index, action)
        frame = encode_frame(mtype, payload)
        if action is None:
            upstream.sendall(frame)
        elif action == "duplicate":
            upstream.sendall(frame)
            upstream.sendall(frame)
        elif action == "corrupt":
            upstream.sendall(encode_frame(mtype, _corrupt_events_payload(payload)))
        elif action == "chunk":
            for offset in range(0, len(frame), 7):
                upstream.sendall(frame[offset : offset + 7])
        elif action == "stall":
            time.sleep(_STALL_SECONDS)
            upstream.sendall(frame)
        elif action == "reorder":
            # Ship the *next* complete EVENTS window first by sending
            # this frame after a duplicate of itself shifted: simplest
            # faithful reordering is to swap payload halves when the
            # window has 2+ records — the daemon sees the later half's
            # stream indices first, i.e. a gap.
            upstream.sendall(_swap_halves(payload))
        elif action == "reset":
            raise _ConnectionReset
        elif action == "kill":
            # Crash-and-restart the upstream daemon, then sever the
            # connection like a reset: the client reconnects (through
            # us) to the *recovered* daemon and resumes.  The window
            # that triggered the kill was never forwarded — the
            # retransmit covers it.
            on_kill = self.on_kill
            if on_kill is not None:
                new_address = on_kill()
                if new_address:
                    self.upstream_address = new_address
            raise _ConnectionReset
        self.bytes_forwarded += len(frame)

    def _drop(self, *socks: socket.socket) -> None:
        for sock in socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pairs = list(self._pairs)
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        for client_sock, upstream in pairs:
            self._drop(client_sock, upstream)
        self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "FaultProxy":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class FaultFS:
    """A filesystem that runs out of things, on schedule.

    Duck-types :class:`repro.service.governor.RealFS` so it can be
    injected anywhere the durability layer takes an ``fs`` — journal
    appends, checkpoint renames, state-budget measurement — and makes
    the resource-exhaustion branches deterministically reachable:

    ``enospc_after_bytes``
        A write budget.  Once cumulative written bytes reach it, every
        mutating operation (write, write_text, replace) raises
        ``ENOSPC`` until :meth:`relieve` frees space.  With
        ``partial_writes`` the failing write first lands as many bytes
        as still fit — the torn-record case the journal's self-healing
        truncate exists for.
    ``eio_every_reads``
        Every k-th read (``read_bytes``/``read_text``) raises ``EIO``
        — a disk developing bad sectors under a recovery scan.
    ``fsync_stall_seconds``
        Every fsync sleeps this long (real time) before completing — a
        saturated device making the durability barrier *slow* rather
        than broken.

    Failure decisions are counter-based, not sampled per call, so a
    single-threaded test replays exactly; :meth:`from_seed` rolls a
    randomized-but-reproducible configuration for the chaos harness,
    and :meth:`from_spec` parses the ``--fault-fs`` CLI string a fleet
    worker subprocess uses to build the same thing.

    Deliberately unmodeled: per-path accounting (``unlink`` does not
    refund budget — freed segments and a full disk racing each other is
    exactly the pressure the governor must survive anyway).
    """

    def __init__(
        self,
        *,
        enospc_after_bytes: int | None = None,
        partial_writes: bool = False,
        eio_every_reads: int | None = None,
        fsync_stall_seconds: float = 0.0,
    ) -> None:
        if enospc_after_bytes is not None and enospc_after_bytes < 0:
            raise ValueError(f"enospc_after_bytes must be >= 0, got {enospc_after_bytes}")
        if eio_every_reads is not None and eio_every_reads <= 0:
            raise ValueError(f"eio_every_reads must be positive, got {eio_every_reads}")
        self.enospc_after_bytes = enospc_after_bytes
        self.partial_writes = partial_writes
        self.eio_every_reads = eio_every_reads
        self.fsync_stall_seconds = fsync_stall_seconds
        self._lock = threading.Lock()
        self.bytes_written = 0
        self.reads = 0
        self.writes_failed = 0
        self.reads_failed = 0
        self.fsync_stalls = 0

    # -- construction -----------------------------------------------------

    @classmethod
    def from_seed(cls, seed: int, *, intensity: float = 0.6) -> "FaultFS":
        """Roll a reproducible disk-fault profile for one chaos trial."""
        rng = random.Random(seed)
        kwargs: dict = {}
        if rng.random() < intensity:
            kwargs["enospc_after_bytes"] = rng.randrange(512, 1 << 20)
            kwargs["partial_writes"] = rng.random() < 0.5
        if rng.random() < intensity * 0.5:
            kwargs["eio_every_reads"] = rng.randrange(5, 50)
        if rng.random() < intensity * 0.3:
            kwargs["fsync_stall_seconds"] = rng.uniform(0.001, 0.01)
        return cls(**kwargs)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultFS":
        """Parse a ``--fault-fs`` string: comma-separated
        ``enospc-after=N``, ``partial``, ``eio-every=K``,
        ``fsync-stall=SECS``, or ``seed=N`` (which rolls everything
        else via :meth:`from_seed` and ignores other keys)."""
        kwargs: dict = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, _, value = part.partition("=")
            if key == "seed":
                return cls.from_seed(int(value))
            if key == "enospc-after":
                kwargs["enospc_after_bytes"] = int(value)
            elif key == "partial":
                kwargs["partial_writes"] = value in ("", "1", "true")
            elif key == "eio-every":
                kwargs["eio_every_reads"] = int(value)
            elif key == "fsync-stall":
                kwargs["fsync_stall_seconds"] = float(value)
            else:
                raise ValueError(
                    f"unknown --fault-fs key {key!r} in {spec!r}; expected "
                    "enospc-after/partial/eio-every/fsync-stall/seed"
                )
        return cls(**kwargs)

    # -- fault controls ---------------------------------------------------

    def relieve(self, extra_bytes: int | None = None) -> None:
        """The operator freed disk space: lift the ENOSPC budget
        entirely, or extend it by ``extra_bytes``."""
        with self._lock:
            if extra_bytes is None:
                self.enospc_after_bytes = None
            elif self.enospc_after_bytes is not None:
                self.enospc_after_bytes += extra_bytes

    def _charge_write(self, size: int) -> int:
        """Budget one write of ``size`` bytes; returns how many bytes
        may land (< size means a partial write precedes the failure).
        Raises ENOSPC when nothing fits."""
        with self._lock:
            if self.enospc_after_bytes is None:
                self.bytes_written += size
                return size
            room = self.enospc_after_bytes - self.bytes_written
            if room >= size:
                self.bytes_written += size
                return size
            self.writes_failed += 1
            landed = max(0, room) if self.partial_writes else 0
            self.bytes_written += landed
        if landed:
            return landed
        raise OSError(errno.ENOSPC, "FaultFS: write budget exhausted")

    def _charge_read(self, path) -> None:
        with self._lock:
            self.reads += 1
            if (
                self.eio_every_reads is not None
                and self.reads % self.eio_every_reads == 0
            ):
                self.reads_failed += 1
                raise OSError(errno.EIO, f"FaultFS: scripted read error on {path}")

    # -- the RealFS surface -----------------------------------------------

    def open(self, path: str | Path, mode: str = "wb") -> IO[bytes]:
        return Path(path).open(mode)

    def write(self, fh: IO[bytes], data: bytes) -> None:
        landed = self._charge_write(len(data))
        if landed < len(data):
            # Partial write, then the failure the caller must heal from.
            fh.write(data[:landed])
            fh.flush()
            raise OSError(errno.ENOSPC, "FaultFS: disk filled mid-write")
        fh.write(data)
        fh.flush()

    def fsync(self, fh: IO[bytes]) -> None:
        if self.fsync_stall_seconds:
            with self._lock:
                self.fsync_stalls += 1
            time.sleep(self.fsync_stall_seconds)
        os.fsync(fh.fileno())

    def read_bytes(self, path: str | Path) -> bytes:
        self._charge_read(path)
        return Path(path).read_bytes()

    def read_text(self, path: str | Path) -> str:
        self._charge_read(path)
        return Path(path).read_text()

    def write_text(self, path: str | Path, text: str) -> None:
        data = text.encode()
        landed = self._charge_write(len(data))
        if landed < len(data):
            Path(path).write_bytes(data[:landed])
            raise OSError(errno.ENOSPC, "FaultFS: disk filled mid-write")
        Path(path).write_text(text)

    def replace(self, src: str | Path, dst: str | Path) -> None:
        # A rename allocates directory blocks; once the budget is gone
        # it fails too (the checkpoint-rename failure branch).
        self._charge_write(0 if self.enospc_after_bytes is None else 1)
        os.replace(src, dst)

    def unlink(self, path: str | Path) -> None:
        Path(path).unlink(missing_ok=True)

    def size(self, path: str | Path) -> int:
        try:
            return Path(path).stat().st_size
        except OSError:
            return 0

    def tree_bytes(self, root: str | Path) -> int:
        total = 0
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in filenames:
                total += self.size(Path(dirpath) / name)
        return total

    # -- observability ----------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "bytes_written": self.bytes_written,
                "writes_failed": self.writes_failed,
                "reads": self.reads,
                "reads_failed": self.reads_failed,
                "fsync_stalls": self.fsync_stalls,
                "enospc_after_bytes": self.enospc_after_bytes,
            }


def _swap_halves(payload: bytes) -> bytes:
    """Split one EVENTS window into two frames and emit them in the
    wrong order (later stream indices first)."""
    start, count = _EVENTS_HEADER.unpack_from(payload)
    body = payload[_EVENTS_HEADER.size :]
    if count < 2:
        return encode_frame(MessageType.EVENTS, payload)
    half = count // 2
    first = body[: half * RECORD_SIZE]
    second = body[half * RECORD_SIZE :]
    late = _EVENTS_HEADER.pack(start + half, count - half) + second
    early = _EVENTS_HEADER.pack(start, half) + first
    return encode_frame(MessageType.EVENTS, late) + encode_frame(MessageType.EVENTS, early)


__all__ = ["FAULT_KINDS", "Fault", "FaultFS", "FaultPlan", "FaultProxy"]
