"""Length-prefixed binary wire protocol of the profiling service.

A conversation is a sequence of *frames*, each::

    4 bytes   big-endian uint32: frame length = 1 + len(payload)
    1 byte    message type (:class:`MessageType`)
    N bytes   payload

Control frames (HELLO, ACK, REGISTER, HEARTBEAT, FIN, STATS, ERROR)
carry UTF-8 JSON payloads — they are rare, so readability beats
compactness.  EVENTS frames carry the hot data and reuse the spill
file's fixed-width record block codec (:func:`~repro.events.spill.pack_records`)
verbatim::

    8 bytes   big-endian uint64: stream index of the first event
    4 bytes   big-endian uint32: record count
    N * 39    spill records (little-endian, as on disk)

The stream index is the client's cumulative event counter; together
with the server's ``received`` high-water mark it makes retransmission
after a reconnect idempotent — the server skips the overlap instead of
double-counting.

Framing is deliberately strict: a declared length of zero (no type
byte) or beyond :data:`MAX_FRAME_BYTES` is a protocol error, not a
huge allocation.  :class:`FrameDecoder` is a plain incremental byte
feeder so it can sit on top of any transport and is trivially
property-testable against partial reads.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Iterable

from ..events.event import RawEvent
from ..events.spill import RECORD_SIZE, ImplausibleRecords, pack_records, unpack_records


class ProtocolError(Exception):
    """A malformed frame or an out-of-protocol message sequence."""


class RetryAfterError(ProtocolError):
    """The server is shedding load: come back in ``retry_after`` sec.

    A subclass of :class:`ProtocolError` so every existing recovery
    path (reconnect-and-retransmit) treats it as a transient failure;
    backoff-aware callers additionally honor the server's delay."""

    def __init__(self, retry_after: float, message: str | None = None) -> None:
        super().__init__(
            message or f"server shedding load; retry after {retry_after}s"
        )
        self.retry_after = retry_after


class MessageType:
    """Frame type codes.  An ``IntEnum`` in spirit; plain ints on the
    wire (one byte) and in decoder output, named constants here."""

    HELLO = 1
    ACK = 2
    REGISTER = 3
    EVENTS = 4
    HEARTBEAT = 5
    FIN = 6
    STATS = 7
    ERROR = 8
    RETRY_AFTER = 9
    JOURNALED = 10
    SNAPSHOT = 11

    _NAMES = {
        1: "HELLO",
        2: "ACK",
        3: "REGISTER",
        4: "EVENTS",
        5: "HEARTBEAT",
        6: "FIN",
        7: "STATS",
        8: "ERROR",
        9: "RETRY_AFTER",
        10: "JOURNALED",
        11: "SNAPSHOT",
    }

    @classmethod
    def name(cls, code: int) -> str:
        return cls._NAMES.get(code, f"UNKNOWN({code})")


_LENGTH = struct.Struct("!I")
_EVENTS_HEADER = struct.Struct("!QI")

#: Hard ceiling on one frame (length prefix value).  Big enough for the
#: largest EVENTS batch a client ships, small enough that a corrupt or
#: hostile length prefix cannot trigger a giant allocation.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Largest EVENTS batch that fits one frame.
MAX_EVENTS_PER_FRAME = (MAX_FRAME_BYTES - 1 - _EVENTS_HEADER.size) // RECORD_SIZE


def encode_frame(mtype: int, payload: bytes = b"") -> bytes:
    """One wire frame: length prefix + type byte + payload."""
    length = 1 + len(payload)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
        )
    return _LENGTH.pack(length) + bytes((mtype,)) + payload


class FrameDecoder:
    """Incremental frame reassembly from an arbitrary byte stream.

    ``feed`` accepts any chunking — single bytes, half frames, many
    frames at once — and returns every frame completed so far.  State
    between calls is just the undigested byte tail.
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        """Absorb ``data``; return all newly completed ``(type, payload)``."""
        self._buffer += data
        frames: list[tuple[int, bytes]] = []
        buf = self._buffer
        while True:
            if len(buf) < _LENGTH.size:
                break
            (length,) = _LENGTH.unpack_from(buf)
            if length < 1:
                raise ProtocolError("frame length prefix < 1 (no type byte)")
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame length prefix {length} exceeds "
                    f"MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
                )
            end = _LENGTH.size + length
            if len(buf) < end:
                break
            mtype = buf[_LENGTH.size]
            payload = bytes(buf[_LENGTH.size + 1 : end])
            del buf[:end]
            frames.append((mtype, payload))
        return frames


# -- JSON control payloads ---------------------------------------------------


def encode_json(mtype: int, obj: dict[str, Any]) -> bytes:
    return encode_frame(mtype, json.dumps(obj, separators=(",", ":")).encode("utf-8"))


def decode_json(payload: bytes) -> dict[str, Any]:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON control payload: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("control payload must be a JSON object")
    return obj


def snapshot_session(request: dict[str, Any]) -> str:
    """The session a SNAPSHOT request names.  A SNAPSHOT answers one
    session per frame, so a request without one is refused."""
    session = request.get("session")
    if not isinstance(session, str):
        raise ProtocolError("SNAPSHOT needs a 'session' key (one session per frame)")
    return session


# -- protocol version negotiation --------------------------------------------

#: Current wire-protocol version of this build.  Version 1 is the
#: pre-negotiation protocol (no version keys in HELLO/ACK at all);
#: version 2 added explicit negotiation, the feature-flag set, and
#: skip-and-count handling of unknown frame types.  Bump this (and add
#: an entry to the compatibility table in ``docs/architecture.md``)
#: whenever a frame type or payload schema changes.
PROTOCOL_VERSION = 2

#: Oldest peer version this build still speaks.  Raising this drops
#: compatibility with old clients/daemons — a fleet must finish its
#: rolling upgrade through every intermediate version first.
PROTOCOL_MIN_SUPPORTED = 1

#: Optional features this build implements, advertised in HELLO/ACK
#: alongside the version range.  Both sides use the *intersection*;
#: a feature missing on either side is silently not used (graceful
#: degradation), never an error.
PROTOCOL_FEATURES = frozenset({"snapshot", "journaled", "retry-after"})


def version_offer() -> dict[str, Any]:
    """HELLO/ACK payload fragment advertising this build's versions.

    Merged into the HELLO (client side) and echoed, with the
    *negotiated* version, in the ACK (daemon side).  Version-1 peers
    ignore the unknown keys, which is exactly the degradation we want.
    """
    return {
        "proto": PROTOCOL_VERSION,
        "proto_min": PROTOCOL_MIN_SUPPORTED,
        "features": sorted(PROTOCOL_FEATURES),
    }


def parse_version_offer(obj: dict[str, Any]) -> tuple[int, int, frozenset[str]]:
    """Extract ``(min, max, features)`` from a HELLO or ACK payload.

    A payload without version keys is a version-1 peer (the protocol
    predating negotiation), which advertises no features.  An old
    client's ``shm`` key (a shared-memory ring offer) is ignored: the
    ACK claims no ring, so the client keeps sending EVENTS frames.
    Malformed version keys raise :class:`ProtocolError` — a peer that
    speaks the schema but gets it wrong is a bug, not a legacy peer.
    """
    proto = obj.get("proto")
    if proto is None:
        return 1, 1, frozenset()
    if not isinstance(proto, int) or proto < 1:
        raise ProtocolError("HELLO 'proto' must be a positive integer")
    proto_min = obj.get("proto_min", 1)
    if not isinstance(proto_min, int) or not 1 <= proto_min <= proto:
        raise ProtocolError("HELLO 'proto_min' must be an int in [1, proto]")
    raw_features = obj.get("features", [])
    if not isinstance(raw_features, list) or not all(
        isinstance(f, str) for f in raw_features
    ):
        raise ProtocolError("HELLO 'features' must be a list of strings")
    return proto_min, proto, frozenset(raw_features)


def negotiate_version(
    peer_min: int,
    peer_max: int,
    *,
    local_min: int = PROTOCOL_MIN_SUPPORTED,
    local_max: int = PROTOCOL_VERSION,
) -> int | None:
    """Highest version both ranges contain, or ``None`` when the
    ranges are disjoint (the caller reports a clear error — there is
    no safe fallback once a peer's *minimum* is above our maximum)."""
    high = min(peer_max, local_max)
    if high < max(peer_min, local_min):
        return None
    return high


# -- EVENTS payloads ---------------------------------------------------------


def encode_events(start: int, raws: Iterable[RawEvent]) -> bytes:
    """EVENTS frame for ``raws`` starting at stream index ``start``."""
    body = pack_records(raws)
    count = len(body) // RECORD_SIZE
    if count > MAX_EVENTS_PER_FRAME:
        raise ProtocolError(
            f"{count} events exceed MAX_EVENTS_PER_FRAME ({MAX_EVENTS_PER_FRAME})"
        )
    return encode_frame(MessageType.EVENTS, _EVENTS_HEADER.pack(start, count) + body)


def decode_events(payload: bytes, validate: bool = False) -> tuple[int, list[RawEvent]]:
    """Inverse of :func:`encode_events`: ``(start, raw event tuples)``.

    With ``validate=True`` every record is screened as by
    :func:`~repro.events.spill.record_is_plausible`, in the same
    :func:`~repro.events.spill.unpack_records` pass that decodes it,
    and a frame carrying any implausible record is rejected whole with
    a :class:`ProtocolError`.  The daemon decodes with validation on:
    rejecting the frame tears down the connection, the client
    reconnects and retransmits from the server's ``received`` cursor,
    and the corrupted window is replaced by a clean copy — whereas
    silently folding garbage records would corrupt the analysis, and
    silently *skipping* them would desynchronize the stream-index
    cursor both sides use for exact resume.  The daemon journals the
    validated record bytes (``payload[_EVENTS_HEADER.size:]``) as is.
    """
    if len(payload) < _EVENTS_HEADER.size:
        raise ProtocolError("EVENTS payload shorter than its header")
    start, count = _EVENTS_HEADER.unpack_from(payload)
    body = memoryview(payload)[_EVENTS_HEADER.size :]
    if len(body) != count * RECORD_SIZE:
        raise ProtocolError(
            f"EVENTS payload declares {count} records but carries "
            f"{len(body)} body bytes (expected {count * RECORD_SIZE})"
        )
    try:
        return start, unpack_records(body, validate=validate)
    except ImplausibleRecords as exc:
        raise ProtocolError(
            f"EVENTS frame at stream index {start} carries {exc.bad} "
            f"implausible record(s) of {count}; rejecting the frame "
            "for retransmission"
        ) from None


# -- blocking socket transport ----------------------------------------------


def _recv_exact(sock: socket.socket, n: int, *, at_boundary: bool) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on clean EOF before the first
    byte of a frame, :class:`ProtocolError` on EOF mid-frame."""
    chunks = bytearray()
    while len(chunks) < n:
        chunk = sock.recv(n - len(chunks))
        if not chunk:
            if at_boundary and not chunks:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks += chunk
    return bytes(chunks)


def recv_frame(sock: socket.socket) -> tuple[int, bytes] | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    header = _recv_exact(sock, _LENGTH.size, at_boundary=True)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length < 1:
        raise ProtocolError("frame length prefix < 1 (no type byte)")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length prefix {length} exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
        )
    body = _recv_exact(sock, length, at_boundary=False)
    assert body is not None
    return body[0], body[1:]
