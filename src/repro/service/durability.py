"""Crash safety for the profiling daemon: journal, checkpoint, recovery.

The daemon's promise to a client is simple: once the server's
``received`` cursor covers an event, the client may forget it.  That
promise is only honest if the events behind the cursor survive a
daemon death.  This module keeps it with a classic write-ahead scheme:

**Journal.**  Every session owns a directory under the daemon's
``--state-dir`` holding append-only segment files.  Each REGISTER and
EVENTS window is appended — CRC-framed, reusing the 39-byte spill
record packing for event payloads — *before* the session advances its
``received`` cursor.  A crash can therefore only lose events the
client still holds and will retransmit.

**Checkpoint.**  Replaying a long journal from zero would make restart
cost proportional to session length.  Periodically the session
serializes its :class:`~repro.service.streaming.StreamingUseCaseEngine`
(every per-instance fold, including in-flight phase runs) plus its
cursors into ``checkpoint.json`` (atomic ``os.replace``), rolls the
journal to a fresh segment, and prunes the segments the checkpoint
subsumes.  Recovery loads the checkpoint and replays only the tail.

**Recovery.**  This module is the only one that knows the state-dir
layout.  :func:`walk_state_dir` finds session directories in every
layout, :func:`scan_session_dir` reads and classifies one once, and
:func:`recover_session` replays it and applies the one repair policy.
A torn tail — a crash mid-append or inside the segment's magic, or an
append the journal could not truncate away before rolling on: a bad
record ending the *last* segment, or one running past the end of any
segment — is truncated.  Any other damage moves the damaged segment
and every later one to ``quarantine/``: records after it may be
intact, but their cursor continuity died with it.  An unreadable
checkpoint is quarantined too, the checkpoint is rebuilt whenever
events were lost, and every lost cursor range is named.  State a newer
build wrote is never touched.  Daemon start-up, ``dsspy recover``,
``dsspy fsck`` and ``dsspy migrate`` all consume the same scan.

Journal segment layout::

    8 bytes   magic  b"DSPYWJ" + 2-digit format generation (b"DSPYWJ03")
    records, each:
        1 byte    record type (REC_REGISTER / REC_EVENTS / REC_FIN)
        4 bytes   little-endian uint32 payload length
        4 bytes   little-endian uint32 CRC-32 of the payload
        N bytes   payload

EVENTS payloads are exactly the wire protocol's: an 8-byte big-endian
stream index + 4-byte count header followed by packed spill records.
REGISTER payloads are the UTF-8 JSON registration object.  FIN marks
a cleanly finished session — its directory is garbage, not state.
"""

from __future__ import annotations

import json
import re
import shutil
import struct
import threading
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

from ..events.event import RawEvent
from ..events.profile import AllocationSite, site_from_dict
from ..events.spill import pack_records, unpack_records
from ..events.types import StructureKind
from ..patterns.detector import DetectorConfig
from ..usecases.features import InstanceFold
from ..usecases.rules import ALL_RULES, Rule
from ..usecases.thresholds import PAPER_THRESHOLDS, Thresholds
from .governor import REAL_FS, RealFS, ResourceGovernor, is_resource_error
from .protocol import _EVENTS_HEADER
from .streaming import StreamingUseCaseEngine

#: Every journal segment opens with ``DSPYWJ`` plus two ASCII digits
#: naming the on-disk format generation that wrote it.  v1, v2 and v3
#: share the record layout (v2 stamps the generation so format changes
#: have a place to hang a migration; v3 moves in lockstep with the v3
#: checkpoint); readers accept every generation up to
#: :data:`JOURNAL_VERSION` and refuse newer ones with
#: :class:`FutureFormatError` — "needs migration by a newer build",
#: never "corrupt".
JOURNAL_MAGIC_PREFIX = b"DSPYWJ"
JOURNAL_VERSION = 3
JOURNAL_MAGIC = b"DSPYWJ03"  # stamped on newly opened segments
_MAGIC_LEN = len(JOURNAL_MAGIC)


class FutureFormatError(RuntimeError):
    """On-disk state written by a newer dsspy than this build.

    Deliberately *not* a :class:`ValueError` subclass: recovery paths
    that tolerate corruption (replay-from-zero, fsck damage handling)
    must not swallow a version mismatch — refusing loudly is the whole
    point, because "recovering" newer state would silently destroy it.
    """


def journal_magic(version: int) -> bytes:
    """Segment header for format generation ``version``."""
    if not 1 <= version <= 99:
        raise ValueError(f"journal format version out of range: {version}")
    return JOURNAL_MAGIC_PREFIX + b"%02d" % version


def _magic_version(header: bytes) -> int | None:
    """Format generation a segment header names, or ``None`` for bytes
    that are not a journal header at all."""
    tail = header[len(JOURNAL_MAGIC_PREFIX) : _MAGIC_LEN]
    if not header.startswith(JOURNAL_MAGIC_PREFIX) or len(tail) != 2:
        return None
    if not tail.isdigit() or int(tail) < 1:
        return None
    return int(tail)


def parse_journal_magic(header: bytes) -> int:
    """Format generation from a segment's first 8 bytes.

    Raises :class:`ValueError` for non-journal bytes and
    :class:`FutureFormatError` for a generation newer than this build
    understands.
    """
    version = _magic_version(header)
    if version is None:
        raise ValueError("not a DSspy journal segment")
    if version > JOURNAL_VERSION:
        raise FutureFormatError(
            f"journal segment format v{version} is newer than this build "
            f"reads (v{JOURNAL_VERSION}); run 'dsspy migrate' with the "
            "newer build or upgrade this one"
        )
    return version


#: Journal record types.
REC_REGISTER = 1
REC_EVENTS = 2
REC_FIN = 3
_KNOWN_RECORDS = frozenset((REC_REGISTER, REC_EVENTS, REC_FIN))

_REC_HEADER = struct.Struct("<BII")

#: Sanity ceiling on one journal payload; anything larger is a torn or
#: corrupt header, not a real record (wire frames are capped at 8 MB).
MAX_JOURNAL_PAYLOAD = 16 * 1024 * 1024

_SEGMENT_GLOB = "journal-*.wal"
_CHECKPOINT_NAME = "checkpoint.json"
#: Checkpoint schema generation.  v1 lacked the ``format`` block; v2
#: records the writing build's format versions so mixed-version state
#: directories are diagnosable; v3 stores each run's distinct positions
#: as a count where v1 and v2 list them.  Readers accept v1 to v3; a
#: newer version is a :class:`FutureFormatError`, never "replay from
#: zero" (which would silently discard the newer engine state).
CHECKPOINT_VERSION = 3


# -- registration parsing (shared by daemon ingest and recovery) -------------


def parse_register_entries(
    obj: dict[str, Any],
) -> Iterator[tuple[int, StructureKind, AllocationSite | None, str]]:
    """Yield ``(instance_id, kind, site, label)`` per REGISTER entry.

    A malformed entry raises :class:`ValueError` *at its position* —
    entries before it have already been yielded, matching the daemon's
    register-as-you-go semantics.  Both the live REGISTER handler and
    journal replay parse through here so they cannot drift.
    """
    for inst in obj.get("instances", ()):
        try:
            instance_id = int(inst["id"])
            kind = StructureKind(inst.get("kind", "list"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad REGISTER entry: {exc}") from exc
        site_obj = inst.get("site")
        site = site_from_dict(site_obj) if isinstance(site_obj, dict) else None
        yield instance_id, kind, site, str(inst.get("label", ""))


# -- engine serialization ----------------------------------------------------


def engine_to_dict(engine: StreamingUseCaseEngine) -> dict[str, Any]:
    """Serialize every fold and counter; the engine must be quiescent
    (no concurrent ``feed``) while this runs."""
    return {
        "events_folded": engine.events_folded,
        "peak_resident_events": engine.peak_resident_events,
        "unknown_instance_events": engine.unknown_instance_events,
        "folds": [
            engine._folds[iid].to_dict() for iid in sorted(engine._folds)
        ],
    }


def engine_from_dict(
    obj: dict[str, Any],
    *,
    thresholds: Thresholds = PAPER_THRESHOLDS,
    detector_config: DetectorConfig | None = None,
    rules: tuple[Rule, ...] = ALL_RULES,
) -> StreamingUseCaseEngine:
    """Rebuild an engine whose future ``report()`` calls are identical
    to the serialized engine's.  Analysis knobs are *not* persisted —
    the recovering daemon supplies its own, which must match the
    original's for the convergence guarantee to hold."""
    engine = StreamingUseCaseEngine(
        thresholds=thresholds, detector_config=detector_config, rules=rules
    )
    engine.events_folded = obj["events_folded"]
    engine.peak_resident_events = obj["peak_resident_events"]
    engine.unknown_instance_events = obj["unknown_instance_events"]
    max_gap = engine.config.max_gap
    for fold_obj in obj["folds"]:
        fold = InstanceFold.from_dict(fold_obj, max_gap)
        engine._folds[fold.instance_id] = fold
    return engine


def checkpoint_state(session: Any) -> dict[str, Any]:
    """The one ``checkpoint.json`` schema, built from a live
    :class:`~repro.service.session.Session` for its periodic checkpoint
    or from a :class:`RecoveredSession` for a repair's rebuilt one."""
    from ..buildinfo import build_info  # deferred: buildinfo imports this module

    return {
        "version": CHECKPOINT_VERSION,
        "session": session.session_id,
        "received": session.received,
        "applied": session.applied,
        "duplicates": session.duplicates,
        # v2: which build (and which format generations) wrote this
        # checkpoint — the first thing to look at when a mixed-version
        # fleet misbehaves.
        "format": build_info(),
        "engine": engine_to_dict(session.engine),
    }


# -- the write-ahead journal -------------------------------------------------


def _encode_record(rtype: int, payload: bytes) -> bytes:
    return _REC_HEADER.pack(rtype, len(payload), zlib.crc32(payload)) + payload


class SessionJournal:
    """Append-only per-session write-ahead journal.

    One instance per live session; appends are serialized by the
    session lock but an internal lock makes the journal safe on its
    own.  Appends are flushed to the OS per record (a SIGKILL'd
    process loses nothing already appended); ``fsync=True`` extends
    that to power loss at a heavy per-append cost.

    Disk I/O goes through ``fs`` (a
    :class:`~repro.service.governor.RealFS`, or a
    :class:`~repro.testing.faults.FaultFS` under test) and failures are
    classified by ``governor``.  A failed append leaves the cursor
    untouched and *self-heals* the segment: the partial record is
    truncated away (or, when even that fails, the segment is abandoned
    and the next append rolls to a fresh one), so a later successful
    append can never land behind a torn record that a crash-recovery
    scan would treat as the end of the journal.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        segment_max_bytes: int = 4 * 1024 * 1024,
        fsync: bool = False,
        fs: RealFS | None = None,
        governor: ResourceGovernor | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._segment_max = segment_max_bytes
        self._fsync = fsync
        self._fs = fs if fs is not None else (
            governor.fs if governor is not None else REAL_FS
        )
        self._governor = governor
        self._lock = threading.Lock()
        self._fh = None
        self._closed = False
        self._segment_bytes = 0
        self.appended_events = 0
        self.checkpoints = 0
        self.append_failures = 0
        self.checkpoint_failures = 0
        existing = sorted(self.directory.glob(_SEGMENT_GLOB))
        self._next_index = (
            int(existing[-1].stem.split("-")[1]) + 1 if existing else 0
        )
        try:
            self._open_segment()
        except OSError as exc:
            # A full or failing disk at construction time (typically
            # crash-recovery on the very volume that caused the crash)
            # must not prevent the session from coming up: the first
            # append retries the open, and *its* failure surfaces
            # through the normal ResourcePressure ladder instead of
            # aborting recovery.
            self.append_failures += 1
            self._record_failure("journal-open", exc)

    def _open_segment(self) -> None:
        path = self.directory / f"journal-{self._next_index:06d}.wal"
        self._next_index += 1
        fh = self._fs.open(path, "wb")
        try:
            self._fs.write(fh, JOURNAL_MAGIC)
        except OSError:
            fh.close()
            self._fs.unlink(path)  # a magic-less file is not a segment
            raise
        self._fh = fh
        self._segment_bytes = len(JOURNAL_MAGIC)

    def _record_failure(self, op: str, exc: OSError) -> None:
        if self._governor is not None and is_resource_error(exc):
            self._governor.record_failure(op, exc)

    def _append(self, rtype: int, payload: bytes) -> None:
        if self._closed:
            raise RuntimeError("journal already closed")
        if self._fh is None:
            # A previous failure abandoned the segment; start fresh.
            try:
                self._open_segment()
            except OSError as exc:
                self.append_failures += 1
                self._record_failure("journal-append", exc)
                raise
        record = _encode_record(rtype, payload)
        try:
            self._fs.write(self._fh, record)
            if self._fsync:
                self._fs.fsync(self._fh)
        except OSError as exc:
            self.append_failures += 1
            self._record_failure("journal-append", exc)
            # Self-heal: drop whatever partial bytes the failed write
            # left so the next append starts at a clean record boundary.
            try:
                self._fh.seek(self._segment_bytes)
                self._fh.truncate(self._segment_bytes)
                self._fh.flush()
            except OSError:
                try:
                    self._fh.close()
                except OSError:
                    pass
                self._fh = None  # next append rolls to a fresh segment
            raise
        self._segment_bytes += len(record)
        if self._segment_bytes >= self._segment_max:
            self._fh.close()
            self._fh = None  # stays None if the roll fails (retried later)
            try:
                self._open_segment()
            except OSError as exc:
                # The append itself landed in the closed segment; the
                # roll is retried by the next append.
                self._record_failure("journal-roll", exc)

    # -- appends (called with the session quiescent or locked) -----------

    def append_events(
        self, start: int, raws: list[RawEvent], data: bytes | memoryview | None = None
    ) -> None:
        """Journal ``raws`` from stream index ``start``.  ``data``, if given, is
        ``raws`` already packed (the bytes the daemon received), written as is."""
        body = pack_records(raws) if data is None else data
        payload = _EVENTS_HEADER.pack(start, len(raws)) + body
        with self._lock:
            self._append(REC_EVENTS, payload)
            self.appended_events += len(raws)

    def append_register(self, entries: list[dict[str, Any]]) -> None:
        payload = json.dumps(
            {"instances": entries}, separators=(",", ":")
        ).encode("utf-8")
        with self._lock:
            self._append(REC_REGISTER, payload)

    def append_fin(self) -> None:
        with self._lock:
            self._append(REC_FIN, b"")

    def checkpoint(self, state: dict[str, Any]) -> None:
        """Atomically persist ``state`` and prune the journal behind it.

        The caller guarantees ``state`` covers every event appended so
        far (``applied == received`` and the engine flushed); only then
        is deleting the old segments sound.

        A resource failure while writing the checkpoint leaves the old
        checkpoint and every journal segment in place (the ``.tmp`` +
        ``replace`` dance means a torn write is never visible), counts
        the failure, and re-raises; the caller skips the checkpoint and
        retries later.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("journal already closed")
            tmp = self.directory / (_CHECKPOINT_NAME + ".tmp")
            try:
                self._fs.write_text(tmp, json.dumps(state, separators=(",", ":")))
                self._fs.replace(tmp, self.directory / _CHECKPOINT_NAME)
            except OSError as exc:
                self.checkpoint_failures += 1
                self._record_failure("checkpoint", exc)
                try:
                    self._fs.unlink(tmp)
                except OSError:
                    pass
                raise
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            keep_from = self._next_index
            try:
                self._open_segment()
            except OSError as exc:
                self._record_failure("journal-roll", exc)
            for seg in self.directory.glob(_SEGMENT_GLOB):
                if int(seg.stem.split("-")[1]) < keep_from:
                    try:
                        self._fs.unlink(seg)
                    except OSError:
                        pass  # pruning is an optimization, not a promise
            self.checkpoints += 1

    def size_bytes(self) -> int:
        """On-disk footprint of this session (segments + checkpoint),
        for state-budget accounting."""
        total = 0
        for child in self.directory.glob(_SEGMENT_GLOB):
            total += self._fs.size(child)
        total += self._fs.size(self.directory / _CHECKPOINT_NAME)
        return total

    # -- reads (deferred-window replay) ----------------------------------

    def iter_event_windows(self, from_index: int) -> Iterator[tuple[int, list[RawEvent]]]:
        """Yield journaled ``(start, raws)`` windows covering stream
        indices ``>= from_index``, trimmed to start exactly there, each
        index once (:func:`_fresh_records`, the dedup recovery applies).
        Safe while the journal is open for appending: appends flush per
        record, so every complete record is visible to the reader."""
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
            segments = sorted(self.directory.glob(_SEGMENT_GLOB))
        records = (record for seg in segments for record in scan_segment(seg)[0])
        for rtype, window in _fresh_records(records, from_index):
            if rtype == REC_EVENTS:
                yield window

    def close(self) -> None:
        with self._lock:
            self._closed = True
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def delete(self) -> None:
        """Close and remove the whole session directory."""
        self.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self) -> "SessionJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _decode_events_payload(payload: bytes) -> tuple[int, list[RawEvent]]:
    start, count = _EVENTS_HEADER.unpack_from(payload)
    raws = unpack_records(memoryview(payload)[_EVENTS_HEADER.size :])
    if len(raws) != count:
        raise ValueError(f"journal EVENTS record declares {count} records, carries {len(raws)}")
    return start, raws


def _parse_records(
    data: bytes,
) -> tuple[list[tuple[int, memoryview]], int | None, bool]:
    """Whole records after a segment's magic; the byte offset of the
    first record that is not whole (``None`` when clean); and whether
    that record is damaged — a bad type, length or CRC — rather than cut
    short by the end of the file.  Payloads are views of ``data``."""
    view = memoryview(data)
    records: list[tuple[int, memoryview]] = []
    offset = _MAGIC_LEN
    while offset < len(data):
        if offset + _REC_HEADER.size > len(data):
            return records, offset, False
        rtype, length, crc = _REC_HEADER.unpack_from(data, offset)
        if rtype not in _KNOWN_RECORDS or length > MAX_JOURNAL_PAYLOAD:
            return records, offset, True
        end = offset + _REC_HEADER.size + length
        if end > len(data):
            return records, offset, False
        payload = view[offset + _REC_HEADER.size : end]
        if zlib.crc32(payload) != crc:
            return records, offset, True
        records.append((rtype, payload))
        offset = end
    return records, None, False


def scan_segment(
    path: str | Path, *, fs: RealFS | None = None
) -> tuple[list[tuple[int, memoryview]], int | None]:
    """Read one segment; returns ``(records, torn_offset)``.

    ``torn_offset`` is the byte offset of the first incomplete or
    CRC-failing record (``None`` when the file is wholly clean).
    Everything before it is trusted, everything after it is not.
    Raises :class:`ValueError` for a file that is not a journal segment.
    """
    path = Path(path)
    data = (fs if fs is not None else REAL_FS).read_bytes(path)
    try:
        parse_journal_magic(data[:_MAGIC_LEN])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return _parse_records(data)[:2]


def _fresh_records(
    records: Iterable[tuple[int, memoryview]], cursor: int
) -> Iterator[tuple[int, Any]]:
    """Journal records in append order, each EVENTS record decoded to
    ``(start, raws)`` and trimmed to stream indices ``>= cursor``.

    The cursor only advances, so retransmit overlap (a window that
    landed twice around a crash — a legal state) yields each stream
    index once; windows the cursor already covers are skipped without
    decoding.  A window starting past the cursor (a cursor gap) is
    yielded whole and the cursor jumps over the gap.
    """
    for rtype, payload in records:
        if rtype != REC_EVENTS:
            yield rtype, payload
            continue
        start, count = _EVENTS_HEADER.unpack_from(payload)
        if start + count <= cursor:
            continue
        start, raws = _decode_events_payload(payload)
        if start < cursor:
            raws = raws[cursor - start :]
            start = cursor
        cursor = start + len(raws)
        yield rtype, (start, raws)


# -- the state-dir layout: one walker, one scan, one repair ------------------

#: A fleet state dir keeps each worker's sessions under ``shard-NN``.
SHARD_DIR_PREFIX = "shard-"
_SHARD_DIR_RE = re.compile(rf"^{SHARD_DIR_PREFIX}(\d+)$")

#: Repair moves damaged artifacts here, inside their session dir —
#: moved, never deleted, so the loss stays inspectable.
QUARANTINE_DIRNAME = "quarantine"

#: Damage classes a scan reports (:attr:`SessionScan.damage`).
TORN_TAIL = "torn-tail"
DAMAGED_SEGMENT = "damaged-segment"
BAD_CHECKPOINT = "bad-checkpoint"
MISNAMED_CHECKPOINT = "misnamed-checkpoint"
CURSOR_GAP = "cursor-gap"

#: Fields every valid checkpoint carries.
_CHECKPOINT_FIELDS = ("version", "session", "received", "applied", "engine")


def shard_dir_name(index: int) -> str:
    return f"{SHARD_DIR_PREFIX}{index:02d}"


def shard_index(directory: Path) -> int | None:
    """The shard number of a ``shard-NN`` directory, else ``None``."""
    match = _SHARD_DIR_RE.match(directory.name)
    return int(match.group(1)) if match else None


def _is_session_dir(path: Path) -> bool:
    """A session dir is any directory holding a segment or a checkpoint."""
    return path.is_dir() and (
        (path / _CHECKPOINT_NAME).exists() or any(path.glob(_SEGMENT_GLOB))
    )


def walk_state_dir(root: str | Path, *, nested: bool = True) -> list[Path]:
    """Session directories under ``root``.

    With ``nested`` (the offline tools) ``root`` may be one bare session
    dir, a daemon state dir, or a fleet state dir whose sessions live in
    ``shard-NN`` subdirectories.  Without it (daemon start-up) only the
    sessions directly under ``root``: a daemon recovers its own state
    dir, never a neighbour shard's.
    """
    root = Path(root)
    if not root.is_dir():
        return []
    if nested and _is_session_dir(root):
        return [root]
    parents = [root]
    if nested:
        parents += sorted(
            d for d in root.iterdir() if d.is_dir() and shard_index(d) is not None
        )
    return [
        child
        for parent in parents
        for child in sorted(parent.iterdir())
        if _is_session_dir(child)
    ]


@dataclass
class SegmentScan:
    """One journal segment as a scan classified it.  Its bytes are not
    kept: recovery re-reads each segment it replays, one at a time."""

    path: Path
    #: Format generation its magic names; ``None`` for a non-journal header.
    version: int | None
    size: int = 0
    #: Offset of the first record that is not whole (``None``: clean).
    torn_offset: int | None = None
    #: That record fails its type, length or CRC check rather than
    #: running past the end of the file.
    corrupt: bool = False
    #: ``(start, count)`` of each whole EVENTS record, in append order.
    windows: list[tuple[int, int]] = field(default_factory=list)
    #: Holds a FIN record.
    finished: bool = False


@dataclass
class SessionScan:
    """A session directory read once and classified once: the
    checkpoint validated, each segment's format generation, window
    bounds and first bad record, the first damage, and the cursor
    continuity of what the repair policy keeps.  ``problems`` names each
    damage and what it costs."""

    directory: Path
    #: The filesystem the scan read through; replay re-reads through it.
    fs: RealFS = field(default=REAL_FS, repr=False)
    segments: list[SegmentScan] = field(default_factory=list)
    checkpoint_present: bool = False
    #: The checkpoint's JSON object when it parses (valid or not).
    checkpoint_state: dict[str, Any] | None = None
    checkpoint_version: int | None = None
    bad_checkpoint: bool = False
    misnamed_checkpoint: bool = False
    #: Set only when the whole checkpoint validates, engine included.
    checkpoint_loaded: bool = False
    checkpoint_received: int | None = None
    checkpoint_applied: int | None = None
    #: Replay continues into this: the valid checkpoint's engine, else
    #: a fresh one.
    engine: StreamingUseCaseEngine | None = None
    duplicates: int = 0
    #: Segments replay reads: those before the first damaged or
    #: newer-format one.
    kept: list[SegmentScan] = field(default_factory=list)
    #: Index of the first damaged segment; repair quarantines it and
    #: every later segment.
    damaged_from: int | None = None
    #: Highest stream index the kept state covers.
    received: int = 0
    finished: bool = False
    #: The kept state has no events for some cursor range.
    cursor_gap: bool = False
    problems: list[str] = field(default_factory=list)
    #: Artifacts written by a newer build (never damage, never repaired).
    future: list[str] = field(default_factory=list)

    @property
    def session_id(self) -> str:
        return self.directory.name

    @property
    def checkpoint_path(self) -> Path:
        return self.directory / _CHECKPOINT_NAME

    @property
    def torn(self) -> list[SegmentScan]:
        """Kept segments with a torn tail (or cut inside their magic)."""
        return [s for s in self.kept if s.torn_offset is not None]

    @property
    def damage(self) -> tuple[str, ...]:
        """The damage classes found, in a fixed order (empty: clean)."""
        found = (
            (TORN_TAIL, bool(self.torn)),
            (DAMAGED_SEGMENT, self.damaged_from is not None),
            (BAD_CHECKPOINT, self.bad_checkpoint),
            (MISNAMED_CHECKPOINT, self.misnamed_checkpoint),
            (CURSOR_GAP, self.cursor_gap),
        )
        return tuple(name for name, hit in found if hit)

    @property
    def versions(self) -> dict[str, Any]:
        """Every artifact's format generation; ``state`` is the oldest
        present (where migration starts), ``None`` when nothing is
        versioned."""
        segments = {s.path.name: s.version for s in self.segments}
        known = [v for v in segments.values() if v is not None]
        if self.checkpoint_version is not None:
            known.append(self.checkpoint_version)
        return {
            "segments": segments,
            "checkpoint": self.checkpoint_version,
            "state": min(known) if known else None,
        }

    def check_format(self) -> None:
        """Refuse state a newer build wrote: recovering or migrating it
        would silently destroy what this build cannot read."""
        if self.future:
            raise FutureFormatError(
                f"session {self.session_id}: {'; '.join(self.future)}; run "
                "'dsspy migrate' with the newer build or upgrade this one"
            )


def _scan_checkpoint(
    scan: SessionScan, versions_only: bool, knobs: dict[str, Any]
) -> None:
    path = scan.checkpoint_path
    if not path.exists():
        return
    scan.checkpoint_present = True

    def bad(problem: str) -> None:
        scan.bad_checkpoint = True
        scan.problems.append(problem)

    try:
        state = json.loads(scan.fs.read_text(path))
    except (OSError, ValueError) as exc:
        return bad(f"checkpoint unreadable: {exc}")
    if not isinstance(state, dict):
        return bad("checkpoint is not a JSON object")
    scan.checkpoint_state = state
    version = state.get("version")
    if not isinstance(version, int) or version < 1:
        return bad(f"checkpoint version invalid: {version!r}")
    scan.checkpoint_version = version
    if version > CHECKPOINT_VERSION:
        # Written by a newer build: its schema may have changed, so do
        # not validate it further.
        scan.future.append(
            f"checkpoint is format v{version}, newer than this build "
            f"reads (v{CHECKPOINT_VERSION})"
        )
        return
    if versions_only:
        return
    missing = [f for f in _CHECKPOINT_FIELDS if f not in state]
    if missing:
        return bad(f"checkpoint missing fields: {', '.join(missing)}")
    if state["session"] != scan.session_id:
        # Reported, never repaired: the directory was renamed or copied,
        # and only the operator knows which name is right.  Its state
        # is still the directory's, so recovery still loads it.
        scan.misnamed_checkpoint = True
        scan.problems.append(
            f"checkpoint names session {state['session']!r}, directory is "
            f"{scan.session_id!r}"
        )
    try:
        received = int(state["received"])
        applied = int(state["applied"])
        if applied < 0 or received < applied:
            raise ValueError(f"applied={applied} received={received}")
    except (TypeError, ValueError) as exc:
        return bad(f"checkpoint cursors invalid: {exc}")
    try:
        engine = engine_from_dict(state["engine"], **knobs)
        duplicates = int(state.get("duplicates", 0))
    except Exception as exc:  # schema damage surfaces as many exc types
        return bad(f"checkpoint engine does not deserialize: {exc}")
    # Only a wholly valid checkpoint moves where replay starts: the
    # cursors of one whose engine is lost cover events no engine holds.
    scan.checkpoint_loaded = True
    scan.checkpoint_received, scan.checkpoint_applied = received, applied
    scan.engine, scan.duplicates = engine, duplicates


def _scan_segment_file(path: Path, fs: RealFS, versions_only: bool) -> SegmentScan:
    if versions_only:
        with fs.open(path, "rb") as fh:
            return SegmentScan(path, _magic_version(fh.read(_MAGIC_LEN)))
    data = fs.read_bytes(path)
    segment = SegmentScan(path, _magic_version(data[:_MAGIC_LEN]), len(data))
    if segment.version is None:
        if JOURNAL_MAGIC.startswith(data):
            segment.torn_offset = 0  # cut inside its magic
        return segment
    if segment.version > JOURNAL_VERSION:
        return segment
    records, segment.torn_offset, segment.corrupt = _parse_records(data)
    for rtype, payload in records:
        if rtype == REC_EVENTS:
            segment.windows.append(_EVENTS_HEADER.unpack_from(payload))
        elif rtype == REC_FIN:
            segment.finished = True
    return segment


def scan_session_dir(
    directory: str | Path,
    *,
    fs: RealFS | None = None,
    versions_only: bool = False,
    **knobs: Any,
) -> SessionScan:
    """Read and classify one session directory; never writes.

    ``versions_only`` reads just each artifact's format generation (and
    the checkpoint's JSON), which is all migration needs.  ``knobs``
    (``thresholds``, ``detector_config``, ``rules``) shape the engine
    replay continues into, and must match the ones the session was
    recorded under.
    """
    scan = SessionScan(Path(directory), fs if fs is not None else REAL_FS)
    _scan_checkpoint(scan, versions_only, knobs)
    paths = sorted(scan.directory.glob(_SEGMENT_GLOB))
    stop: int | None = None  # first damaged or newer-format segment
    damage = ""
    for i, path in enumerate(paths):
        segment = _scan_segment_file(path, scan.fs, versions_only)
        scan.segments.append(segment)
        if segment.version is not None and segment.version > JOURNAL_VERSION:
            scan.future.append(
                f"{path.name}: segment format v{segment.version} is newer "
                f"than this build reads (v{JOURNAL_VERSION})"
            )
            stop = i if stop is None else stop
        if versions_only or stop is not None:
            continue
        last = i == len(paths) - 1
        if segment.version is None and segment.torn_offset is None:
            stop, scan.damaged_from = i, i
            damage = f"{path.name}: bad header, not a DSspy journal segment"
        elif segment.corrupt and not last:
            stop, scan.damaged_from = i, i
            damage = (
                f"{path.name}: damaged record mid-journal at byte "
                f"{segment.torn_offset} (not a crash tail: "
                f"{len(paths) - 1 - i} newer segment(s) exist)"
            )
        elif segment.torn_offset is not None:
            # A crash mid-append or inside the magic, or an append whose
            # failure the journal could not truncate away (it then rolled
            # to a new segment).
            scan.problems.append(
                f"{path.name}: torn tail ({segment.size - segment.torn_offset} "
                "bytes past the last whole record)"
            )
    if versions_only:
        return scan
    if scan.engine is None:
        scan.engine = StreamingUseCaseEngine(**knobs)
    scan.kept = scan.segments[:stop]

    # Cursor continuity of what replay will read.  Overlap is fine
    # (replay folds each index once); a gap means acked events are on
    # no disk.  Next to state a newer build wrote, continuity is not
    # checkable: its checkpoint may cover the gap.
    cursor = scan.checkpoint_applied or 0
    for segment in scan.kept:
        scan.finished = scan.finished or segment.finished
        for start, count in segment.windows:
            if start > cursor and not scan.future:
                scan.cursor_gap = True
                scan.problems.append(
                    f"{segment.path.name}: cursor gap {cursor}..{start}, "
                    f"{start - cursor} events lost"
                    + ("" if scan.checkpoint_loaded else ", no checkpoint covers them")
                )
            cursor = max(cursor, start + count)
    scan.received = cursor

    if scan.damaged_from is not None:
        moved = scan.segments[scan.damaged_from :]
        lost_to = max((a + n for s in moved for a, n in s.windows), default=0)
        scan.problems.append(
            f"{damage}; quarantining it and every later segment "
            f"({len(moved)} in all) loses "
            + (
                f"cursor range {scan.received}..{lost_to}"
                if lost_to > scan.received
                else f"whatever it held past cursor {scan.received}"
            )
        )
    return scan


def restamped_segment(
    path: str | Path, version: int, *, fs: RealFS | None = None
) -> bytes:
    """A segment's bytes with its magic naming format generation
    ``version`` (every generation shares the record layout)."""
    data = (fs if fs is not None else REAL_FS).read_bytes(path)
    return journal_magic(version) + data[_MAGIC_LEN:]


@dataclass
class RecoveredSession:
    """Everything a daemon needs to resurrect one session from disk."""

    session_id: str
    engine: StreamingUseCaseEngine
    received: int
    applied: int
    finished: bool
    checkpoint_loaded: bool
    events_replayed: int
    truncated_bytes: int
    duplicates: int = 0
    #: The scan's damage classes (:attr:`SessionScan.damage`).
    damage: tuple[str, ...] = ()
    #: The scan's problems, then what the repair did.
    notes: list[str] = field(default_factory=list)
    #: Names the repair moved into ``quarantine/``.
    quarantined: list[str] = field(default_factory=list)
    #: Other repair actions (truncations, the rebuilt checkpoint).
    repaired: list[str] = field(default_factory=list)
    #: Why the repair stopped short (a full or failing disk), else ``None``.
    repair_error: str | None = None


def _quarantine(directory: Path, path: Path, fs: RealFS) -> str:
    """Move ``path`` into the session's quarantine directory; returns
    the name it got there."""
    qdir = directory / QUARANTINE_DIRNAME
    fs.mkdir(qdir)
    target = qdir / path.name
    suffix = 0
    while target.exists():
        suffix += 1
        target = qdir / f"{path.name}.{suffix}"
    fs.replace(path, target)
    return target.name


def _repair(scan: SessionScan, recovered: RecoveredSession, fs: RealFS) -> None:
    """The one repair policy (see **Recovery** in the module docstring).
    The rebuilt checkpoint lands before any segment moves: a repair that
    a failing disk stops short leaves the damaged segments in place for
    the next scan to find and name again."""
    directory = scan.directory
    if scan.bad_checkpoint:
        recovered.quarantined.append(_quarantine(directory, scan.checkpoint_path, fs))
    if scan.damaged_from is not None or scan.bad_checkpoint or scan.cursor_gap:
        # Make the loss explicit on disk: the rebuilt checkpoint claims
        # exactly what survived, so the next scan finds it consistent.
        state = json.dumps(checkpoint_state(recovered), separators=(",", ":"))
        tmp = directory / (_CHECKPOINT_NAME + ".tmp")
        try:
            fs.write_text(tmp, state)
            fs.replace(tmp, scan.checkpoint_path)
        except OSError:
            fs.unlink(tmp)
            raise
        recovered.repaired.append(
            f"checkpoint rebuilt from journal replay "
            f"(received={recovered.received}, applied={recovered.applied})"
        )
    if scan.damaged_from is not None:
        for segment in scan.segments[scan.damaged_from :]:
            recovered.quarantined.append(_quarantine(directory, segment.path, fs))
    for segment in scan.torn:
        if segment.version is None:
            fs.unlink(segment.path)  # a magic-less file is not a segment
            recovered.repaired.append(f"{segment.path.name}: removed torn magic")
        else:
            with fs.open(segment.path, "r+b") as fh:
                fh.truncate(segment.torn_offset)
            recovered.repaired.append(f"{segment.path.name}: truncated torn tail")


def recover_session(scan: SessionScan, *, fs: RealFS | None = None) -> RecoveredSession:
    """Rebuild a scanned session — replay the kept journal records past
    the checkpoint into its engine — and repair its directory to match
    what was rebuilt, so that it rescans clean.

    The repair writes through ``fs`` (default: the real filesystem).
    When a write fails (a full disk, typically), the repair stops, the
    failure joins the notes and :attr:`RecoveredSession.repair_error`,
    and the rebuilt session is still returned: whatever damage the
    repair did not reach stays on disk for the next scan to find.
    """
    scan.check_format()
    engine = scan.engine
    notes = list(scan.problems)
    replayed = 0
    # One segment's bytes in memory at a time.
    records = (r for s in scan.kept for r in _parse_records(scan.fs.read_bytes(s.path))[0])
    for rtype, item in _fresh_records(records, scan.checkpoint_applied or 0):
        if rtype == REC_REGISTER:
            try:
                obj = json.loads(str(item, "utf-8"))
                for iid, kind, site, label in parse_register_entries(obj):
                    engine.register_instance(iid, kind, site=site, label=label)
            except ValueError as exc:
                notes.append(f"skipped bad REGISTER record: {exc}")
        elif rtype == REC_EVENTS:
            engine.feed_window(item[1])
            replayed += len(item[1])
    recovered = RecoveredSession(
        session_id=scan.session_id,
        engine=engine,
        received=scan.received,
        applied=scan.received,
        finished=scan.finished,
        checkpoint_loaded=scan.checkpoint_loaded,
        events_replayed=replayed,
        truncated_bytes=sum(s.size - s.torn_offset for s in scan.torn),
        duplicates=scan.duplicates,
        damage=scan.damage,
        notes=notes,
    )
    try:
        _repair(scan, recovered, fs if fs is not None else REAL_FS)
    except OSError as exc:
        recovered.repair_error = str(exc)
    recovered.notes += [
        f"moved {name} to {QUARANTINE_DIRNAME}/" for name in recovered.quarantined
    ] + recovered.repaired
    if recovered.repair_error is not None:
        recovered.notes.append(f"repair stopped short: {recovered.repair_error}")
    return recovered


def recover_session_dir(
    directory: str | Path, *, fs: RealFS | None = None, **knobs: Any
) -> RecoveredSession:
    """Scan and recover one session directory (see :func:`recover_session`;
    ``fs`` carries the repair's writes, the scan reads the real disk)."""
    return recover_session(scan_session_dir(directory, **knobs), fs=fs)


def warn_notes(session_id: str, notes: list[str]) -> None:
    """Surface recovery anomalies without failing the recovery."""
    for note in notes:
        warnings.warn(f"session {session_id}: {note}", RuntimeWarning, stacklevel=3)


__all__ = [
    "BAD_CHECKPOINT",
    "CHECKPOINT_VERSION",
    "CURSOR_GAP",
    "DAMAGED_SEGMENT",
    "FutureFormatError",
    "JOURNAL_MAGIC",
    "JOURNAL_MAGIC_PREFIX",
    "JOURNAL_VERSION",
    "MAX_JOURNAL_PAYLOAD",
    "MISNAMED_CHECKPOINT",
    "QUARANTINE_DIRNAME",
    "REC_EVENTS",
    "REC_FIN",
    "REC_REGISTER",
    "RecoveredSession",
    "SHARD_DIR_PREFIX",
    "SegmentScan",
    "SessionJournal",
    "SessionScan",
    "TORN_TAIL",
    "checkpoint_state",
    "engine_from_dict",
    "engine_to_dict",
    "journal_magic",
    "parse_journal_magic",
    "parse_register_entries",
    "recover_session",
    "recover_session_dir",
    "restamped_segment",
    "scan_segment",
    "scan_session_dir",
    "shard_dir_name",
    "shard_index",
    "walk_state_dir",
]
