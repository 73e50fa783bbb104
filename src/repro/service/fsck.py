"""Offline deep verification and repair of daemon state directories.

``dsspy recover`` answers "rebuild whatever you can and keep going";
this module answers the operator's *other* question after a bad night
— "is this state directory telling the truth?" — without mutating
anything unless explicitly asked.

:func:`fsck_state_dir` walks a state directory (a single daemon's, a
fleet's ``shard-NN`` layout, or one bare session directory) and checks
every layer the durability design promises:

- **Segment integrity** — every journal segment has the right magic and
  every record passes its CRC.  A torn tail on the *last* segment is
  ordinary crash damage (recovery truncates it); damage anywhere else
  means bytes were altered after they were acked, which is corruption.
- **Checkpoint schema** — ``checkpoint.json`` parses, carries the
  expected fields, names its own session, and its serialized engine
  actually deserializes (:func:`~repro.service.durability.engine_from_dict`).
- **Cursor continuity** — EVENTS windows across the surviving segments
  form a contiguous (overlaps allowed, gaps not) ascending cursor
  range, and the first surviving window connects to the checkpoint's
  ``received`` cursor.  A gap means acked events exist nowhere on
  disk — exactly the silent loss the journal exists to prevent.
- **Shard ownership** — in a fleet layout, a session directory under
  ``shard-NN`` must hash there (:func:`~repro.service.router.shard_for`);
  a misplaced session would be invisible to its resuming client.
- **Format versions** — every artifact's format generation is reported
  (segment magic digits, checkpoint ``version``).  State written by a
  *newer* build is classified ``needs_migration`` (CLI exit 2), never
  "damaged" (exit 1): it is healthy data this build cannot read, and
  repair mode refuses to touch it.

The default run is strictly read-only and reports problems in a
machine-readable dict (the CLI exits non-zero on any).  With
``repair=True`` the scrubber makes the directory *recoverable* again:

- a benign torn tail is truncated back to the last whole record;
- a damaged segment is moved to ``quarantine/`` inside its session
  directory **together with every later segment** — records after the
  damage may be intact but their cursor continuity is broken, and
  replaying them would fabricate a gapless history that never existed;
- the checkpoint is re-derived from the surviving journal tail (or
  quarantined too when it is the damaged artifact), so a subsequent
  daemon start or ``dsspy recover`` sees a self-consistent session.

Quarantined files are moved, never deleted: the operator (or a future
forensic tool) can still inspect what was lost, and the post-repair
report counts every quarantined byte so the loss is accounted, not
silent.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Any

from .durability import (
    _CHECKPOINT_NAME,
    _MAGIC_LEN,
    _SEGMENT_GLOB,
    CHECKPOINT_VERSION,
    JOURNAL_MAGIC,
    REC_EVENTS,
    REC_FIN,
    FutureFormatError,
    _decode_events_payload,
    engine_from_dict,
    engine_to_dict,
    parse_journal_magic,
    recover_session_dir,
    scan_segment,
)
from .fleet import SHARD_DIR_PREFIX, scan_fleet_state_dir, shard_dir_name
from .router import shard_for

QUARANTINE_DIRNAME = "quarantine"

_SHARD_DIR_RE = re.compile(rf"^{SHARD_DIR_PREFIX}(\d+)$")

#: Checkpoint fields every valid checkpoint must carry.
_CHECKPOINT_FIELDS = ("version", "session", "received", "applied", "engine")


def _quarantine(session_dir: Path, path: Path) -> str:
    """Move ``path`` into the session's quarantine directory; returns
    the quarantined file's name.  Move, not delete — the damage stays
    inspectable and the report stays auditable."""
    qdir = session_dir / QUARANTINE_DIRNAME
    qdir.mkdir(exist_ok=True)
    target = qdir / path.name
    suffix = 0
    while target.exists():
        suffix += 1
        target = qdir / f"{path.name}.{suffix}"
    os.replace(path, target)
    return target.name


def _check_checkpoint(session_dir: Path, session_id: str) -> dict[str, Any]:
    """Validate ``checkpoint.json``; returns a sub-report with
    ``present`` / ``valid`` / ``problems`` / cursor fields."""
    out: dict[str, Any] = {
        "present": False,
        "valid": False,
        "version": None,
        "needs_migration": False,
        "received": None,
        "applied": None,
        "problems": [],
    }
    path = session_dir / _CHECKPOINT_NAME
    if not path.exists():
        return out
    out["present"] = True
    try:
        state = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        out["problems"].append(f"checkpoint unreadable: {exc}")
        return out
    if not isinstance(state, dict):
        out["problems"].append("checkpoint is not a JSON object")
        return out
    missing = [f for f in _CHECKPOINT_FIELDS if f not in state]
    if missing:
        out["problems"].append(f"checkpoint missing fields: {', '.join(missing)}")
        return out
    version = state["version"]
    if not isinstance(version, int) or version < 1:
        out["problems"].append(f"checkpoint version invalid: {version!r}")
        return out
    out["version"] = version
    if version > CHECKPOINT_VERSION:
        # Written by a newer build.  Not damage — do not validate the
        # (possibly changed) schema any further, and never quarantine
        # it; the classification is "needs migration by that build".
        out["needs_migration"] = True
        return out
    if state["session"] != session_id:
        out["problems"].append(
            f"checkpoint names session {state['session']!r}, directory is "
            f"{session_id!r}"
        )
    try:
        received = int(state["received"])
        applied = int(state["applied"])
        if applied < 0 or received < applied:
            raise ValueError(f"applied={applied} received={received}")
        out["received"], out["applied"] = received, applied
    except (TypeError, ValueError) as exc:
        out["problems"].append(f"checkpoint cursors invalid: {exc}")
        return out
    try:
        engine_from_dict(state["engine"])
    except Exception as exc:  # schema damage surfaces as many exc types
        out["problems"].append(f"checkpoint engine does not deserialize: {exc}")
        return out
    out["valid"] = not out["problems"]
    return out


def fsck_session_dir(directory: str | Path, *, repair: bool = False) -> dict[str, Any]:
    """Deep-verify (and optionally repair) one session directory.

    Returns a machine-readable report; ``report["ok"]`` is True when
    the directory is self-consistent *as it now stands* — after a
    repair run that quarantined damage and rebuilt the checkpoint, a
    directory is ok again even though ``problems`` records what was
    found.
    """
    directory = Path(directory)
    session_id = directory.name
    problems: list[str] = []
    quarantined: list[str] = []
    repaired: list[str] = []
    needs_migration: list[str] = []
    segment_versions: dict[str, int | None] = {}

    ckpt = _check_checkpoint(directory, session_id)
    problems.extend(ckpt["problems"])
    if ckpt["needs_migration"]:
        needs_migration.append(
            f"checkpoint is format v{ckpt['version']}, newer than this "
            f"build reads (v{CHECKPOINT_VERSION})"
        )

    segments = sorted(directory.glob(_SEGMENT_GLOB))
    # First pass: find the first damaged segment (bad magic, or a torn
    # record anywhere but the final segment's tail).
    damaged_from: int | None = None
    torn_tail: tuple[Path, int] | None = None
    scanned: list[tuple[Path, list[tuple[int, bytes]]]] = []
    for i, segment in enumerate(segments):
        try:
            segment_versions[segment.name] = parse_journal_magic(
                segment.read_bytes()[:_MAGIC_LEN]
            )
        except FutureFormatError:
            # A newer build's segment: not damage, not scannable here.
            # Continuity past it cannot be checked, so stop the scan —
            # the classification is "needs migration", never a repair.
            segment_versions[segment.name] = None
            needs_migration.append(
                f"{segment.name}: segment format newer than this build reads"
            )
            break
        except (ValueError, OSError):
            segment_versions[segment.name] = None  # scan below reports it
        try:
            records, torn_offset = scan_segment(segment)
        except (ValueError, OSError) as exc:
            problems.append(f"{segment.name}: unreadable ({exc})")
            damaged_from = i
            break
        if torn_offset is not None:
            if i == len(segments) - 1:
                # Crash damage on the live segment: benign, truncatable.
                size = segment.stat().st_size
                problems.append(
                    f"{segment.name}: torn tail ({size - torn_offset} bytes "
                    "past the last whole record)"
                )
                torn_tail = (segment, torn_offset)
                scanned.append((segment, records))
            else:
                problems.append(
                    f"{segment.name}: damaged record mid-journal at byte "
                    f"{torn_offset} (not a crash tail: "
                    f"{len(segments) - 1 - i} newer segment(s) exist)"
                )
                damaged_from = i
                break
        else:
            scanned.append((segment, records))

    # Cursor continuity over the surviving prefix.  Overlap is fine
    # (replay dedups); a gap means acked events are on no disk.
    cursor: int | None = ckpt["received"] if ckpt["valid"] else None
    received = cursor or 0
    finished = False
    for segment, records in scanned:
        for rtype, payload in records:
            if rtype == REC_FIN:
                finished = True
            if rtype != REC_EVENTS:
                continue
            start, raws = _decode_events_payload(payload)
            if cursor is None:
                if start > 0 and not ckpt["present"]:
                    problems.append(
                        f"{segment.name}: journal starts at cursor {start} "
                        "with no checkpoint to cover events before it"
                    )
                cursor = start
            elif start > cursor:
                problems.append(
                    f"{segment.name}: cursor gap — window starts at {start}, "
                    f"journal only covers through {cursor}"
                )
            cursor = max(cursor, start + len(raws))
            received = max(received, start + len(raws))

    if repair and needs_migration:
        # Never "repair" state a newer build wrote: quarantining or
        # rebuilding it would destroy data this build cannot read.
        # Migrate first (with the newer build), then fsck again.
        repair = False
    if repair:
        if damaged_from is not None:
            # Quarantine the damaged segment AND everything after it:
            # later records may be byte-perfect, but their cursor
            # continuity died with the damaged one.
            for segment in segments[damaged_from:]:
                quarantined.append(_quarantine(directory, segment))
        if torn_tail is not None and damaged_from is None:
            segment, torn_offset = torn_tail
            with segment.open("r+b") as fh:
                fh.truncate(torn_offset)
            repaired.append(f"{segment.name}: truncated torn tail")
        if ckpt["present"] and not ckpt["valid"]:
            quarantined.append(_quarantine(directory, directory / _CHECKPOINT_NAME))
        needs_checkpoint = (
            damaged_from is not None
            or (ckpt["present"] and not ckpt["valid"])
            or any("cursor gap" in p for p in problems)
        )
        if needs_checkpoint:
            # Re-derive state from whatever journal survived.  With the
            # checkpoint quarantined this replays from zero — slower,
            # but provably consistent with the surviving records.
            recovered = recover_session_dir(directory, truncate=True)
            state = {
                "version": CHECKPOINT_VERSION,
                "session": session_id,
                "received": recovered.received,
                "applied": recovered.applied,
                "duplicates": recovered.duplicates,
                "engine": engine_to_dict(recovered.engine),
            }
            tmp = directory / (_CHECKPOINT_NAME + ".tmp")
            tmp.write_text(json.dumps(state, separators=(",", ":")))
            os.replace(tmp, directory / _CHECKPOINT_NAME)
            repaired.append(
                f"checkpoint rebuilt from journal replay "
                f"(received={recovered.received}, applied={recovered.applied})"
            )
        if quarantined and not any(directory.glob(_SEGMENT_GLOB)):
            # Recovery scans only list directories that still hold a
            # segment; reseed an empty one so the session stays visible.
            last = max(int(seg.stem.split("-")[1]) for seg in segments)
            reseed = directory / f"journal-{last + 1:06d}.wal"
            reseed.write_bytes(JOURNAL_MAGIC)
            repaired.append(f"{reseed.name}: reseeded empty segment")
        ok = True  # whatever remains is self-consistent by construction
    else:
        ok = not problems

    return {
        "session": session_id,
        "path": str(directory),
        "ok": ok,
        "finished": finished,
        "segments": len(segments),
        "received": received,
        "checkpoint": {
            k: ckpt[k]
            for k in ("present", "valid", "version", "received", "applied")
        },
        "versions": {
            "segments": segment_versions,
            "checkpoint": ckpt["version"],
        },
        "needs_migration": needs_migration,
        "problems": problems,
        "quarantined": quarantined,
        "repaired": repaired,
    }


def fsck_state_dir(
    root: str | Path, *, repair: bool = False, shards: int | None = None
) -> dict[str, Any]:
    """Verify a whole state directory; see module docstring.

    ``root`` may be a daemon state dir, a fleet state dir with
    ``shard-NN`` subdirectories, or one bare session directory.
    ``shards`` overrides the fleet width used for ownership checks
    (default: the number of ``shard-NN`` directories present).
    """
    root = Path(root)
    report: dict[str, Any] = {
        "root": str(root),
        "repair": repair,
        "sessions": [],
        "problems": [],
        "ok": True,
    }
    if not root.is_dir():
        report["problems"].append(f"{root}: not a directory")
        report["ok"] = False
        return report

    if any(root.glob(_SEGMENT_GLOB)):
        session_dirs = [root]  # bare session directory
    else:
        session_dirs = scan_fleet_state_dir(root)

    shard_dirs = sorted(
        d for d in root.glob(SHARD_DIR_PREFIX + "*")
        if d.is_dir() and _SHARD_DIR_RE.match(d.name)
    )
    n_shards = shards if shards is not None else len(shard_dirs)

    for session_dir in session_dirs:
        entry = fsck_session_dir(session_dir, repair=repair)
        match = _SHARD_DIR_RE.match(session_dir.parent.name)
        if match and n_shards:
            actual = int(match.group(1))
            expected = shard_for(session_dir.name, n_shards)
            entry["shard"] = {"dir": actual, "expected": expected}
            if actual != expected:
                entry["problems"].append(
                    f"session {session_dir.name} lives in "
                    f"{session_dir.parent.name} but hashes to "
                    f"{shard_dir_name(expected)} of {n_shards}; a resuming "
                    "client cannot find it (fix: rerun the supervisor, "
                    "which rebalances on startup)"
                )
                entry["ok"] = False  # not repairable in place: a *move*
        report["sessions"].append(entry)
        report["ok"] = report["ok"] and entry["ok"]

    report["checked"] = len(report["sessions"])
    report["with_problems"] = sum(
        1 for s in report["sessions"] if s["problems"]
    )
    report["quarantined"] = sum(len(s["quarantined"]) for s in report["sessions"])
    report["needs_migration"] = sum(
        1 for s in report["sessions"] if s["needs_migration"]
    )
    return report


__all__ = [
    "QUARANTINE_DIRNAME",
    "fsck_session_dir",
    "fsck_state_dir",
]
