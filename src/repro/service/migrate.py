"""On-disk state-format migration between dsspy generations.

One registered step per ``vN -> vN+1`` hop; :func:`migrate_session_dir`
chains them until the directory reaches the target generation.  Every
file rewrite follows the PR 4 barrier discipline — write a
``.migrate-tmp`` sibling, fsync it, then :func:`os.replace` over the
original — so a crash (SIGKILL included) at *any* byte leaves each
artifact wholly old or wholly new, never a hybrid, and rerunning the
migration completes it.  Mixed per-file versions inside one directory
are a legal intermediate state: every reader accepts all generations
up to its own.

Downgrades are refused with :class:`DowngradeError` — there is no
step that can forget what a newer format recorded.  State written by
a build newer than this one surfaces the durability layer's
:class:`~repro.service.durability.FutureFormatError` ("needs
migration by the newer build"), never a rewrite attempt.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable

from .durability import (
    _CHECKPOINT_NAME,
    _MAGIC_LEN,
    _SEGMENT_GLOB,
    CHECKPOINT_VERSION,
    FutureFormatError,
    journal_magic,
    parse_journal_magic,
)
from .governor import REAL_FS, RealFS

#: Current overall state-format generation (journal and checkpoint
#: formats move in lockstep; a hop that bumps only one still gets its
#: own generation number so the chain stays linear).
STATE_VERSION = 2

#: Sibling suffix for in-flight rewrites.  Chosen so the temp file can
#: never match ``_SEGMENT_GLOB`` — a crash mid-migration must not
#: leave a file that recovery or fsck would scan as a segment.
TMP_SUFFIX = ".migrate-tmp"


class DowngradeError(RuntimeError):
    """Asked to migrate state *down* to an older format generation."""


#: ``from_version -> step`` registry; each step raises on failure and
#: is idempotent over partially migrated directories.
MIGRATIONS: dict[int, Callable[[Path, RealFS], None]] = {}


def migration(from_version: int):
    """Register a ``v{from} -> v{from+1}`` migration step."""

    def register(fn: Callable[[Path, RealFS], None]):
        MIGRATIONS[from_version] = fn
        return fn

    return register


def _replace_file(fs: RealFS, path: Path, data: bytes) -> None:
    """Crash-safe whole-file rewrite: temp sibling, fsync, rename."""
    tmp = path.with_name(path.name + TMP_SUFFIX)
    fh = fs.open(tmp, "wb")
    try:
        fs.write(fh, data)
        fs.fsync(fh)
    finally:
        fh.close()
    fs.replace(tmp, path)


def _checkpoint_version(state: Any) -> int:
    if not isinstance(state, dict):
        return 1
    version = state.get("version", 1)
    return version if isinstance(version, int) and version >= 1 else 1


def session_versions(
    directory: str | Path, *, fs: RealFS | None = None
) -> dict[str, Any]:
    """Per-artifact format generations of one session directory.

    ``state`` is the *oldest* generation present — migration starts
    from there.  ``None`` means the directory holds nothing versioned
    (already current by definition).  Future-generation artifacts
    raise :class:`FutureFormatError`.
    """
    fs = fs if fs is not None else REAL_FS
    directory = Path(directory)
    segments: dict[str, int] = {}
    for segment in sorted(directory.glob(_SEGMENT_GLOB)):
        header = fs.read_bytes(segment)[:_MAGIC_LEN]
        try:
            segments[segment.name] = parse_journal_magic(header)
        except FutureFormatError:
            raise
        except ValueError:
            continue  # not a journal (damage is fsck's department)
    checkpoint: int | None = None
    ckpt_path = directory / _CHECKPOINT_NAME
    if ckpt_path.exists():
        try:
            state = json.loads(fs.read_text(ckpt_path))
        except (OSError, ValueError):
            state = None  # unreadable: recovery replays; nothing to migrate
        if state is not None:
            checkpoint = _checkpoint_version(state)
            if checkpoint > CHECKPOINT_VERSION:
                raise FutureFormatError(
                    f"{ckpt_path}: checkpoint format v{checkpoint} is newer "
                    f"than this build writes (v{CHECKPOINT_VERSION})"
                )
    known = list(segments.values())
    if checkpoint is not None:
        known.append(checkpoint)
    return {
        "segments": segments,
        "checkpoint": checkpoint,
        "state": min(known) if known else None,
    }


@migration(1)
def _migrate_1_to_2(directory: Path, fs: RealFS) -> None:
    """v1 -> v2: stamp segment headers with their format generation
    and add the ``format`` build block to the checkpoint.  The record
    layout is unchanged, so the rewrite is mechanical — which is
    exactly why this hop exists: it proves the machinery the next
    record-format change will depend on."""
    from ..buildinfo import build_info

    for segment in sorted(directory.glob(_SEGMENT_GLOB)):
        data = fs.read_bytes(segment)
        try:
            version = parse_journal_magic(data[:_MAGIC_LEN])
        except ValueError:
            continue  # damaged header; fsck, not migrate, handles it
        if version != 1:
            continue  # already migrated (idempotent re-run)
        _replace_file(fs, segment, journal_magic(2) + data[_MAGIC_LEN:])
    ckpt_path = directory / _CHECKPOINT_NAME
    if ckpt_path.exists():
        try:
            state = json.loads(fs.read_text(ckpt_path))
        except (OSError, ValueError):
            return  # unreadable checkpoint: recovery replays instead
        if isinstance(state, dict) and _checkpoint_version(state) == 1:
            state["version"] = 2
            state["format"] = build_info()  # the build that migrated it
            _replace_file(
                fs, ckpt_path, json.dumps(state, separators=(",", ":")).encode()
            )


def migrate_session_dir(
    directory: str | Path,
    *,
    to: int = STATE_VERSION,
    fs: RealFS | None = None,
) -> dict[str, Any]:
    """Bring one session directory to format generation ``to``.

    Returns ``{"path", "from", "to", "steps"}``; ``from`` is ``None``
    for a directory with nothing to migrate.  Refuses downgrades.
    """
    fs = fs if fs is not None else REAL_FS
    directory = Path(directory)
    # Sweep crash leftovers first: a .migrate-tmp sibling is an
    # incomplete rewrite whose original is still intact.
    for leftover in directory.glob("*" + TMP_SUFFIX):
        fs.unlink(leftover)
    versions = session_versions(directory, fs=fs)
    current = versions["state"]
    result = {
        "path": str(directory),
        "from": current,
        "to": to,
        "steps": [],
    }
    if current is None:
        return result
    if current > to:
        raise DowngradeError(
            f"{directory}: state is format v{current}, target is v{to}; "
            "downgrades are not supported — run the newer dsspy build "
            "against this state directory instead"
        )
    while current < to:
        step = MIGRATIONS.get(current)
        if step is None:
            raise FutureFormatError(
                f"{directory}: no migration step registered for "
                f"v{current} -> v{current + 1}"
            )
        step(directory, fs)
        result["steps"].append(f"v{current}->v{current + 1}")
        current += 1
    return result


def migrate_state_dir(
    root: str | Path,
    *,
    to: int = STATE_VERSION,
    fs: RealFS | None = None,
) -> dict[str, Any]:
    """Migrate every session directory under ``root``.

    ``root`` may be a daemon state dir, a fleet state dir with
    ``shard-NN`` subdirectories, or one bare session directory — the
    same layouts ``dsspy fsck`` walks.
    """
    from .fleet import scan_fleet_state_dir

    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"{root}: not a directory")
    if any(root.glob(_SEGMENT_GLOB)) or (root / _CHECKPOINT_NAME).exists():
        session_dirs = [root]  # bare session directory
    else:
        session_dirs = scan_fleet_state_dir(root)
    report: dict[str, Any] = {
        "root": str(root),
        "to": to,
        "sessions": [],
        "migrated": 0,
    }
    for session_dir in session_dirs:
        entry = migrate_session_dir(session_dir, to=to, fs=fs)
        report["sessions"].append(entry)
        if entry["steps"]:
            report["migrated"] += 1
    return report


__all__ = [
    "DowngradeError",
    "MIGRATIONS",
    "STATE_VERSION",
    "TMP_SUFFIX",
    "migrate_session_dir",
    "migrate_state_dir",
    "migration",
    "session_versions",
]
