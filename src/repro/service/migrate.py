"""On-disk state-format migration between dsspy generations.

One registered step per ``vN -> vN+1`` hop; :func:`migrate_session_dir`
chains them until the directory reaches the target generation.  Every
file rewrite follows the PR 4 barrier discipline — write a
``.migrate-tmp`` sibling, fsync it, then :func:`os.replace` over the
original — so a crash (SIGKILL included) at *any* byte leaves each
artifact wholly at one generation, never a hybrid, and rerunning the
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
    FutureFormatError,
    SessionScan,
    restamped_segment,
    scan_session_dir,
    walk_state_dir,
)
from .governor import REAL_FS, RealFS

#: Current overall state-format generation (journal and checkpoint
#: formats move in lockstep; a hop that bumps only one still gets its
#: own generation number so the chain stays linear).
STATE_VERSION = 3

#: Sibling suffix for in-flight rewrites.  Chosen so the temp file can
#: never pass for a segment or a checkpoint — a crash mid-migration
#: must not leave a file that recovery or fsck would scan.
TMP_SUFFIX = ".migrate-tmp"


class DowngradeError(RuntimeError):
    """Asked to migrate state *down* to an older format generation."""


#: ``from_version -> step`` registry; each step rewrites the artifacts
#: of a fresh :class:`~repro.service.durability.SessionScan`, raises on
#: failure, and is idempotent over partially migrated directories.
MIGRATIONS: dict[int, Callable[[SessionScan, RealFS], None]] = {}


def migration(from_version: int):
    """Register a ``v{from} -> v{from+1}`` migration step."""

    def register(fn: Callable[[SessionScan, RealFS], None]):
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


def _restamp(
    scan: SessionScan,
    fs: RealFS,
    old: int,
    rewrite_engine: Callable[[Any], None] | None = None,
) -> None:
    """One ``v{old} -> v{old+1}`` hop over the artifacts still at
    ``old``: restamp each segment header (every generation shares the
    record layout), and restamp the checkpoint with the ``format``
    block of the build that migrated it, first passing its engine dict
    to ``rewrite_engine``.  Artifacts at another generation are
    skipped, so a rerun completes an interrupted migration; damaged
    ones are left as they are (fsck, not migrate, handles them)."""
    from ..buildinfo import build_info

    for segment in scan.segments:
        if segment.version == old:
            _replace_file(fs, segment.path, restamped_segment(segment.path, old + 1, fs=fs))
    state = scan.checkpoint_state
    if state is not None and scan.checkpoint_version == old:
        if rewrite_engine is not None:
            rewrite_engine(state.get("engine"))
        state["version"] = old + 1
        state["format"] = build_info()
        _replace_file(
            fs,
            scan.checkpoint_path,
            json.dumps(state, separators=(",", ":")).encode(),
        )


@migration(1)
def _migrate_1_to_2(scan: SessionScan, fs: RealFS) -> None:
    """v1 -> v2: stamp segment headers with their format generation
    and add the ``format`` build block to the checkpoint.  The record
    layout is unchanged, so the rewrite is mechanical — which is
    exactly why this hop exists: it proved the machinery the v2 -> v3
    hop uses."""
    _restamp(scan, fs, 1)


def _count_run_positions(engine: Any) -> None:
    """Rewrite, in place, every run of a checkpoint's engine dict in
    the v3 shape (:meth:`~repro.patterns.phases.Run.from_dict` reads
    the older one); a fold that does not parse is left as it is."""
    from ..patterns.phases import Run

    for fold in engine.get("folds", ()) if isinstance(engine, dict) else ():
        try:
            builders = fold["builders"]
            for tid, run in builders.items():
                if run is not None:
                    builders[tid] = Run.from_dict(run).to_dict()
            fold["completed_runs"] = [
                Run.from_dict(run).to_dict() for run in fold["completed_runs"]
            ]
        except (KeyError, TypeError, AttributeError):
            continue


@migration(2)
def _migrate_2_to_3(scan: SessionScan, fs: RealFS) -> None:
    """v2 -> v3: the checkpoint stores each run's distinct positions
    as a count where v2 lists them (the count is all any reader uses);
    segments are only restamped."""
    _restamp(scan, fs, 2, _count_run_positions)


def migrate_session_dir(
    directory: str | Path,
    *,
    to: int = STATE_VERSION,
    fs: RealFS | None = None,
) -> dict[str, Any]:
    """Bring one session directory to format generation ``to``.

    Returns ``{"path", "from", "to", "steps"}``; ``from`` is ``None``
    for a directory with nothing to migrate.  Refuses downgrades, and
    state a newer build wrote (:class:`FutureFormatError`).
    """
    fs = fs if fs is not None else REAL_FS
    directory = Path(directory)
    # Sweep crash leftovers first: a .migrate-tmp sibling is an
    # incomplete rewrite whose original is still intact.
    for leftover in directory.glob("*" + TMP_SUFFIX):
        fs.unlink(leftover)
    scan = scan_session_dir(directory, fs=fs, versions_only=True)
    scan.check_format()
    current = scan.versions["state"]
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
        step(scan, fs)
        result["steps"].append(f"v{current}->v{current + 1}")
        current += 1
        if current < to:
            scan = scan_session_dir(directory, fs=fs, versions_only=True)
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
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"{root}: not a directory")
    report: dict[str, Any] = {
        "root": str(root),
        "to": to,
        "sessions": [],
        "migrated": 0,
    }
    for session_dir in walk_state_dir(root):
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
]
