"""Offline deep verification and repair of daemon state directories.

``dsspy recover`` rebuilds whatever it can and keeps going; ``dsspy
fsck`` answers whether a state directory is telling the truth.
:func:`fsck_state_dir` walks a state directory (a single daemon's, a
fleet's ``shard-NN`` layout, or one bare session directory) and reports
what :func:`~repro.service.durability.scan_session_dir` finds in each
session: the damage classes daemon start-up and ``dsspy recover`` act
on, and every artifact's format generation.  State written by a
*newer* build is ``needs_migration`` (CLI exit 2), never "damaged"
(exit 1), and repair refuses to touch it.  In a fleet layout each
session under ``shard-NN`` must also hash there
(:func:`~repro.service.router.shard_for`), or a resuming client would
never find it.

The default run is strictly read-only.  ``repair=True`` applies the one
repair policy, :func:`~repro.service.durability.recover_session`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from .durability import (
    QUARANTINE_DIRNAME,
    recover_session,
    scan_session_dir,
    shard_dir_name,
    shard_index,
    walk_state_dir,
)
from .router import shard_for


def fsck_session_dir(directory: str | Path, *, repair: bool = False) -> dict[str, Any]:
    """Deep-verify (and optionally repair) one session directory.

    Returns a machine-readable report; ``report["ok"]`` is True when
    the directory is self-consistent *as it now stands* — after a
    repair run that quarantined damage and rebuilt the checkpoint, a
    directory is ok again even though ``problems`` records what was
    found.
    """
    scan = scan_session_dir(directory)
    quarantined: list[str] = []
    repaired: list[str] = []
    # Never "repair" state a newer build wrote: quarantining or
    # rebuilding it would destroy data this build cannot read.
    # Migrate first (with the newer build), then fsck again.
    repair = repair and not scan.future
    problems = list(scan.problems)
    ok = not problems
    if repair:
        recovered = recover_session(scan)
        quarantined, repaired = recovered.quarantined, recovered.repaired
        # A repair leaves the directory self-consistent, bar a misnamed
        # checkpoint, which no repair renames, and bar a repair that a
        # failing disk stopped short.
        ok = not scan.misnamed_checkpoint and recovered.repair_error is None
        if recovered.repair_error is not None:
            problems.append(f"repair stopped short: {recovered.repair_error}")
    return {
        "session": scan.session_id,
        "path": str(scan.directory),
        "ok": ok,
        "finished": scan.finished,
        "segments": len(scan.segments),
        "received": scan.received,
        "checkpoint": {
            "present": scan.checkpoint_present,
            "valid": scan.checkpoint_loaded,
            "version": scan.checkpoint_version,
            "received": scan.checkpoint_received,
            "applied": scan.checkpoint_applied,
        },
        "versions": scan.versions,
        "damage": list(scan.damage),
        "needs_migration": list(scan.future),
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

    n_shards = shards if shards is not None else sum(
        1 for d in root.iterdir() if d.is_dir() and shard_index(d) is not None
    )
    for session_dir in walk_state_dir(root):
        entry = fsck_session_dir(session_dir, repair=repair)
        actual = shard_index(session_dir.parent)
        if actual is not None and n_shards:
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
