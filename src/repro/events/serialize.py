"""Profile persistence: JSON-lines export/import.

DSspy analyzes profiles post-mortem (§IV); persisting them decouples
capture from analysis entirely — capture on one machine, mine on
another, or archive a profile corpus for regression runs.  The format
is one JSON object per line: a header line per profile followed by its
events, so arbitrarily large captures stream without loading whole
files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .collector import EventCollector
from .profile import RuntimeProfile, site_from_dict, site_to_dict
from .types import AccessKind, OperationKind, StructureKind

FORMAT_VERSION = 1

_OPS = frozenset(int(op) for op in OperationKind)
_KINDS = frozenset(int(kind) for kind in AccessKind)


def _profile_header(profile: RuntimeProfile) -> dict:
    header: dict = {
        "type": "profile",
        "version": FORMAT_VERSION,
        "instance_id": profile.instance_id,
        "kind": profile.kind.value,
        "label": profile.label,
        "events": len(profile),
    }
    if profile.site is not None:
        header["site"] = site_to_dict(profile.site)
    return header


def dump_profiles(profiles: Iterable[RuntimeProfile], fh: TextIO) -> int:
    """Write profiles as JSON lines; returns the profile count.

    Each event is the compact positional encoding
    ``[seq, op, kind, position, size, thread]``.
    """
    count = 0
    for profile in profiles:
        fh.write(json.dumps(_profile_header(profile)) + "\n")
        for seq, (_, op, kind, position, size, thread_id, _) in profile.records():
            fh.write(json.dumps([seq, op, kind, position, size, thread_id]) + "\n")
        count += 1
    return count


def save_profiles(
    profiles: Iterable[RuntimeProfile], path: str | Path
) -> Path:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        dump_profiles(profiles, fh)
    return path


def save_collector(collector: EventCollector, path: str | Path) -> Path:
    """Persist everything a (finished) collector captured."""
    return save_profiles(collector.profiles(), path)


def load_profiles(fh: TextIO) -> Iterator[RuntimeProfile]:
    """Stream profiles back from a JSON-lines file."""
    current: RuntimeProfile | None = None
    remaining = 0
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if isinstance(record, dict):
            if record.get("type") != "profile":
                raise ValueError(f"line {lineno}: unexpected header {record!r}")
            if record.get("version") != FORMAT_VERSION:
                raise ValueError(
                    f"line {lineno}: unsupported version {record.get('version')!r}"
                )
            if current is not None:
                if remaining:
                    raise ValueError("truncated profile: missing events")
                yield current
            current = RuntimeProfile(
                record["instance_id"],
                kind=StructureKind(record["kind"]),
                site=site_from_dict(record.get("site")),
                label=record.get("label", ""),
            )
            remaining = record["events"]
        else:
            if current is None:
                raise ValueError(f"line {lineno}: event before any header")
            if remaining <= 0:
                raise ValueError(f"line {lineno}: more events than declared")
            seq, op, kind, position, size, thread_id = record
            if op not in _OPS or kind not in _KINDS:
                raise ValueError(f"line {lineno}: bad op/kind in {record!r}")
            current.append_record(
                seq,
                (current.instance_id, op, kind, position, size, thread_id, None),
            )
            remaining -= 1
    if current is not None:
        if remaining:
            raise ValueError("truncated profile: missing events")
        yield current


def read_profiles(path: str | Path) -> list[RuntimeProfile]:
    with Path(path).open("r", encoding="utf-8") as fh:
        return list(load_profiles(fh))
