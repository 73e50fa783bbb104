"""Merging capture archives from multiple processes or runs.

A parallel program profiled per-process (one collector each) produces
several archives; mining them together requires globally unique
instance ids and disjoint thread ids.  :func:`merge_profiles` renumbers
both and returns one combined profile list, preserving each profile's
internal event order.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from .profile import RuntimeProfile
from .serialize import read_profiles


def merge_profiles(
    groups: Sequence[Iterable[RuntimeProfile]],
) -> list[RuntimeProfile]:
    """Combine profile groups with renumbered instance and thread ids.

    Instance ids become dense (0..n-1 over the merged set); thread ids
    get a per-group offset so two processes' thread 0 stay distinct.
    Sequence numbers are kept group-local — cross-group event order is
    not meaningful without a shared clock, and no analysis compares
    seqs across instances.
    """
    merged: list[RuntimeProfile] = []
    next_instance = 0
    thread_offset = 0
    for group in groups:
        max_thread = -1
        for profile in group:
            renumbered = RuntimeProfile(
                next_instance,
                kind=profile.kind,
                site=profile.site,
                label=profile.label,
            )
            for seq, (_, op, kind, position, size, thread_id, wall) in profile.records():
                max_thread = max(max_thread, thread_id)
                raw = (next_instance, op, kind, position, size, thread_id + thread_offset, wall)
                renumbered.append_record(seq, raw)
            merged.append(renumbered)
            next_instance += 1
        thread_offset += max_thread + 1
    return merged


def merge_archives(paths: Sequence[str | Path]) -> list[RuntimeProfile]:
    """Load several JSONL archives and merge them."""
    return merge_profiles([read_profiles(p) for p in paths])
