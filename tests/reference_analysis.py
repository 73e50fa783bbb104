"""Test-only reference for the use-case feature math.

:class:`repro.usecases.features.InstanceFold` computes every
:class:`~repro.usecases.features.ProfileFeatures` scalar one event at a
time.  This module computes the same scalars the other way round —
vectorized numpy masks over a finished profile, the way the rules
originally read them — so the fold has an independent implementation
to be checked against.  Patterns are taken from the analysis as given;
only the scalar counters are recomputed here.
"""

from __future__ import annotations

import numpy as np

from repro.events.profile import NO_POSITION
from repro.events.types import AccessKind, OperationKind
from repro.patterns.model import PatternAnalysis
from repro.usecases.features import ProfileFeatures


def reference_features(analysis: PatternAnalysis) -> ProfileFeatures:
    """Extract :class:`ProfileFeatures` from a batch pattern analysis
    with whole-profile numpy masks."""
    profile = analysis.profile
    n = len(profile)
    if n == 0:
        return ProfileFeatures(
            kind=profile.kind, total_events=0, patterns=analysis.patterns
        )

    ops = profile.ops
    kinds = profile.kinds
    positions = profile.positions
    sizes = profile.sizes

    has_pos = positions != NO_POSITION
    at_front = has_pos & (positions == 0)
    at_back = has_pos & (positions >= sizes - 1)

    def _front_back(op: OperationKind) -> tuple[int, int]:
        mask = ops == op
        return (
            int(np.count_nonzero(mask & at_front)),
            int(np.count_nonzero(mask & at_back)),
        )

    insert_front, insert_back = _front_back(OperationKind.INSERT)
    delete_front, delete_back = _front_back(OperationKind.DELETE)
    read_front, read_back = _front_back(OperationKind.READ)

    sort_indices = np.flatnonzero(ops == OperationKind.SORT)

    # Write-without-read tail: non-Init events after the last read.
    reads = np.flatnonzero(kinds == AccessKind.READ)
    first_trailing = int(reads[-1]) + 1 if reads.size else 0
    trailing = [
        i
        for i in range(first_trailing, n)
        if OperationKind(int(ops[i])) is not OperationKind.INIT
    ]
    trailing_ops = frozenset(OperationKind(int(ops[i])) for i in trailing)
    trailing_positions = {
        int(positions[i]) for i in trailing if positions[i] != NO_POSITION
    }
    trailing_max_size = max((int(sizes[i]) for i in trailing), default=0)

    return ProfileFeatures(
        kind=profile.kind,
        total_events=n,
        read_kind_events=int(np.count_nonzero(kinds == AccessKind.READ)),
        op_counts=profile.op_histogram(),
        insert_front=insert_front,
        insert_back=insert_back,
        delete_front=delete_front,
        delete_back=delete_back,
        read_front=read_front,
        read_back=read_back,
        end_events=int(np.count_nonzero(at_front | at_back)),
        sort_count=int(sort_indices.size),
        last_sort_index=int(sort_indices[-1]) if sort_indices.size else -1,
        trailing_writes=len(trailing),
        trailing_ops=trailing_ops,
        trailing_distinct_positions=len(trailing_positions),
        trailing_max_size=trailing_max_size,
        patterns=analysis.patterns,
    )
