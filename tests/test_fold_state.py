"""The streaming fold's state does not grow with the length of a run.

A run keeps the count of its distinct positions, not the positions, so
a checkpoint of ten forward scans costs the same over 10^4 elements as
over 10^5.  What is left to grow is the write-without-read tail's set
of positions, bounded by the instance's largest size: 10^6 appends
checkpoint in about half of the 13,778,570 bytes they took when each
run listed its positions.
"""

from __future__ import annotations

import json

from repro.events import AccessKind, OperationKind, StructureKind
from repro.service import StreamingUseCaseEngine, engine_to_dict

WINDOW = 4096
READ = (int(OperationKind.READ), int(AccessKind.READ))
APPEND = (int(OperationKind.INSERT), int(AccessKind.WRITE))


def _checkpoint_bytes(engine: StreamingUseCaseEngine) -> int:
    """Size of the engine as ``checkpoint.json`` serializes it."""
    return len(json.dumps(engine_to_dict(engine), separators=(",", ":")))


def _engine() -> StreamingUseCaseEngine:
    engine = StreamingUseCaseEngine()
    engine.register_instance(1, StructureKind.LIST, None, "xs")
    return engine


def _forward_scans(n: int, scans: int = 10) -> StreamingUseCaseEngine:
    engine = _engine()
    for _ in range(scans):
        for lo in range(0, n, WINDOW):
            hi = min(n, lo + WINDOW)
            engine.feed_window([(1, *READ, i, n, 0, None) for i in range(lo, hi)])
    return engine


def _appends(n: int) -> StreamingUseCaseEngine:
    engine = _engine()
    for lo in range(0, n, WINDOW):
        hi = min(n, lo + WINDOW)
        engine.feed_window([(1, *APPEND, i, i + 1, 0, None) for i in range(lo, hi)])
    return engine


def test_fold_state_does_not_grow_with_run_length():
    small, large = _forward_scans(10**4), _forward_scans(10**5)
    assert large.events_folded == 10 * 10**5
    # Ten runs each way; only the digits of the bigger numbers differ.
    (small_fold,) = engine_to_dict(small)["folds"]
    (large_fold,) = engine_to_dict(large)["folds"]
    assert len(small_fold["completed_runs"]) == len(large_fold["completed_runs"]) == 9
    assert abs(_checkpoint_bytes(large) - _checkpoint_bytes(small)) < 128

    appends = _appends(10**6)
    (fold,) = engine_to_dict(appends)["folds"]
    (run,) = fold["builders"].values()
    assert run["length"] == run["distinct_positions"] == 10**6
    # The trailing write set is all that grows: one entry per position.
    assert len(fold["trailing_positions"]) == 10**6
    assert _checkpoint_bytes(appends) <= 7_000_000
