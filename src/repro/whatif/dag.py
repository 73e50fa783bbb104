"""Happens-before DAG reconstruction and work/span analysis.

The recorder captures, per instance, a totally ordered event stream
with precise thread ids (§IV).  Within one thread the stream is program
order; across threads, two accesses are ordered only when they
*conflict* (at least one writes — the classic data-race condition).
That relation is the instance's happens-before DAG, and its two scalar
summaries are the currency of causal profiling (TASKPROF, PAPERS.md):

``work``
    Total cost of all events (one abstract unit per access event —
    exactly the granularity :mod:`repro.parallel.transforms` uses).
``span``
    Length of the critical path through the DAG: the cost of the
    longest chain of events that *must* run sequentially no matter how
    many cores execute the rest.

``work / span`` is the instance's inherent parallelism; on ``k`` cores
the classic work/span bound caps its speedup at
``work / max(span, work / k)`` (:func:`potential_speedup`).

The DAG never needs to be materialized.  Because the recorded stream
serializes conflicting accesses in arrival order, the longest path
ending at each event depends only on three running maxima — the end of
its thread's own lane, the end of the latest write, and the end of the
latest read — so :class:`LaneSummary` holds work and span in O(1)
time and O(threads) memory per event.  It is part of every
:class:`~repro.usecases.features.InstanceFold`, whose one batched loop
(:meth:`~repro.usecases.features.InstanceFold.fold_raws`) advances the
lanes alongside the use-case features.  That is what lets the streaming
engine keep work/span without retaining history (the no-event-history
contract) and the batch what-if ranking read the lanes of the analysis
pass instead of folding each profile a second time, while
:func:`longest_path_span` keeps the O(n²)-edge textbook computation
around as the property-test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple, Sequence

from ..events.profile import RuntimeProfile


@dataclass(slots=True)
class LaneSummary:
    """O(threads) happens-before state of one instance, advanced by the
    analysis fold (:meth:`~repro.usecases.features.InstanceFold.fold_raws`).

    ``lane_end[tid]`` is the end time of thread ``tid``'s latest event
    (program order), ``last_write_end`` the end of the latest write on
    any thread, ``max_read_end`` the latest read end.  A read must
    follow its lane and every earlier write; a write must additionally
    follow every earlier read.  Each event costs one unit.
    """

    lane_end: dict[int, float] = field(default_factory=dict)
    last_write_end: float = 0.0
    max_read_end: float = 0.0
    work: int = 0

    @property
    def span(self) -> float:
        """Critical-path length: the latest end over all lanes."""
        return max(self.lane_end.values(), default=0.0)

    @property
    def parallelism(self) -> float:
        """Inherent parallelism ``work / span`` (1.0 when empty)."""
        span = self.span
        return self.work / span if span > 0 else 1.0

    @property
    def thread_count(self) -> int:
        return len(self.lane_end)

    def workspan(self) -> "WorkSpan":
        """Work and span of every event fed so far."""
        return WorkSpan(float(self.work), self.span)

    # -- serialization (checkpoint / SNAPSHOT payloads) ------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "lane_end": {str(tid): end for tid, end in self.lane_end.items()},
            "last_write_end": self.last_write_end,
            "max_read_end": self.max_read_end,
            "work": self.work,
        }

    @classmethod
    def from_dict(cls, obj: dict[str, Any] | None) -> "LaneSummary":
        """Rebuild from a serialized dict; ``None`` (a checkpoint
        written before lane summaries existed) yields an empty summary."""
        if not obj:
            return cls()
        return cls(
            lane_end={int(tid): float(end) for tid, end in obj["lane_end"].items()},
            last_write_end=float(obj["last_write_end"]),
            max_read_end=float(obj["max_read_end"]),
            work=int(obj["work"]),
        )


class WorkSpan(NamedTuple):
    """The two causal-profiling scalars of one instance.

    A named tuple: a batch report keeps one per instance, and a tuple is
    the cheapest immutable record to build."""

    work: float
    span: float

    @property
    def parallelism(self) -> float:
        return self.work / self.span if self.span > 0 else 1.0

    def speedup_on(self, cores: int) -> float:
        return potential_speedup(self.work, self.span, cores)


def potential_speedup(work: float, span: float, cores: int) -> float:
    """Work/span speedup bound on ``cores`` workers.

    A greedy scheduler finishes within ``max(span, work / cores)``
    (Brent's bound up to a constant), so the attainable speedup is
    ``work`` over that — 1.0 for a fully serial DAG (span == work),
    approaching ``cores`` for embarrassingly parallel ones.
    """
    if cores < 1:
        raise ValueError("cores must be >= 1")
    if work <= 0 or span <= 0:
        return 1.0
    return work / max(span, work / cores)


def fold_profile(profile: RuntimeProfile) -> WorkSpan:
    """Work/span of one batch profile's full event history: a thin call
    of the analysis fold (imported here: the fold builds on this
    module).  Callers that already ran the analysis read
    :attr:`~repro.usecases.features.ProfileFeatures.workspan` instead."""
    from ..usecases.features import InstanceFold

    return InstanceFold.of_profile(profile, 1).lanes.workspan()


def longest_path_span(events: Sequence[tuple[int, bool]]) -> float:
    """Brute-force critical path: materialize every happens-before edge
    and run the generic longest-path DP.

    ``events`` is ``[(thread_id, is_read), ...]`` in recorded order.
    Edges: program order within a thread; write→anything and
    anything→write across threads (conflicting accesses serialize in
    recorded order).  O(n²) — the property-test oracle for
    :class:`LaneSummary`, never the production path.
    """
    n = len(events)
    predecessors: list[list[int]] = [[] for _ in range(n)]
    for j in range(n):
        tid_j, read_j = events[j]
        for i in range(j):
            tid_i, read_i = events[i]
            if tid_i == tid_j:
                predecessors[j].append(i)  # program order
            elif not read_i or not read_j:
                predecessors[j].append(i)  # conflict: at least one writes
    dist = [0.0] * n
    for j in range(n):
        best = 0.0
        for i in predecessors[j]:
            if dist[i] > best:
                best = dist[i]
        dist[j] = best + 1.0
    return max(dist, default=0.0)


__all__ = [
    "LaneSummary",
    "WorkSpan",
    "fold_profile",
    "longest_path_span",
    "potential_speedup",
]
