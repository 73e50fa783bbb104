"""Pattern-detection data model.

The paper derives eight primitive access-pattern types from 81 manually
inspected regularities (§III-A):

========================  ====================================================
``Read-Forward``          read adjacent elements, positions increase in time
``Write-Forward``         write adjacent elements, positions increase in time
``Read-Backward``         read adjacent elements, positions decrease in time
``Write-Backward``        write adjacent elements, positions decrease in time
``Insert-Front``          adjacent inserts, always at the front
``Insert-Back``           adjacent inserts, always from the end
``Delete-Front``          adjacent deletes, always at the front
``Delete-Back``           adjacent deletes, always from the end
========================  ====================================================

A detected pattern instance is an :class:`AccessPattern`: a maximal run
of consecutive events of one category whose positions move consistently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..events.profile import RuntimeProfile


class PatternType(enum.Enum):
    """The eight primitive access-pattern types, plus a bucket for runs
    that form a consistent phase without matching any of the eight
    (e.g. ascending inserts into the middle of a list)."""

    READ_FORWARD = "Read-Forward"
    WRITE_FORWARD = "Write-Forward"
    READ_BACKWARD = "Read-Backward"
    WRITE_BACKWARD = "Write-Backward"
    INSERT_FRONT = "Insert-Front"
    INSERT_BACK = "Insert-Back"
    DELETE_FRONT = "Delete-Front"
    DELETE_BACK = "Delete-Back"
    UNCLASSIFIED = "Unclassified"

    @property
    def is_read(self) -> bool:
        return self in READ_TYPES

    @property
    def is_write(self) -> bool:
        return self in WRITE_TYPES

    @property
    def is_insert(self) -> bool:
        return self in INSERT_TYPES

    @property
    def is_delete(self) -> bool:
        return self in DELETE_TYPES


# Type families as module constants, so per-pattern checks on the rule
# path are one tuple membership test (by identity) instead of a property
# call that rebuilds the tuple.
READ_TYPES = (PatternType.READ_FORWARD, PatternType.READ_BACKWARD)
WRITE_TYPES = (PatternType.WRITE_FORWARD, PatternType.WRITE_BACKWARD)
INSERT_TYPES = (PatternType.INSERT_FRONT, PatternType.INSERT_BACK)
DELETE_TYPES = (PatternType.DELETE_FRONT, PatternType.DELETE_BACK)


@dataclass(frozen=True, slots=True)
class AccessPattern:
    """One detected pattern instance (a maximal consistent run).

    Attributes
    ----------
    pattern_type:
        Which of the eight primitive types (or ``UNCLASSIFIED``).
    start, stop:
        Bounding event-index range ``[start, stop)`` within the profile.
        In multithreaded profiles the range may interleave with events
        of other threads; ``length`` counts only the run's own events.
    length:
        Number of events belonging to the run.
    first_position, last_position:
        Target positions of the first and last event of the run.
    distinct_positions:
        How many distinct indices the run touched.
    size_at_end:
        Structure size when the run ended; together with
        ``distinct_positions`` this gives the run's *coverage*, which
        the Frequent-Long-Read rule thresholds at 50%.
    thread_id:
        The thread whose consecutive accesses form this run.
    """

    pattern_type: PatternType
    start: int
    stop: int
    length: int
    first_position: int
    last_position: int
    distinct_positions: int
    size_at_end: int
    thread_id: int

    @property
    def coverage(self) -> float:
        """Fraction of the structure the run touched (0 when empty)."""
        if self.size_at_end <= 0:
            return 0.0
        return min(self.distinct_positions / self.size_at_end, 1.0)

    @property
    def span(self) -> int:
        """Width of the position interval the run traversed.

        For a strict-adjacency directional run (``max_gap=1``) this
        equals ``distinct_positions``; under a decimated capture with a
        widened ``max_gap`` it keeps estimating the *original* extent
        of the run, because sampling drops events but not distance."""
        return abs(self.last_position - self.first_position) + 1

    @property
    def span_coverage(self) -> float:
        """Fraction of the structure the run *traversed* (by span).

        Identical to :attr:`coverage` for strict-adjacency directional
        runs; the sampling-robust estimator for decimated captures,
        where ``distinct_positions`` undercounts by the stride."""
        if self.size_at_end <= 0:
            return 0.0
        return min(self.span / self.size_at_end, 1.0)

    def describe(self) -> str:
        return (
            f"{self.pattern_type.value} events[{self.start}:{self.stop}] "
            f"len={self.length} pos {self.first_position}->{self.last_position} "
            f"coverage={self.coverage:.0%}"
        )


@dataclass(frozen=True, slots=True)
class PatternAnalysis:
    """Everything the use-case engine needs to know about one profile."""

    profile: RuntimeProfile
    patterns: tuple[AccessPattern, ...]

    def by_type(self, pattern_type: PatternType) -> list[AccessPattern]:
        return [p for p in self.patterns if p.pattern_type is pattern_type]

    def count(self, pattern_type: PatternType) -> int:
        return sum(1 for p in self.patterns if p.pattern_type is pattern_type)

    @property
    def total_events(self) -> int:
        return len(self.profile)

    def events_in(self, predicate) -> int:
        """Total events across patterns selected by ``predicate``."""
        return sum(p.length for p in self.patterns if predicate(p))

    def fraction_in(self, predicate) -> float:
        """Share of the profile's events inside matching patterns.

        The paper expresses thresholds like "insertion phases >30% of
        runtime"; with logical time, runtime share is event share.
        """
        if not self.profile:
            return 0.0
        return self.events_in(predicate) / len(self.profile)

    def histogram(self) -> dict[PatternType, int]:
        out: dict[PatternType, int] = {}
        for p in self.patterns:
            out[p.pattern_type] = out.get(p.pattern_type, 0) + 1
        return out
