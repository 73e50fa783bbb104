"""Classification of runs into the eight access-pattern types.

``detect(profile)`` = segmentation (:mod:`~repro.patterns.phases`) +
classification (this module) and yields a
:class:`~repro.patterns.model.PatternAnalysis` ready for the use-case
engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..events.profile import RuntimeProfile
from .model import AccessPattern, PatternAnalysis, PatternType
from .phases import Run, RunSnapshot, segment


@dataclass(frozen=True, slots=True)
class DetectorConfig:
    """Tunables of the pattern detector.

    Attributes
    ----------
    max_gap:
        Maximum |Δposition| between consecutive events of a run; 1
        means strictly adjacent elements as in the paper's pattern
        definitions.
    min_run_length:
        Runs shorter than this are discarded ("adjacent element*s*" --
        a pattern needs at least two accesses).
    keep_unclassified:
        Whether runs matching none of the eight types survive as
        ``UNCLASSIFIED`` patterns (useful for exploration; the use-case
        rules ignore them either way).
    """

    max_gap: int = 1
    min_run_length: int = 2
    keep_unclassified: bool = True


# Enum members as module constants: a class-attribute lookup on an enum
# costs more than the comparison it feeds, and these run once per run.
_READ_FORWARD = PatternType.READ_FORWARD
_WRITE_FORWARD = PatternType.WRITE_FORWARD
_READ_BACKWARD = PatternType.READ_BACKWARD
_WRITE_BACKWARD = PatternType.WRITE_BACKWARD
_INSERT_FRONT = PatternType.INSERT_FRONT
_INSERT_BACK = PatternType.INSERT_BACK
_DELETE_FRONT = PatternType.DELETE_FRONT
_DELETE_BACK = PatternType.DELETE_BACK
_UNCLASSIFIED = PatternType.UNCLASSIFIED


def classify_run(run: Run | RunSnapshot) -> PatternType:
    """Map a consistent run onto one of the eight pattern types.

    Front/back checks take precedence for insert/delete runs (an
    insert-front run has stationary positions, an append run ascends);
    read/write runs classify purely by direction.  Stationary read or
    write runs (re-touching one index) match none of the paper's types.
    """
    category = run.category
    direction = run.direction
    if category == "insert":
        if run.all_front:
            return _INSERT_FRONT
        if direction >= 0 and (run.all_back or direction > 0):
            return _INSERT_BACK
        return _UNCLASSIFIED
    if category == "delete":
        if run.all_front:
            return _DELETE_FRONT
        if direction <= 0 and (run.all_back or direction < 0):
            return _DELETE_BACK
        return _UNCLASSIFIED
    if category == "read":
        if direction > 0:
            return _READ_FORWARD
        if direction < 0:
            return _READ_BACKWARD
        return _UNCLASSIFIED
    if category == "write":
        if direction > 0:
            return _WRITE_FORWARD
        if direction < 0:
            return _WRITE_BACKWARD
        return _UNCLASSIFIED
    return _UNCLASSIFIED


def patterns_from_runs(
    runs: Iterable[Run | RunSnapshot], config: DetectorConfig
) -> tuple[AccessPattern, ...]:
    """Classify ``runs`` (in ``start`` order) into access patterns,
    dropping short runs and, unless kept, unclassified ones."""
    min_length = config.min_run_length
    keep_unclassified = config.keep_unclassified
    patterns: list[AccessPattern] = []
    for run in runs:
        length = run.length
        if length < min_length:
            continue
        pattern_type = classify_run(run)
        if pattern_type is _UNCLASSIFIED and not keep_unclassified:
            continue
        # Positional, in field order: keyword arguments cost a third
        # more per pattern on a frozen dataclass.
        patterns.append(
            AccessPattern(
                pattern_type,
                run.start,
                run.stop,
                length,
                run.first_position,
                run.last_position,
                run.distinct_positions,
                run.size_at_end,
                run.thread_id,
            )
        )
    return tuple(patterns)


class PatternDetector:
    """Stateless pattern detector configured once, applied to many
    profiles (DSspy "loads the patterns ... and maps them onto each
    runtime profile", §IV)."""

    def __init__(self, config: DetectorConfig | None = None) -> None:
        self.config = config if config is not None else DetectorConfig()

    def detect(self, profile: RuntimeProfile) -> PatternAnalysis:
        """Segment and classify one profile."""
        runs = segment(profile, max_gap=self.config.max_gap)
        return PatternAnalysis(
            profile=profile, patterns=patterns_from_runs(runs, self.config)
        )


def detect(
    profile: RuntimeProfile, config: DetectorConfig | None = None
) -> PatternAnalysis:
    """Convenience one-shot detection with an optional config."""
    return PatternDetector(config).detect(profile)
