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
from .phases import Run, segment


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


def classify_run(run: Run) -> PatternType:
    """Map a consistent run onto one of the eight pattern types.

    Front/back checks take precedence for insert/delete runs (an
    insert-front run has stationary positions, an append run ascends);
    read/write runs classify purely by direction.  Stationary read or
    write runs (re-touching one index) match none of the paper's types.
    """
    if run.category == "insert":
        if run.all_front:
            return PatternType.INSERT_FRONT
        if run.direction >= 0 and (run.all_back or run.direction > 0):
            return PatternType.INSERT_BACK
        return PatternType.UNCLASSIFIED
    if run.category == "delete":
        if run.all_front:
            return PatternType.DELETE_FRONT
        if run.direction <= 0 and (run.all_back or run.direction < 0):
            return PatternType.DELETE_BACK
        return PatternType.UNCLASSIFIED
    if run.category == "read":
        if run.direction > 0:
            return PatternType.READ_FORWARD
        if run.direction < 0:
            return PatternType.READ_BACKWARD
        return PatternType.UNCLASSIFIED
    if run.category == "write":
        if run.direction > 0:
            return PatternType.WRITE_FORWARD
        if run.direction < 0:
            return PatternType.WRITE_BACKWARD
        return PatternType.UNCLASSIFIED
    return PatternType.UNCLASSIFIED


def patterns_from_runs(
    runs: Iterable[Run], config: DetectorConfig
) -> tuple[AccessPattern, ...]:
    """Classify ``runs`` (in ``start`` order) into access patterns,
    dropping short runs and, unless kept, unclassified ones."""
    patterns: list[AccessPattern] = []
    for run in runs:
        if run.length < config.min_run_length:
            continue
        pattern_type = classify_run(run)
        if pattern_type is PatternType.UNCLASSIFIED and not config.keep_unclassified:
            continue
        patterns.append(
            AccessPattern(
                pattern_type=pattern_type,
                start=run.start,
                stop=run.stop,
                length=run.length,
                first_position=run.first_position,
                last_position=run.last_position,
                distinct_positions=run.distinct_positions,
                size_at_end=run.size_at_end,
                thread_id=run.thread_id,
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
