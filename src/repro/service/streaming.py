"""Streaming use-case analysis: each window is folded, then discarded.

A long-running daemon cannot keep every event until the program ends —
a day of profiling is billions of events — so
:class:`StreamingUseCaseEngine` keeps one
:class:`~repro.usecases.features.InstanceFold` per registered instance,
splits each arriving window by instance (keeping every instance's
order), folds each instance's share in one batched call, and discards
the window.  Memory is O(instances + runs) plus each instance's
write-without-read tail (``InstanceFold.trailing_positions``), whose
distinct positions never outnumber the instance's largest size.  A run
holds scalars only, so its length does not grow the fold or its
checkpoint.

Convergence with batch analysis is by construction, not by
approximation: the batch :class:`~repro.usecases.engine.UseCaseEngine`
runs the very same fold over a finished profile
(:func:`~repro.usecases.features.features_of`).  Feeding the same
events in the same per-instance order therefore yields the identical
features, and — through the shared
:func:`~repro.usecases.engine.evaluate_rules` — identical use cases
with identical evidence.
"""

from __future__ import annotations

from ..events.event import RawEvent
from ..events.profile import AllocationSite, RuntimeProfile
from ..events.types import StructureKind
from ..patterns.detector import DetectorConfig
from ..patterns.model import PatternAnalysis
from ..usecases.engine import UseCaseReport, evaluate_rules
from ..usecases.features import InstanceFold
from ..usecases.model import UseCase, UseCaseKind
from ..usecases.rules import ALL_RULES, Rule
from ..usecases.thresholds import PAPER_THRESHOLDS, Thresholds
from ..whatif.dag import WorkSpan


class StreamingUseCaseEngine:
    """Incremental counterpart of :class:`~repro.usecases.UseCaseEngine`.

    Feed it instance registrations and windowed raw-event batches in
    per-instance order; ask for a :class:`UseCaseReport` at any time.
    The report's profiles are *skeletons* — correct identity
    (id/kind/site/label) with no event history, because the history was
    never retained.  Everything the report formatters consume
    (identity, patterns, evidence) is present.

    ``peak_resident_events`` records the largest window ever held at
    once — windows are folded and discarded, asserted in tests.
    """

    def __init__(
        self,
        thresholds: Thresholds = PAPER_THRESHOLDS,
        detector_config: DetectorConfig | None = None,
        rules: tuple[Rule, ...] = ALL_RULES,
    ) -> None:
        self.thresholds = thresholds
        self.config = detector_config if detector_config is not None else DetectorConfig()
        self.rules = rules
        self._folds: dict[int, InstanceFold] = {}
        self.events_folded = 0
        self.peak_resident_events = 0
        self.unknown_instance_events = 0

    # -- ingestion -------------------------------------------------------

    def register_instance(
        self,
        instance_id: int,
        kind: StructureKind,
        site: AllocationSite | None = None,
        label: str = "",
    ) -> None:
        """Declare an instance before its events arrive.  Idempotent —
        a re-registration after session resume is a no-op."""
        if instance_id not in self._folds:
            self._folds[instance_id] = InstanceFold(
                instance_id, kind, site, label, self.config.max_gap
            )

    def feed(self, raw: RawEvent) -> None:
        """Fold one raw event tuple: a one-event window."""
        self.feed_window([raw])

    def feed_window(self, batch: list[RawEvent]) -> None:
        """Fold one window of events; the window is the only event
        storage that ever exists, and its size is recorded.

        Events are grouped by instance, each group in window order, and
        every group is folded in one call — per-instance folds are
        independent, so this equals folding event by event.  Events of
        unregistered instances are dropped and counted, never guessed
        at."""
        if len(batch) > self.peak_resident_events:
            self.peak_resident_events = len(batch)
        groups: dict[int, list[RawEvent]] = {}
        for raw in batch:
            instance_id = raw[0]
            group = groups.get(instance_id)
            if group is None:
                groups[instance_id] = [raw]
            else:
                group.append(raw)
        folds = self._folds
        for instance_id, group in groups.items():
            fold = folds.get(instance_id)
            if fold is None:
                self.unknown_instance_events += len(group)
                continue
            fold.fold_raws(group)
            self.events_folded += len(group)

    # -- reporting -------------------------------------------------------

    @property
    def instances_analyzed(self) -> int:
        return len(self._folds)

    def report(self) -> UseCaseReport:
        """Use cases over everything folded so far.

        Non-destructive: in-flight runs are inspected, not flushed, so
        streaming can continue after an interim report.
        """
        use_cases: list[UseCase] = []
        for instance_id in sorted(self._folds):
            fold = self._folds[instance_id]
            features = fold.features(self.config)
            fired = evaluate_rules(features, self.thresholds, self.rules)
            if not fired:
                continue
            profile = RuntimeProfile(
                instance_id, kind=fold.kind, site=fold.site, label=fold.label
            )
            analysis = PatternAnalysis(profile=profile, patterns=features.patterns)
            for rule, evidence in fired:
                use_cases.append(
                    UseCase(
                        kind=rule.kind,
                        profile=profile,
                        analysis=analysis,
                        recommendation=rule.recommend(evidence),
                        evidence=evidence,
                    )
                )
        return UseCaseReport(
            use_cases=tuple(use_cases), instances_analyzed=len(self._folds)
        )

    def workspans(self) -> dict[int, WorkSpan]:
        """Per-instance work/span from the folds' lane summaries (live
        SNAPSHOT path — no event history needed); instances without
        events are left out."""
        return {
            instance_id: fold.lanes.workspan()
            for instance_id, fold in self._folds.items()
            if fold.lanes.work > 0
        }

    def flagged_kinds(self) -> dict[int, list[str]]:
        """``{instance_id: [abbreviations]}`` for quick stats output."""
        out: dict[int, list[str]] = {}
        for use_case in self.report().use_cases:
            out.setdefault(use_case.instance_id, []).append(use_case.kind.abbreviation)
        return out


__all__ = ["StreamingUseCaseEngine", "UseCaseKind"]
