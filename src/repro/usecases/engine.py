"""The use-case engine: profiles → patterns → use cases → advice.

This is DSspy's final pipeline stage (§IV): "the specified use cases and
parameters are loaded and applied to the access patterns", and the
result set — use cases plus recommended actions — is what the engineer
reviews.  :class:`UseCaseReport` additionally computes the search-space
reduction the evaluation quantifies (Table IV).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..events.collector import EventCollector
from ..events.profile import RuntimeProfile
from ..events.sampling import SamplingPolicy
from ..patterns.detector import DetectorConfig, PatternDetector
from ..patterns.model import PatternAnalysis
from .features import ProfileFeatures, features_of
from .model import UseCase, UseCaseKind
from .rules import ALL_RULES, Evidence, Rule
from .thresholds import PAPER_THRESHOLDS, Thresholds


def evaluate_rules(
    features: ProfileFeatures,
    thresholds: Thresholds,
    rules: tuple[Rule, ...] = ALL_RULES,
) -> list[tuple[Rule, Evidence]]:
    """Apply a rule set to one profile's features.

    Categories are exclusive where one subsumes another:
    Sort-After-Insert implies a long insertion phase, so when SAI fires,
    the plain Long-Insert diagnosis is suppressed (its recommendation —
    parallelize the insert — is contained in SAI's).

    Shared by the batch :class:`UseCaseEngine` and the streaming
    :class:`~repro.service.streaming.StreamingUseCaseEngine`, so a
    use-case decision is made in exactly one place.
    """
    fired: list[tuple[Rule, Evidence]] = []
    for rule in rules:
        evidence = rule.evaluate_features(features, thresholds)
        if evidence is not None:
            fired.append((rule, evidence))
    if any(rule.kind is UseCaseKind.SORT_AFTER_INSERT for rule, _ in fired):
        fired = [
            (rule, ev) for rule, ev in fired if rule.kind is not UseCaseKind.LONG_INSERT
        ]
    return fired


@dataclass(frozen=True)
class UseCaseReport:
    """All use cases found in one capture session.

    Attributes
    ----------
    use_cases:
        Every detected use case, in (instance, rule) order.
    instances_analyzed:
        Number of data structure instances in the session — the
        denominator of the search-space reduction.
    """

    use_cases: tuple[UseCase, ...]
    instances_analyzed: int

    # -- search-space metrics (Table IV) --------------------------------

    @property
    def instances_flagged(self) -> int:
        """Distinct instances referenced by at least one use case."""
        return len({u.instance_id for u in self.use_cases})

    @property
    def search_space_reduction(self) -> float:
        """1 − flagged/analyzed: the share of instances an engineer no
        longer needs to look at (76.92% across the paper's benchmark)."""
        if self.instances_analyzed == 0:
            return 0.0
        return 1.0 - self.instances_flagged / self.instances_analyzed

    # -- convenience selectors --------------------------------------------

    @property
    def parallel_use_cases(self) -> list[UseCase]:
        return [u for u in self.use_cases if u.parallel]

    @property
    def sequential_use_cases(self) -> list[UseCase]:
        return [u for u in self.use_cases if not u.parallel]

    def of_kind(self, kind: UseCaseKind) -> list[UseCase]:
        return [u for u in self.use_cases if u.kind is kind]

    def count_by_kind(self) -> dict[UseCaseKind, int]:
        out: dict[UseCaseKind, int] = {}
        for u in self.use_cases:
            out[u.kind] = out.get(u.kind, 0) + 1
        return out

    def for_instance(self, instance_id: int) -> list[UseCase]:
        return [u for u in self.use_cases if u.instance_id == instance_id]


@dataclass
class UseCaseEngine:
    """Configured analysis pipeline.

    Parameters
    ----------
    thresholds:
        Rule thresholds; defaults to the paper's published values.
    detector:
        Pattern detector; defaults to strict adjacency (max_gap=1) and
        2-event minimum runs.
    rules:
        The rule set to apply; defaults to all eight.  Restricting to
        :data:`~repro.usecases.rules.PARALLEL_RULES` reproduces the
        evaluation sections, which only count the five parallel kinds.
    """

    thresholds: Thresholds = PAPER_THRESHOLDS
    detector: PatternDetector = field(
        default_factory=lambda: PatternDetector(DetectorConfig())
    )
    rules: tuple[Rule, ...] = ALL_RULES

    def analyze_profile(self, profile: RuntimeProfile) -> list[UseCase]:
        """Fold one profile (:func:`features_of`) and apply the rules
        (:func:`evaluate_rules`)."""
        features = features_of(profile, self.detector.config)
        analysis = PatternAnalysis(profile=profile, patterns=features.patterns)
        return [
            UseCase(
                kind=rule.kind,
                profile=profile,
                analysis=analysis,
                recommendation=rule.recommend(evidence),
                evidence=evidence,
            )
            for rule, evidence in evaluate_rules(features, self.thresholds, self.rules)
        ]

    def analyze(self, profiles: list[RuntimeProfile]) -> UseCaseReport:
        """Analyze a batch of profiles into a report.

        Instances whose profile recorded no events still count toward
        the analyzed total — they are part of the search space the
        engineer would otherwise inspect.
        """
        use_cases: list[UseCase] = []
        for profile in profiles:
            use_cases.extend(self.analyze_profile(profile))
        return UseCaseReport(
            use_cases=tuple(use_cases), instances_analyzed=len(profiles)
        )

    def analyze_collector(self, collector: EventCollector) -> UseCaseReport:
        """Analyze everything a collector captured.

        When the collector recorded under a decimating sampling policy,
        each instance is routed to the engine that matches how it was
        captured — callers using the default engine on a sampled
        capture get correct results without knowing about sampling:

        - Instances the policy captured **exactly** (everything under a
          :class:`~repro.events.sampling.Burst` policy's keep limit)
          are analyzed with this engine, unmodified.
        - Decimated instances are analyzed with the recalibrated
          :meth:`for_sampling` engine, after dropping the full-rate
          burst prefix from the profile: the prefix over-represents
          whatever the instance did first (usually its initial fill),
          which would bias every fraction-based rule, while the
          remaining tail is a uniform 1-in-stride sample the
          recalibrated thresholds are built for.
        """
        policy = collector.sampling
        profiles = collector.profiles()
        if (
            policy is None
            or policy.stride <= 1
            or self.thresholds is not PAPER_THRESHOLDS
            or self.detector.config.max_gap >= 2 * policy.stride - 1
        ):
            return self.analyze(profiles)
        sampled_engine = UseCaseEngine.for_sampling(policy, rules=self.rules)
        use_cases: list[UseCase] = []
        for profile in profiles:
            if policy.is_exact(profile.instance_id):
                use_cases.extend(self.analyze_profile(profile))
            else:
                prefix = policy.exact_prefix(profile.instance_id)
                tail = profile.slice(prefix, len(profile)) if prefix else profile
                use_cases.extend(sampled_engine.analyze_profile(tail))
        return UseCaseReport(
            use_cases=tuple(use_cases), instances_analyzed=len(profiles)
        )

    @classmethod
    def for_sampling(
        cls,
        policy: SamplingPolicy,
        rules: tuple[Rule, ...] = ALL_RULES,
        thresholds: Thresholds = PAPER_THRESHOLDS,
    ) -> UseCaseEngine:
        """An engine calibrated for a decimated capture.

        Jittered 1-in-N decimation stretches a Read-Forward scan's
        position delta from 1 to anywhere in ``[1, 2N-1]`` (adjacent
        samples sit at pseudo-random offsets of consecutive N-blocks)
        and shrinks every event count by ~N, so the paper's
        strict-adjacency detector (``max_gap=1``) and absolute count
        thresholds would both go blind.  This constructor widens
        ``max_gap`` to ``2*stride - 1`` and recalibrates the thresholds
        via :meth:`~repro.usecases.thresholds.Thresholds.decimated`
        (event counts scale, pattern counts and positional spans don't),
        which is what keeps the detected use-case sets stable between
        full and sampled captures.
        """
        stride = policy.stride
        if stride <= 1:
            return cls(thresholds=thresholds, rules=rules)
        return cls(
            thresholds=thresholds.decimated(stride),
            detector=PatternDetector(DetectorConfig(max_gap=2 * stride - 1)),
            rules=rules,
        )
