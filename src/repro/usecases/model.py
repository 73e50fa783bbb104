"""Use-case and recommendation data model.

A *use case* is "a statement on how the data structure is used together
with a recommendation on how to improve it" (§III-B).  Five kinds carry
parallel potential; three are sequential optimizations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..events.profile import AllocationSite, RuntimeProfile
from ..patterns.model import PatternAnalysis

if TYPE_CHECKING:
    from .features import ProfileFeatures


class TransformHint(enum.Enum):
    """Machine-readable category of the recommended code transform.

    The paper notes automated transformation is possible "if the
    recommended action is clearly specified"; these hints are that
    specification, and ``repro.parallel`` implements the parallel ones.
    """

    PARALLELIZE_INSERT = "parallelize the insert operation"
    PARALLEL_QUEUE = "employ a parallel queue as data container"
    PARALLELIZE_INSERT_AND_SEARCH = "parallelize both insert and search phases"
    PARALLEL_SEARCH_OR_TREE = (
        "employ a search-optimized data structure or parallelize the search "
        "by splitting the list into chunks searched in parallel"
    )
    CHECK_ORIGIN_PARALLEL_SEARCH = (
        "check the access origin; if it is a loop looking for an element, "
        "transform it into a parallel search operation"
    )
    USE_DYNAMIC_STRUCTURE = "switch the array to a dynamic data structure (list)"
    USE_STACK = "use a stack implementation instead of a list"
    REMOVE_WRITES = "check whether the trailing write accesses are necessary"


class UseCaseKind(enum.Enum):
    """The eight use cases with their paper abbreviations."""

    LONG_INSERT = ("Long-Insert", "LI", True, TransformHint.PARALLELIZE_INSERT)
    IMPLEMENT_QUEUE = ("Implement-Queue", "IQ", True, TransformHint.PARALLEL_QUEUE)
    SORT_AFTER_INSERT = (
        "Sort-After-Insert",
        "SAI",
        True,
        TransformHint.PARALLELIZE_INSERT_AND_SEARCH,
    )
    FREQUENT_SEARCH = (
        "Frequent-Search",
        "FS",
        True,
        TransformHint.PARALLEL_SEARCH_OR_TREE,
    )
    FREQUENT_LONG_READ = (
        "Frequent-Long-Read",
        "FLR",
        True,
        TransformHint.CHECK_ORIGIN_PARALLEL_SEARCH,
    )
    INSERT_DELETE_FRONT = (
        "Insert/Delete-Front",
        "IDF",
        False,
        TransformHint.USE_DYNAMIC_STRUCTURE,
    )
    STACK_IMPLEMENTATION = (
        "Stack-Implementation",
        "SI",
        False,
        TransformHint.USE_STACK,
    )
    WRITE_WITHOUT_READ = (
        "Write-Without-Read",
        "WWR",
        False,
        TransformHint.REMOVE_WRITES,
    )

    def __init__(
        self, label: str, abbreviation: str, parallel: bool, hint: TransformHint
    ) -> None:
        self.label = label
        self.abbreviation = abbreviation
        self.parallel = parallel
        self.hint = hint

    @classmethod
    def parallel_kinds(cls) -> tuple["UseCaseKind", ...]:
        """The five use cases with parallel potential, in paper order."""
        return tuple(k for k in cls if k.parallel)

    @classmethod
    def sequential_kinds(cls) -> tuple["UseCaseKind", ...]:
        return tuple(k for k in cls if not k.parallel)

    @classmethod
    def from_abbreviation(cls, abbreviation: str) -> "UseCaseKind":
        for kind in cls:
            if kind.abbreviation == abbreviation.upper():
                return kind
        raise KeyError(abbreviation)


@dataclass(frozen=True, slots=True)
class Recommendation:
    """Actionable advice attached to a detected use case."""

    hint: TransformHint
    parallel: bool
    rationale: str

    @property
    def action(self) -> str:
        return self.hint.value

    def describe(self) -> str:
        flavour = "parallelization" if self.parallel else "sequential optimization"
        return f"[{flavour}] {self.action} — {self.rationale}"


@dataclass(frozen=True, slots=True)
class UseCase:
    """One detected use case on one data structure instance.

    ``evidence`` carries the rule's measured quantities (e.g. the
    insert-phase fraction that crossed the threshold) so reports can
    state *why* the recommendation fires -- the paper's trust argument.

    ``predicted_speedup`` is filled in by the what-if profiler
    (:func:`repro.whatif.annotate_report`): the end-to-end speedup the
    recommendation is expected to yield on the analysis machine.  It is
    ``None`` until annotated; sequential-optimization kinds get 1.0.

    ``features`` are the folded features the rule fired on, when the
    engine that built the use case has them (the batch engine does):
    the what-if region estimates read sizes and counts from them
    instead of re-scanning the profile.  Not part of equality.
    """

    kind: UseCaseKind
    profile: RuntimeProfile
    analysis: PatternAnalysis
    recommendation: Recommendation
    evidence: dict[str, Any] = field(default_factory=dict)
    predicted_speedup: float | None = None
    features: "ProfileFeatures | None" = field(default=None, compare=False, repr=False)

    @property
    def site(self) -> AllocationSite | None:
        return self.profile.site

    @property
    def instance_id(self) -> int:
        return self.profile.instance_id

    @property
    def parallel(self) -> bool:
        return self.kind.parallel

    def describe(self) -> str:
        where = f" @ {self.site}" if self.site else ""
        return f"{self.kind.label} on {self.profile.kind.value} #{self.instance_id}{where}"
