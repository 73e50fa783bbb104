"""The eight use-case rules.

Each rule thresholds a :class:`~repro.usecases.features.ProfileFeatures`
summary — the exact scalar quantities of one profile — and either
returns an *evidence* dictionary (the measured quantities that crossed
the thresholds) or ``None``.  Rule definitions follow §III-B of the
paper verbatim; where the paper is qualitative (IDF, SI, WWR) the
operationalization is documented inline.

Rules never touch raw events: the features come from the one
per-instance :class:`~repro.usecases.features.InstanceFold`, whether
the batch engine ran it over a finished profile or the streaming
service fed it window by window, so both analysis modes reach identical
reports.
"""

from __future__ import annotations

from math import fsum
from typing import Any, Protocol

from ..events.types import LINEAR_KINDS, OperationKind, StructureKind
from ..patterns.model import INSERT_TYPES, READ_TYPES, AccessPattern
from .features import ProfileFeatures, end_purity
from .model import Recommendation, UseCaseKind
from .thresholds import Thresholds

Evidence = dict[str, Any]


class Rule(Protocol):
    kind: UseCaseKind

    def evaluate_features(
        self, features: ProfileFeatures, th: Thresholds
    ) -> Evidence | None:
        """Evidence dict when the rule fires, else ``None``."""


# -- shared helpers ---------------------------------------------------------
#
# Rules run once per instance, and most instances fire none, so each rule
# tests its scalar preconditions before it scans patterns, and reads enum
# members and op codes from module constants: an enum attribute or
# by-value lookup costs more than the comparison it feeds.

_INSERT = int(OperationKind.INSERT)
_DELETE = int(OperationKind.DELETE)
_READ = int(OperationKind.READ)
_SEARCH = int(OperationKind.SEARCH)
_RESIZE = int(OperationKind.RESIZE)
_CLEAR = int(OperationKind.CLEAR)
_CLEANUP_OPS = frozenset({int(OperationKind.WRITE), _CLEAR})
_ARRAY = StructureKind.ARRAY
_LIST_KINDS = (StructureKind.LIST, StructureKind.ARRAY_LIST)


def _is_insert(p: AccessPattern) -> bool:
    return p.pattern_type in INSERT_TYPES


def _is_read(p: AccessPattern) -> bool:
    return p.pattern_type in READ_TYPES


# -- the five parallel-potential rules ------------------------------------------


class LongInsertRule:
    """LI: an insertion pattern from either end inserting more than one
    element, with frequent insertion phases (>30% of runtime) of which
    at least one is long (≥100 consecutive access events)."""

    kind = UseCaseKind.LONG_INSERT

    def evaluate_features(self, f: ProfileFeatures, th: Thresholds) -> Evidence | None:
        if f.kind not in LINEAR_KINDS:
            return None
        # An insert pattern holds only INSERT events, so a long phase
        # needs at least that many of them.
        if f.count(_INSERT) < th.li_long_phase:
            return None
        inserts = f.patterns_where(_is_insert)
        if not inserts:
            return None
        insert_fraction = f.fraction_in(_is_insert)
        if insert_fraction <= th.li_insert_fraction:
            return None
        longest = max(p.length for p in inserts)
        if longest < th.li_long_phase:
            return None
        return {
            "insert_fraction": insert_fraction,
            "longest_phase": longest,
            "phase_count": len(inserts),
        }

    def recommend(self, evidence: Evidence) -> Recommendation:
        return Recommendation(
            hint=self.kind.hint,
            parallel=True,
            rationale=(
                f"insertion phases cover {evidence['insert_fraction']:.0%} of the "
                f"runtime profile; longest phase has {evidence['longest_phase']} "
                "consecutive insertions"
            ),
        )


class ImplementQueueRule:
    """IQ: the structure is used like a queue but implemented as a list
    -- a high amount of reads and writes (>60% in sum) affect two
    *different* ends."""

    kind = UseCaseKind.IMPLEMENT_QUEUE

    def evaluate_features(self, f: ProfileFeatures, th: Thresholds) -> Evidence | None:
        if f.kind not in _LIST_KINDS:
            return None
        if f.total_events == 0:
            return None
        inserts = f.count(_INSERT)  # end_purity's count for the insert end
        if inserts < th.iq_min_ops_per_end:
            return None
        insert_end, insert_purity, _ = end_purity(inserts, f.insert_front, f.insert_back)
        removal_end, removal_purity, removal_count = end_purity(
            f.count(_DELETE) + f.count(_READ),
            f.delete_front + f.read_front,
            f.delete_back + f.read_back,
        )
        if insert_end is None or removal_end is None or insert_end == removal_end:
            return None
        if removal_count < th.iq_min_ops_per_end:
            return None
        if insert_purity < th.iq_end_purity or removal_purity < th.iq_end_purity:
            return None
        end_fraction = f.end_fraction
        if end_fraction <= th.iq_rw_fraction:
            return None
        return {
            "insert_end": insert_end,
            "removal_end": removal_end,
            "insert_purity": insert_purity,
            "removal_purity": removal_purity,
            "end_fraction": end_fraction,
        }

    def recommend(self, evidence: Evidence) -> Recommendation:
        return Recommendation(
            hint=self.kind.hint,
            parallel=True,
            rationale=(
                f"{evidence['end_fraction']:.0%} of accesses hit the two ends: "
                f"inserts at the {evidence['insert_end']} "
                f"({evidence['insert_purity']:.0%}), removals at the "
                f"{evidence['removal_end']} ({evidence['removal_purity']:.0%}) — "
                "queue-like usage of a list"
            ),
        )


class SortAfterInsertRule:
    """SAI: the structure is sorted after a long insertion phase (>30%
    of runtime, >100 consecutive events); insertion order is obviously
    unimportant, so both insert and search phases can be parallelized."""

    kind = UseCaseKind.SORT_AFTER_INSERT

    def evaluate_features(self, f: ProfileFeatures, th: Thresholds) -> Evidence | None:
        if f.kind not in LINEAR_KINDS:
            return None
        if f.sort_count == 0:
            return None
        if f.count(_INSERT) < th.sai_long_phase:  # as in LongInsertRule
            return None
        insert_fraction = f.fraction_in(_is_insert)
        if insert_fraction <= th.sai_insert_fraction:
            return None
        # "a sort follows the phase" ⇔ the latest sort is at or past the
        # phase's end index.
        qualifying = [
            p
            for p in f.patterns_where(_is_insert)
            if p.length >= th.sai_long_phase and f.last_sort_index >= p.stop
        ]
        if not qualifying:
            return None
        longest = max(p.length for p in qualifying)
        return {
            "insert_fraction": insert_fraction,
            "longest_phase": longest,
            "sort_count": f.sort_count,
        }

    def recommend(self, evidence: Evidence) -> Recommendation:
        return Recommendation(
            hint=self.kind.hint,
            parallel=True,
            rationale=(
                f"a sort follows an insertion phase of "
                f"{evidence['longest_phase']} consecutive events "
                f"({evidence['insert_fraction']:.0%} of runtime) — insertion "
                "order is irrelevant"
            ),
        )


class FrequentSearchRule:
    """FS: the program often searches a linear structure (>1000 search
    operations); searches are *frequent* when at least 2% of all access
    events belong to Read-Forward/Backward patterns or explicit
    searches."""

    kind = UseCaseKind.FREQUENT_SEARCH

    def evaluate_features(self, f: ProfileFeatures, th: Thresholds) -> Evidence | None:
        if f.kind not in LINEAR_KINDS:
            return None
        if f.total_events == 0:
            return None
        search_ops = f.count(_SEARCH)
        if search_ops <= th.fs_min_search_ops:
            return None
        read_pattern_events = f.events_in(_is_read)
        frequency = (search_ops + read_pattern_events) / f.total_events
        if frequency < th.fs_pattern_fraction:
            return None
        return {
            "search_ops": search_ops,
            "read_pattern_events": read_pattern_events,
            "frequency": frequency,
        }

    def recommend(self, evidence: Evidence) -> Recommendation:
        return Recommendation(
            hint=self.kind.hint,
            parallel=True,
            rationale=(
                f"{evidence['search_ops']} explicit search operations "
                f"({evidence['frequency']:.1%} of all events are search-like) on "
                "a linear structure"
            ),
        )


class FrequentLongReadRule:
    """FLR: more than 10 sequential read patterns recur, ≥50% of all
    access types are Read or Search, and each pattern reads at least
    50% of the data structure — a disguised search."""

    kind = UseCaseKind.FREQUENT_LONG_READ

    def evaluate_features(self, f: ProfileFeatures, th: Thresholds) -> Evidence | None:
        if f.kind not in LINEAR_KINDS:
            return None
        if f.total_events == 0:
            return None
        if f.read_fraction < th.flr_read_fraction:
            return None
        # A read pattern holds only READ events, and the rule needs more
        # than flr_min_patterns of them, each at least
        # flr_min_pattern_length long.
        if f.count(_READ) < (th.flr_min_patterns + 1) * th.flr_min_pattern_length:
            return None
        # span-based coverage and the span floor coincide with the
        # event-count versions on strict-adjacency runs, but stay
        # meaningful on decimated captures (see Thresholds.decimated).
        long_reads = [
            p
            for p in f.patterns_where(_is_read)
            if p.span_coverage >= th.flr_min_coverage
            and p.length >= th.flr_min_pattern_length
            and p.span >= th.flr_min_pattern_span
        ]
        if len(long_reads) <= th.flr_min_patterns:
            return None
        # statistics.fmean's arithmetic (an exactly rounded sum over n),
        # without importing statistics and with it fractions and decimal.
        coverage = fsum([p.span_coverage for p in long_reads]) / len(long_reads)
        return {
            "long_read_patterns": len(long_reads),
            "read_fraction": f.read_fraction,
            "mean_coverage": coverage,
        }

    def recommend(self, evidence: Evidence) -> Recommendation:
        return Recommendation(
            hint=self.kind.hint,
            parallel=True,
            rationale=(
                f"{evidence['long_read_patterns']} sequential read patterns, each "
                f"covering {evidence['mean_coverage']:.0%} of the structure on "
                f"average ({evidence['read_fraction']:.0%} of accesses are reads) "
                "— likely a hand-rolled search"
            ),
        )


# -- the three sequential-optimization rules ------------------------------------


class InsertDeleteFrontRule:
    """IDF: insert/delete churn on a fixed-size array causes repeated
    reallocate+copy overhead; a dynamic structure fits better.

    Operationalization: the profile belongs to an array, carries at
    least ``idf_min_churn_ops`` combined insert+delete operations with
    both species present, and at least ``idf_min_resizes`` reallocation
    events."""

    kind = UseCaseKind.INSERT_DELETE_FRONT

    def evaluate_features(self, f: ProfileFeatures, th: Thresholds) -> Evidence | None:
        if f.kind is not _ARRAY:
            return None
        inserts = f.count(_INSERT)
        deletes = f.count(_DELETE)
        resizes = f.count(_RESIZE)
        if inserts == 0 or deletes == 0:
            return None
        if inserts + deletes < th.idf_min_churn_ops or resizes < th.idf_min_resizes:
            return None
        return {"inserts": inserts, "deletes": deletes, "resizes": resizes}

    def recommend(self, evidence: Evidence) -> Recommendation:
        return Recommendation(
            hint=self.kind.hint,
            parallel=False,
            rationale=(
                f"{evidence['inserts']} inserts and {evidence['deletes']} deletes "
                f"forced {evidence['resizes']} full reallocations of a fixed-size "
                "array"
            ),
        )


class StackImplementationRule:
    """SI: insert and delete operations always access a common end of a
    list — the list implements a stack.

    Operationalization: at least ``si_min_inserts``/``si_min_deletes``
    operations, with ≥``si_end_purity`` of each hitting the *same* end."""

    kind = UseCaseKind.STACK_IMPLEMENTATION

    def evaluate_features(self, f: ProfileFeatures, th: Thresholds) -> Evidence | None:
        if f.kind not in _LIST_KINDS:
            return None
        if f.total_events == 0:
            return None
        inserts = f.count(_INSERT)
        deletes = f.count(_DELETE)
        if inserts < th.si_min_inserts or deletes < th.si_min_deletes:
            return None
        insert_end, insert_purity, insert_count = end_purity(
            inserts, f.insert_front, f.insert_back
        )
        delete_end, delete_purity, delete_count = end_purity(
            deletes, f.delete_front, f.delete_back
        )
        if insert_end is None or insert_end != delete_end:
            return None
        if insert_purity < th.si_end_purity or delete_purity < th.si_end_purity:
            return None
        return {
            "end": insert_end,
            "inserts": insert_count,
            "deletes": delete_count,
            "insert_purity": insert_purity,
            "delete_purity": delete_purity,
        }

    def recommend(self, evidence: Evidence) -> Recommendation:
        return Recommendation(
            hint=self.kind.hint,
            parallel=False,
            rationale=(
                f"{evidence['inserts']} inserts and {evidence['deletes']} deletes "
                f"all access the {evidence['end']} of the list — LIFO usage"
            ),
        )


class WriteWithoutReadRule:
    """WWR: the profile ends with write accesses whose results are never
    read — cleanup work better left to deallocation.

    Operationalization: after the last read-kind event there are at
    least ``wwr_min_trailing_writes`` write events, and they either
    include a ``Clear`` or cover ≥``wwr_min_coverage`` of the structure."""

    kind = UseCaseKind.WRITE_WITHOUT_READ

    def evaluate_features(self, f: ProfileFeatures, th: Thresholds) -> Evidence | None:
        if f.total_events == 0:
            return None
        if f.trailing_writes < th.wwr_min_trailing_writes:
            return None
        # Cleanup means overwriting or clearing; trailing inserts/sorts
        # are a build phase, not a write-without-read.
        if not f.trailing_ops <= _CLEANUP_OPS:
            return None
        coverage = (
            f.trailing_distinct_positions / f.trailing_max_size
            if f.trailing_max_size
            else 0.0
        )
        includes_clear = _CLEAR in f.trailing_ops
        if not includes_clear and coverage < th.wwr_min_coverage:
            return None
        return {
            "trailing_writes": f.trailing_writes,
            "coverage": coverage,
            "includes_clear": includes_clear,
        }

    def recommend(self, evidence: Evidence) -> Recommendation:
        return Recommendation(
            hint=self.kind.hint,
            parallel=False,
            rationale=(
                f"the profile ends with {evidence['trailing_writes']} write "
                "accesses that are never read — cleanup resembling garbage "
                "collection"
            ),
        )


#: All rules in paper order (parallel first).
ALL_RULES: tuple[Rule, ...] = (
    LongInsertRule(),
    ImplementQueueRule(),
    SortAfterInsertRule(),
    FrequentSearchRule(),
    FrequentLongReadRule(),
    InsertDeleteFrontRule(),
    StackImplementationRule(),
    WriteWithoutReadRule(),
)

PARALLEL_RULES: tuple[Rule, ...] = tuple(r for r in ALL_RULES if r.kind.parallel)
SEQUENTIAL_RULES: tuple[Rule, ...] = tuple(r for r in ALL_RULES if not r.kind.parallel)


def rule_for(kind: UseCaseKind) -> Rule:
    """The rule instance implementing ``kind``."""
    for rule in ALL_RULES:
        if rule.kind is kind:
            return rule
    raise KeyError(kind)
