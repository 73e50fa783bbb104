"""Test-only reference for the rule pass.

The eight rules' ``evaluate_features`` and ``evaluate_rules`` as they
were before the rules tested their scalar preconditions first and read
op codes and pattern families from module constants — kept verbatim
(bar the ``recommend`` methods and the ``Rule`` protocol, which take no
part in which rules fire or what evidence they report), so the
production rule pass can be compared with them case by case
(``tests/test_rule_differential.py``).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.events.types import OperationKind, StructureKind
from repro.patterns.model import AccessPattern
from repro.usecases.features import ProfileFeatures, end_purity
from repro.usecases.model import UseCaseKind
from repro.usecases.thresholds import Thresholds

Evidence = dict[str, Any]


# -- shared helpers ---------------------------------------------------------


def _insert_patterns(features: ProfileFeatures) -> list[AccessPattern]:
    return features.patterns_where(lambda p: p.pattern_type.is_insert)


def _read_patterns(features: ProfileFeatures) -> list[AccessPattern]:
    return features.patterns_where(lambda p: p.pattern_type.is_read)


def _is_linear(features: ProfileFeatures) -> bool:
    return features.kind.is_linear


# -- the five parallel-potential rules ------------------------------------------


class LongInsertRule:
    """LI: an insertion pattern from either end inserting more than one
    element, with frequent insertion phases (>30% of runtime) of which
    at least one is long (≥100 consecutive access events)."""

    kind = UseCaseKind.LONG_INSERT

    def evaluate_features(self, f: ProfileFeatures, th: Thresholds) -> Evidence | None:
        if not _is_linear(f):
            return None
        inserts = _insert_patterns(f)
        if not inserts:
            return None
        insert_fraction = f.fraction_in(lambda p: p.pattern_type.is_insert)
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


class ImplementQueueRule:
    """IQ: the structure is used like a queue but implemented as a list
    -- a high amount of reads and writes (>60% in sum) affect two
    *different* ends."""

    kind = UseCaseKind.IMPLEMENT_QUEUE

    def evaluate_features(self, f: ProfileFeatures, th: Thresholds) -> Evidence | None:
        if f.kind not in (StructureKind.LIST, StructureKind.ARRAY_LIST):
            return None
        if f.total_events == 0:
            return None
        insert_end, insert_purity, insert_count = end_purity(
            f.count(OperationKind.INSERT), f.insert_front, f.insert_back
        )
        removal_end, removal_purity, removal_count = end_purity(
            f.count(OperationKind.DELETE) + f.count(OperationKind.READ),
            f.delete_front + f.read_front,
            f.delete_back + f.read_back,
        )
        if insert_end is None or removal_end is None or insert_end == removal_end:
            return None
        if insert_count < th.iq_min_ops_per_end or removal_count < th.iq_min_ops_per_end:
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


class SortAfterInsertRule:
    """SAI: the structure is sorted after a long insertion phase (>30%
    of runtime, >100 consecutive events); insertion order is obviously
    unimportant, so both insert and search phases can be parallelized."""

    kind = UseCaseKind.SORT_AFTER_INSERT

    def evaluate_features(self, f: ProfileFeatures, th: Thresholds) -> Evidence | None:
        if not _is_linear(f):
            return None
        if f.sort_count == 0:
            return None
        insert_fraction = f.fraction_in(lambda p: p.pattern_type.is_insert)
        if insert_fraction <= th.sai_insert_fraction:
            return None
        # "a sort follows the phase" ⇔ the latest sort is at or past the
        # phase's end index.
        qualifying = [
            p
            for p in _insert_patterns(f)
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


class FrequentSearchRule:
    """FS: the program often searches a linear structure (>1000 search
    operations); searches are *frequent* when at least 2% of all access
    events belong to Read-Forward/Backward patterns or explicit
    searches."""

    kind = UseCaseKind.FREQUENT_SEARCH

    def evaluate_features(self, f: ProfileFeatures, th: Thresholds) -> Evidence | None:
        if not _is_linear(f):
            return None
        if f.total_events == 0:
            return None
        search_ops = f.count(OperationKind.SEARCH)
        if search_ops <= th.fs_min_search_ops:
            return None
        read_pattern_events = f.events_in(lambda p: p.pattern_type.is_read)
        frequency = (search_ops + read_pattern_events) / f.total_events
        if frequency < th.fs_pattern_fraction:
            return None
        return {
            "search_ops": search_ops,
            "read_pattern_events": read_pattern_events,
            "frequency": frequency,
        }


class FrequentLongReadRule:
    """FLR: more than 10 sequential read patterns recur, ≥50% of all
    access types are Read or Search, and each pattern reads at least
    50% of the data structure — a disguised search."""

    kind = UseCaseKind.FREQUENT_LONG_READ

    def evaluate_features(self, f: ProfileFeatures, th: Thresholds) -> Evidence | None:
        if not _is_linear(f):
            return None
        if f.total_events == 0:
            return None
        # span-based coverage and the span floor coincide with the
        # event-count versions on strict-adjacency runs, but stay
        # meaningful on decimated captures (see Thresholds.decimated).
        long_reads = [
            p
            for p in _read_patterns(f)
            if p.span_coverage >= th.flr_min_coverage
            and p.length >= th.flr_min_pattern_length
            and p.span >= th.flr_min_pattern_span
        ]
        if len(long_reads) <= th.flr_min_patterns:
            return None
        if f.read_fraction < th.flr_read_fraction:
            return None
        return {
            "long_read_patterns": len(long_reads),
            "read_fraction": f.read_fraction,
            "mean_coverage": float(np.mean([p.span_coverage for p in long_reads])),
        }


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
        if f.kind is not StructureKind.ARRAY:
            return None
        inserts = f.count(OperationKind.INSERT)
        deletes = f.count(OperationKind.DELETE)
        resizes = f.count(OperationKind.RESIZE)
        if inserts == 0 or deletes == 0:
            return None
        if inserts + deletes < th.idf_min_churn_ops or resizes < th.idf_min_resizes:
            return None
        return {"inserts": inserts, "deletes": deletes, "resizes": resizes}


class StackImplementationRule:
    """SI: insert and delete operations always access a common end of a
    list — the list implements a stack.

    Operationalization: at least ``si_min_inserts``/``si_min_deletes``
    operations, with ≥``si_end_purity`` of each hitting the *same* end."""

    kind = UseCaseKind.STACK_IMPLEMENTATION

    def evaluate_features(self, f: ProfileFeatures, th: Thresholds) -> Evidence | None:
        if f.kind not in (StructureKind.LIST, StructureKind.ARRAY_LIST):
            return None
        if f.total_events == 0:
            return None
        insert_end, insert_purity, insert_count = end_purity(
            f.count(OperationKind.INSERT), f.insert_front, f.insert_back
        )
        delete_end, delete_purity, delete_count = end_purity(
            f.count(OperationKind.DELETE), f.delete_front, f.delete_back
        )
        if insert_count < th.si_min_inserts or delete_count < th.si_min_deletes:
            return None
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
        if not f.trailing_ops <= {OperationKind.WRITE, OperationKind.CLEAR}:
            return None
        coverage = (
            f.trailing_distinct_positions / f.trailing_max_size
            if f.trailing_max_size
            else 0.0
        )
        includes_clear = OperationKind.CLEAR in f.trailing_ops
        if not includes_clear and coverage < th.wwr_min_coverage:
            return None
        return {
            "trailing_writes": f.trailing_writes,
            "coverage": coverage,
            "includes_clear": includes_clear,
        }


REFERENCE_RULES = (
    LongInsertRule(),
    ImplementQueueRule(),
    SortAfterInsertRule(),
    FrequentSearchRule(),
    FrequentLongReadRule(),
    InsertDeleteFrontRule(),
    StackImplementationRule(),
    WriteWithoutReadRule(),
)


def reference_evaluate_rules(features, thresholds, rules=REFERENCE_RULES):
    fired = []
    for rule in rules:
        evidence = rule.evaluate_features(features, thresholds)
        if evidence is not None:
            fired.append((rule, evidence))
    if any(rule.kind is UseCaseKind.SORT_AFTER_INSERT for rule, _ in fired):
        fired = [
            (rule, ev) for rule, ev in fired if rule.kind is not UseCaseKind.LONG_INSERT
        ]
    return fired
