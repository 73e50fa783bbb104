"""Use-case derivation: the paper's primary analytical contribution.

Eight rules (five with parallel potential) applied to pattern analyses,
each yielding a recommendation with its supporting evidence.
"""

from .engine import UseCaseEngine, UseCaseReport, evaluate_rules
from .features import InstanceFold, ProfileFeatures, end_purity, features_of
from .explain import (
    Criterion,
    RuleExplanation,
    explain_profile,
    explain_use_case,
    near_misses,
)
from .json_export import report_to_dict, report_to_json, summarize_json, use_case_to_dict
from .model import Recommendation, TransformHint, UseCase, UseCaseKind
from .report import format_summary, format_table_v, format_use_case
from .rules import (
    ALL_RULES,
    PARALLEL_RULES,
    SEQUENTIAL_RULES,
    FrequentLongReadRule,
    FrequentSearchRule,
    ImplementQueueRule,
    InsertDeleteFrontRule,
    LongInsertRule,
    Rule,
    SortAfterInsertRule,
    StackImplementationRule,
    WriteWithoutReadRule,
    rule_for,
)
from .thresholds import PAPER_THRESHOLDS, Thresholds

__all__ = [
    "ALL_RULES",
    "Criterion",
    "RuleExplanation",
    "explain_profile",
    "report_to_dict",
    "report_to_json",
    "summarize_json",
    "use_case_to_dict",
    "explain_use_case",
    "near_misses",
    "FrequentLongReadRule",
    "InstanceFold",
    "FrequentSearchRule",
    "ImplementQueueRule",
    "InsertDeleteFrontRule",
    "LongInsertRule",
    "PAPER_THRESHOLDS",
    "PARALLEL_RULES",
    "ProfileFeatures",
    "Recommendation",
    "Rule",
    "SEQUENTIAL_RULES",
    "SortAfterInsertRule",
    "StackImplementationRule",
    "Thresholds",
    "TransformHint",
    "UseCase",
    "UseCaseEngine",
    "UseCaseKind",
    "UseCaseReport",
    "WriteWithoutReadRule",
    "end_purity",
    "evaluate_rules",
    "features_of",
    "format_summary",
    "format_table_v",
    "format_use_case",
    "rule_for",
]
