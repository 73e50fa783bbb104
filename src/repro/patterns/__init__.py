"""Access-pattern detection (§III/§IV of the paper).

Segments runtime profiles into consistent runs, classifies them into the
eight primitive pattern types, and judges whether a profile "contains
regularity".
"""

from .compare import ProfileDiff, ReportDiff, compare_profiles, compare_reports
from .detector import (
    DetectorConfig,
    PatternDetector,
    classify_run,
    detect,
    patterns_from_runs,
)
from .model import AccessPattern, PatternAnalysis, PatternType
from .phases import Run, RunSegmenter, segment
from .regularity import RegularityClassifier, RegularityConfig, RegularityVerdict
from .statistics import (
    EndAffinity,
    ProfileStats,
    StrideStats,
    compute_stats,
)

__all__ = [
    "AccessPattern",
    "ProfileDiff",
    "ReportDiff",
    "compare_profiles",
    "compare_reports",
    "EndAffinity",
    "ProfileStats",
    "StrideStats",
    "compute_stats",
    "DetectorConfig",
    "PatternAnalysis",
    "PatternDetector",
    "PatternType",
    "RegularityClassifier",
    "RegularityConfig",
    "RegularityVerdict",
    "Run",
    "RunSegmenter",
    "classify_run",
    "detect",
    "patterns_from_runs",
    "segment",
]
