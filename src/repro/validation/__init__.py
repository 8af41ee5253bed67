"""Validation metrics: macroscopic breakdowns and microscopic CDF distances."""

from .aggregate import AggregateComparison, compare_aggregate, rate_curve
from .breakdown import (
    BREAKDOWN_ROWS,
    breakdown_difference,
    breakdown_with_states,
    macro_comparison,
    max_abs_breakdown_difference,
)
from .microscopic import (
    ACTIVITY_THRESHOLD,
    MICRO_QUANTITIES,
    activity_split_ydistance,
    cohort_profile,
    count_ydistance,
    device_sojourns,
    micro_comparison,
    micro_comparison_partial,
    per_ue_counts,
    sojourn_ydistance,
    state_sojourns,
)
from .profile import CohortProfile
from .report import format_percent, format_ratio, format_table

__all__ = [
    "ACTIVITY_THRESHOLD",
    "AggregateComparison",
    "CohortProfile",
    "compare_aggregate",
    "rate_curve",
    "BREAKDOWN_ROWS",
    "MICRO_QUANTITIES",
    "activity_split_ydistance",
    "breakdown_difference",
    "breakdown_with_states",
    "cohort_profile",
    "count_ydistance",
    "device_sojourns",
    "format_percent",
    "format_ratio",
    "format_table",
    "macro_comparison",
    "max_abs_breakdown_difference",
    "micro_comparison",
    "micro_comparison_partial",
    "per_ue_counts",
    "sojourn_ydistance",
    "state_sojourns",
]
