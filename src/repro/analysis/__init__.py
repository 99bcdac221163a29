"""Analysis methodology: the paper's measurement machinery over traces."""

from repro.analysis.accumulators import (
    BinnedSeries,
    DistinctPairs,
    GapTracker,
    GroupedCounts,
    KeyedBinnedCounts,
    LogHistogram,
    PodIntervalAccumulator,
    RegionAccumulator,
    StreamingMoments,
    TickGauge,
)
from repro.analysis.cdf import (
    Cdf,
    cdf_from_counts,
    empirical_cdf,
    log_grid,
    quantiles,
)
from repro.analysis.timeseries import (
    bin_counts,
    bin_means,
    bin_sums,
    moving_average,
    normalize_max,
)
from repro.analysis.peaks import (
    daily_peak_minutes,
    peak_to_trough_ratio,
)
from repro.analysis.region_stats import (
    cpu_per_minute_cdf,
    exec_time_per_minute_cdf,
    functions_per_user_cdf,
    requests_per_day_per_function,
    requests_per_user_cdf,
)
from repro.analysis.composition import (
    aggregate_combo_label,
    function_metadata,
    trigger_mix_by_runtime,
)
from repro.analysis.coldstart_stats import (
    cold_start_iats,
    component_cdfs_by,
    hourly_component_means,
    pool_size_quantiles,
)
from repro.analysis.report import format_table

__all__ = [
    "BinnedSeries",
    "DistinctPairs",
    "GapTracker",
    "GroupedCounts",
    "KeyedBinnedCounts",
    "LogHistogram",
    "PodIntervalAccumulator",
    "RegionAccumulator",
    "StreamingMoments",
    "TickGauge",
    "Cdf",
    "cdf_from_counts",
    "empirical_cdf",
    "log_grid",
    "quantiles",
    "bin_counts",
    "bin_means",
    "bin_sums",
    "moving_average",
    "normalize_max",
    "daily_peak_minutes",
    "peak_to_trough_ratio",
    "requests_per_day_per_function",
    "exec_time_per_minute_cdf",
    "cpu_per_minute_cdf",
    "functions_per_user_cdf",
    "requests_per_user_cdf",
    "function_metadata",
    "aggregate_combo_label",
    "trigger_mix_by_runtime",
    "cold_start_iats",
    "hourly_component_means",
    "pool_size_quantiles",
    "component_cdfs_by",
    "format_table",
]
