"""Core API: the paper's contribution surface.

:class:`~repro.core.study.TraceStudy` is the main entry point — it wraps one
trace bundle per region and exposes one method per paper figure/table.
Distribution fits (§4.1), component correlation matrices (Fig. 12), and the
pod utility ratio metric (§4.5) live here too.
"""

from repro.core.fits import (
    LogNormalFit,
    WeibullFit,
    fit_cold_start_iats,
    fit_cold_start_times,
    fit_lognormal_streaming,
    fit_weibull_weighted,
    PAPER_COLD_START_FIT,
    PAPER_IAT_FIT,
)
from repro.core.correlations import (
    correlations_from_series,
    CorrelationMatrix,
)
from repro.core.utility import (
    UtilitySummary,
    utility_by_category_from,
    utility_summary,
)
from repro.core.study import StreamingTraceStudy, TraceStudy

__all__ = [
    "LogNormalFit",
    "WeibullFit",
    "fit_cold_start_times",
    "fit_cold_start_iats",
    "fit_lognormal_streaming",
    "fit_weibull_weighted",
    "PAPER_COLD_START_FIT",
    "PAPER_IAT_FIT",
    "correlations_from_series",
    "CorrelationMatrix",
    "utility_by_category_from",
    "utility_summary",
    "UtilitySummary",
    "StreamingTraceStudy",
    "TraceStudy",
]
