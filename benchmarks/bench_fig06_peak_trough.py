"""Figure 6 — per-function peak-to-trough ratio vs requests/day and vs the
number of cold starts.

Shape targets: ratios span 1 to >100; sub-1/min functions cluster at
ratio 1; high-cold-start functions are either high-ratio (autoscaling
churn) or ratio-1 low-rate functions (always-cold).
"""

import numpy as np

from repro.analysis.report import format_table


def test_fig06_peak_trough(benchmark, study, uncached, emit):
    rows = benchmark(uncached("fig06_peak_trough"), "R2")

    ratios = np.array([row["peak_to_trough"] for row in rows])
    requests = np.array([row["requests_per_day"] for row in rows])
    colds = np.array([row["cold_starts"] for row in rows])

    summary = [
        {
            "statistic": "functions",
            "value": len(rows),
        },
        {"statistic": "ratio==1 share", "value": round(float((ratios == 1).mean()), 3)},
        {"statistic": "max ratio", "value": round(float(ratios.max()), 1)},
        {
            "statistic": "ratio==1 & low-rate share",
            "value": round(float(((ratios == 1) & (requests < 1440)).mean()), 3),
        },
        {
            "statistic": "cold starts in ratio>3 functions",
            "value": int(colds[ratios > 3].sum()),
        },
        {
            "statistic": "cold starts in ratio==1 functions",
            "value": int(colds[ratios == 1].sum()),
        },
    ]
    emit("fig06_peak_trough", format_table(summary))

    # The ratio-1 cluster exists and is dominated by sub-1/min functions.
    low_rate_cluster = (ratios == 1) & (requests < 1440)
    assert low_rate_cluster.sum() > 0.3 * len(rows)
    # Bursty functions reach large ratios.
    assert ratios.max() > 10
    # Both sources of cold starts are present (paper's "complex origin").
    assert colds[ratios > 3].sum() > 0
    assert colds[ratios == 1].sum() > 0
