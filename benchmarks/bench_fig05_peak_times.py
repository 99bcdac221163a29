"""Figure 5 — normalized request series with the largest daily peak marked.

Shape targets: clear daily periodicity in every region, with the main peak
at a different local hour per region (the peak-time lag that motivates
spatial peak shaving).
"""

import numpy as np

from repro.analysis.report import format_table


def test_fig05_peak_times(benchmark, study, uncached, emit):
    series = benchmark(uncached("fig05_request_series"))
    peak_hours = study.fig05_peak_hours()

    rows = []
    for name in study.regions:
        peaks = series[name]["daily_peak_minute"]
        rows.append(
            {
                "region": name,
                "median_peak_hour": round(peak_hours[name], 2),
                "peak_hour_spread": round(float(np.std(peaks / 60.0)), 2),
                "profile_peak_hour": __import__(
                    "repro.workload.regions", fromlist=["region_profile"]
                ).region_profile(name).peak_hour,
            }
        )
    emit("fig05_peak_times", format_table(rows))

    # Peaks land near each region's configured local peak hour...
    for row in rows:
        assert abs(row["median_peak_hour"] - row["profile_peak_hour"]) < 2.5, row
    # ...and differ between regions (peak-time lag).
    hours = sorted(peak_hours.values())
    assert max(np.diff(hours)) > 1.0
    assert hours[-1] - hours[0] > 6.0
