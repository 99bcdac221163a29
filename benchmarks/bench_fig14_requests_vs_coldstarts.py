"""Figure 14 — per-function total requests vs cold starts, coloured by
trigger type (Region 2).

Shape targets: low-rate functions sit on the 1-request-=-1-cold-start
diagonal and are mostly timers; functions beyond ~1 request/minute fall
far below the diagonal thanks to the keep-alive.
"""

import numpy as np

from repro.analysis.report import format_table


def test_fig14_requests_vs_cold_starts(benchmark, study, uncached, emit):
    rows = benchmark(uncached("fig14_requests_vs_cold_starts"), "R2")

    requests = np.array([row["requests"] for row in rows], dtype=float)
    colds = np.array([row["cold_starts"] for row in rows], dtype=float)
    triggers = np.array([row["trigger"] for row in rows])
    on_diagonal = colds >= 0.8 * requests
    horizon_minutes = 31 * 1440.0
    frequent = requests > horizon_minutes  # >1 request/minute on average

    summary = [
        {"statistic": "functions", "value": len(rows)},
        {"statistic": "on-diagonal share", "value": round(float(on_diagonal.mean()), 3)},
        {
            "statistic": "timer share of diagonal",
            "value": round(float((triggers[on_diagonal] == "TIMER-A").mean()), 3),
        },
        {
            "statistic": "max cold/request ratio among frequent fns",
            "value": round(float((colds[frequent] / requests[frequent]).max()), 4)
            if frequent.any()
            else 0.0,
        },
    ]
    emit("fig14_requests_vs_cold_starts", format_table(summary))

    # Cold starts never exceed requests.
    assert (colds <= requests).all()
    # A sizeable diagonal population exists, dominated by timers.
    assert on_diagonal.sum() >= 0.2 * len(rows)
    assert (triggers[on_diagonal] == "TIMER-A").mean() > 0.4
    # Frequent functions fall far below the diagonal (the keep-alive absorbs
    # most invocations; bursty functions near the 1 req/min boundary still
    # cold-start once per burst).
    if frequent.any():
        assert (colds[frequent] / requests[frequent]).max() < 0.35
