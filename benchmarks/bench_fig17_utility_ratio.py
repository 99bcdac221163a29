"""Figure 17 — pod utility ratio (useful lifetime / cold-start time) CDFs
by runtime and by trigger type (Region 2).

Shape targets: ~20-35 % of pods below ratio 1; median around 4; timers the
lowest-utility trigger; runtimes with long cold starts (Custom, http) are
not the worst — the paper's central observation.
"""

from repro.analysis.report import format_table


def test_fig17_utility_ratio(benchmark, study, uncached, emit):
    fig17 = uncached("fig17_utility")

    def both():
        return (
            fig17(by="runtime", region="R2"),
            fig17(by="trigger", region="R2"),
        )

    by_runtime, by_trigger = benchmark(both)

    rows = [summary.as_row(name) for name, (_cdf, summary) in sorted(by_runtime.items())]
    emit("fig17a_utility_by_runtime", format_table(rows))
    rows = [summary.as_row(name) for name, (_cdf, summary) in sorted(by_trigger.items())]
    emit("fig17b_utility_by_trigger", format_table(rows))

    overall = by_runtime["all"][1]
    # Around a fifth-to-a-third of pods don't outlive their cold start.
    assert 0.1 <= overall.share_below_1 <= 0.5
    # Median utility in the paper's ballpark (~4).
    assert 1.0 <= overall.median <= 10.0

    # Timers are the lowest-utility trigger category.
    trigger_medians = {
        name: summary.median
        for name, (_c, summary) in by_trigger.items()
        if name != "all" and summary.n_pods > 50
    }
    assert min(trigger_medians, key=trigger_medians.get) == "TIMER-A"

    # Long-cold-start runtimes are not the worst utility (paper's point):
    # Custom's utility share below 1 stays under Node.js-level badness + margin.
    runtime_summaries = {
        name: s for name, (_c, s) in by_runtime.items() if s.n_pods > 50
    }
    if "Custom" in runtime_summaries and "Node.js" in runtime_summaries:
        assert (
            runtime_summaries["Custom"].share_below_1
            <= runtime_summaries["Node.js"].share_below_1 + 0.25
        )
