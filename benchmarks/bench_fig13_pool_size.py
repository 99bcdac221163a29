"""Figure 13 — cold-start time and components split by pool size (small
pods <= 400 millicores / 256 MB vs larger), per region.

Shape targets: larger pools have longer median cold starts (1x-5x);
pod allocation is multimodal with deeper search stages for large pods;
code and dependency deployment take longer in large pods.
"""

from repro.analysis.report import format_table


def test_fig13_pool_size_split(benchmark, study, uncached, emit):
    result = benchmark(uncached("fig13_pool_split"))

    rows = []
    for region, metrics in result.items():
        for metric, sizes in metrics.items():
            rows.append(
                {
                    "region": region,
                    "metric": metric,
                    "small_p25": round(sizes["small"][0.25], 4),
                    "small_p50": round(sizes["small"][0.5], 4),
                    "small_p75": round(sizes["small"][0.75], 4),
                    "large_p25": round(sizes["large"][0.25], 4),
                    "large_p50": round(sizes["large"][0.5], 4),
                    "large_p75": round(sizes["large"][0.75], 4),
                }
            )
    emit("fig13_pool_size", format_table(rows))

    for region, metrics in result.items():
        small = metrics["cold_start_s"]["small"][0.5]
        large = metrics["cold_start_s"]["large"][0.5]
        ratio = large / small
        assert 1.0 <= ratio <= 8.0, (region, ratio)  # paper: ~1:1 to 5:1
        # Deploy components are slower in large pods.
        assert (
            metrics["deploy_code_us"]["large"][0.5]
            > metrics["deploy_code_us"]["small"][0.5]
        ), region
        assert (
            metrics["deploy_dep_us"]["large"][0.5]
            > metrics["deploy_dep_us"]["small"][0.5]
        ), region
