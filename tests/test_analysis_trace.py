"""Trace-level analyses: region stats, composition, cold-start stats, holiday."""

import numpy as np
import pytest

from repro.analysis.coldstart_stats import (
    cold_start_iats,
    component_cdfs_by,
    hourly_component_means,
    mean_scheduling_dominates,
    pool_size_quantiles,
)
from repro.analysis.composition import (
    aggregate_combo_label,
    function_metadata,
    pod_intervals,
    trigger_mix_by_runtime,
)
from repro.analysis.holiday import holiday_effect_from_series, post_holiday_cold_start_surge
from repro.analysis.region_stats import (
    cpu_per_minute_cdf,
    exec_time_per_minute_cdf,
    functions_per_user_cdf,
    requests_per_day_per_function,
    requests_per_user_cdf,
    share_at_least_one_per_minute,
    single_function_user_share,
)
from repro.analysis.timeseries import presence_counts
from repro.core.bundle_data import BundleData
from repro.core.study import TraceStudy


class TestAggregateComboLabel:
    def test_simple_labels(self):
        assert aggregate_combo_label("TIMER-A") == "TIMER-A"
        assert aggregate_combo_label("CTS-A") == "other A"
        assert aggregate_combo_label("KAFKA-S") == "other S"
        assert aggregate_combo_label("unknown") == "unknown"

    def test_combo_picks_primary(self):
        assert aggregate_combo_label("APIG-S+TIMER-A") == "APIG-S"
        assert aggregate_combo_label("OBS-A+TIMER-A") == "OBS-A"


class TestRegionStats:
    def test_region_sizes_rows(self, multi_bundles):
        rows = TraceStudy(multi_bundles).fig01_region_sizes()
        assert {row["region"] for row in rows} == set(multi_bundles)
        for row in rows:
            assert row["requests"] > 0
            assert row["pods"] == row["cold_starts"]

    def test_requests_per_day_nonnegative(self, r2_bundle):
        per_day = requests_per_day_per_function(r2_bundle)
        assert (per_day >= 0).all()
        assert per_day.size == np.unique(r2_bundle.requests["function"]).size

    def test_share_at_least_one_per_minute_bounds(self, multi_bundles):
        for bundle in multi_bundles.values():
            share = share_at_least_one_per_minute(bundle)
            assert 0.0 <= share <= 1.0

    def test_exec_time_cdf_positive_support(self, r2_bundle):
        cdf = exec_time_per_minute_cdf(r2_bundle)
        assert cdf.n > 0
        assert cdf.values.min() > 0

    def test_cpu_cdf_in_cores(self, r2_bundle):
        cdf = cpu_per_minute_cdf(r2_bundle)
        assert cdf.median < 30  # cores, not millicores

    def test_user_cdfs(self, r2_bundle):
        fn_cdf = functions_per_user_cdf(r2_bundle)
        req_cdf = requests_per_user_cdf(r2_bundle)
        assert fn_cdf.values.min() >= 1
        assert req_cdf.values.min() >= 1

    def test_single_function_share_in_paper_band(self, r2_bundle):
        share = single_function_user_share(r2_bundle)
        assert 0.5 <= share <= 0.95  # paper: 60-90 %


class TestComposition:
    def test_metadata_alignment(self, r2_bundle):
        meta = function_metadata(r2_bundle, r2_bundle.pods["function"])
        assert meta.runtime.shape == (len(r2_bundle.pods),)
        assert set(np.unique(meta.size_class)) <= {"small", "large"}

    def test_pod_intervals_consistency(self, r2_bundle):
        intervals = pod_intervals(r2_bundle)
        assert intervals.pod_id.size == len(r2_bundle.pods)
        assert (intervals.last_end_s >= intervals.start_s).all()
        assert intervals.n_requests.sum() == len(r2_bundle.requests)

    def test_proportions_sum_to_one(self, r2_bundle):
        study = TraceStudy({"R2": r2_bundle})
        for by in ("trigger", "runtime", "config", "size"):
            props = study.fig08_proportions(by=by)
            for metric in ("pods", "cold_starts", "functions"):
                total = sum(p[metric] for p in props.values())
                assert total == pytest.approx(1.0, abs=1e-6), (by, metric)

    def test_pods_over_time_shapes(self, r2_bundle):
        series = TraceStudy({"R2": r2_bundle}).fig08_pods_over_time(by="runtime")
        lengths = {s.size for s in series.values()}
        assert len(lengths) == 1
        for values in series.values():
            assert (values >= 0).all()

    def test_trigger_mix_rows_normalised(self, r2_bundle):
        mix = trigger_mix_by_runtime(r2_bundle)
        for runtime, shares in mix.items():
            assert sum(shares.values()) == pytest.approx(1.0, abs=1e-6)

    def test_unknown_grouping_rejected(self, r2_bundle):
        with pytest.raises(ValueError):
            TraceStudy({"R2": r2_bundle}).fig08_proportions(by="astrology")


class TestColdStartStats:
    def test_iats_non_negative(self, r2_bundle):
        iats = cold_start_iats(r2_bundle.pods)
        assert (iats >= 0).all()
        assert iats.size == len(r2_bundle.pods) - 1

    def test_hourly_components_keys(self, r2_bundle):
        hourly = hourly_component_means(r2_bundle.pods)
        assert set(hourly) == {
            "count", "cold_start_s", "pod_alloc_us", "deploy_code_us",
            "deploy_dep_us", "scheduling_us",
        }
        assert hourly["count"].sum() == len(r2_bundle.pods)

    def test_dominant_component_r2_is_alloc(self, r2_bundle):
        dominant = TraceStudy({"R2": r2_bundle}).fig11_dominant_component()
        assert dominant["R2"] == "pod_alloc_us"

    def test_dominant_component_r1_is_dep(self, r1_bundle):
        dominant = TraceStudy({"R1": r1_bundle}).fig11_dominant_component()
        assert dominant["R1"] == "deploy_dep_us"

    def test_pool_split_large_slower(self, r2_bundle):
        split = pool_size_quantiles(r2_bundle)
        small_median = split["cold_start_s"]["small"][0.5]
        large_median = split["cold_start_s"]["large"][0.5]
        # Paper Fig. 13: large pools have 1x-5x the small-pool median.
        assert large_median > small_median
        assert large_median / small_median < 8.0

    def test_requests_vs_cold_starts_diagonal(self, r2_bundle):
        rows = TraceStudy({"R2": r2_bundle}).fig14_requests_vs_cold_starts()
        assert rows
        for row in rows:
            assert row["cold_starts"] <= row["requests"]
        # Low-rate functions sit on the 1:1 diagonal (paper Fig. 14).
        low = [r for r in rows if r["requests"] < 50]
        on_diagonal = [r for r in low if r["cold_starts"] >= 0.8 * r["requests"]]
        assert len(on_diagonal) >= len(low) * 0.5

    def test_component_cdfs_by_runtime(self, r2_bundle):
        cdfs = component_cdfs_by(r2_bundle, by="runtime")
        assert "all" in cdfs
        assert "Python3" in cdfs
        # Custom/http medians exceed 10 s (paper Fig. 15a).
        for slow in ("Custom", "http"):
            if slow in cdfs and cdfs[slow]["cold_start_s"].n > 10:
                assert cdfs[slow]["cold_start_s"].median > 5.0

    def test_component_cdfs_by_trigger(self, r2_bundle):
        cdfs = component_cdfs_by(r2_bundle, by="trigger")
        assert "TIMER-A" in cdfs

    def test_scheduling_dominates_default_runtimes(self, r1_bundle):
        assert isinstance(mean_scheduling_dominates(r1_bundle), bool)

    def test_bad_grouping_rejected(self, r2_bundle):
        with pytest.raises(ValueError):
            component_cdfs_by(r2_bundle, by="phase_of_moon")


class TestHoliday:
    def test_holiday_effect_on_short_trace(self, r2_bundle):
        # The fixture spans 3 days only; the analysis must still work with
        # a window clipped to available days.
        data = BundleData(r2_bundle)
        intervals = data.pod_intervals()
        horizon = data.last_request_s + 60.0
        daily_pods = presence_counts(
            intervals.start_s, intervals.last_end_s + 60.0, 86_400.0, horizon
        )
        effect = holiday_effect_from_series(
            daily_pods, data.daily_cpu(horizon), window=(0, 2)
        )
        assert effect.days.size >= 1
        assert np.nanmax(effect.pods_normalised) <= 1.0 + 1e-9

    def test_surge_detection_requires_full_trace(self):
        from repro.workload.generator import generate_region

        bundle = generate_region("R3", seed=21, days=28, scale=0.12)
        effect = TraceStudy({"R3": bundle}).fig07_holiday()["R3"]
        # R3 rises at the start of the holiday (paper Fig. 7).
        assert effect.holiday_mean("pods") > 0.55

    def test_post_holiday_surge_nan_when_no_holiday(self, r2_bundle):
        result = post_holiday_cold_start_surge(r2_bundle)
        assert np.isnan(result["count_ratio"])
