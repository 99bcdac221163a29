"""Streamed-vs-materialised equivalence for every paper figure.

For a fixed seed, the chunk-incremental :class:`StreamingTraceStudy` must
reproduce the bundle-backed :class:`TraceStudy`:

* **exact** — counts, key sets, integer series, per-minute/day series
  (floating sums compared at 1e-9 relative: chunk-partial sums add in a
  different order than whole-column sums);
* **bin tolerance** — distributions read from the fixed-bin LogHistogram
  sketch (Figs. 10/13/15/16) quantise values to one log bin (~3.7 % for
  the default 512 bins over 8 decades); probabilities stay exact.

Also covered: jobs-invariance of sharded streaming analysis, accumulator
merge associativity, and the chunk-directory path end to end.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.accumulators import (
    BinnedSeries,
    DistinctPairs,
    GapTracker,
    GroupedCounts,
    KeyedBinnedCounts,
    LogHistogram,
    RegionAccumulator,
)
from repro.core.study import StreamingTraceStudy, TraceStudy
from repro.runtime import ChunkedBundleWriter, iter_bundle_chunks
from repro.workload.generator import generate_multi_region

#: One log-bin ratio of the default sketch: the documented value tolerance.
BIN_TOL = LogHistogram.DEFAULT_BINS and (
    (LogHistogram.DEFAULT_HI / LogHistogram.DEFAULT_LO)
    ** (1.0 / LogHistogram.DEFAULT_BINS)
    - 1.0
)

SEED = 1234
CHUNK_S = 6 * 3600.0


@pytest.fixture(scope="module")
def bundles():
    return generate_multi_region(("R1", "R2"), seed=SEED, days=2, scale=0.12)


@pytest.fixture(scope="module")
def study(bundles) -> TraceStudy:
    return TraceStudy(bundles)


@pytest.fixture(scope="module")
def streaming(bundles) -> StreamingTraceStudy:
    return StreamingTraceStudy.from_bundles(bundles, chunk_s=CHUNK_S)


def assert_cdf_equal(a, b):
    assert a.n == b.n
    np.testing.assert_allclose(a.values, b.values, rtol=1e-9)
    np.testing.assert_allclose(a.probabilities, b.probabilities, rtol=1e-12)


def assert_cdf_within_bin(exact, sketched, qs=(0.1, 0.25, 0.5, 0.75, 0.9, 0.99)):
    """Sketch quantiles sit within one bin ratio of the exact quantiles.

    (``Cdf.n`` counts support points, which binning collapses — sample
    counts are preserved in the probabilities, checked via quantiles.)
    """
    for q in qs:
        want, got = exact.quantile(q), sketched.quantile(q)
        if want == 0.0 or np.isnan(want):
            continue
        assert got == pytest.approx(want, rel=2 * BIN_TOL), f"q={q}"


class TestExactFigures:
    def test_fig01_region_sizes(self, study, streaming):
        assert study.fig01_region_sizes() == streaming.fig01_region_sizes()

    def test_fig03_requests_per_day(self, study, streaming):
        for name in study.regions:
            assert_cdf_equal(
                study.fig03_requests_per_day()[name],
                streaming.fig03_requests_per_day()[name],
            )

    def test_fig03_exec_time_and_cpu(self, study, streaming):
        for name in study.regions:
            assert_cdf_equal(
                study.fig03_exec_time()[name], streaming.fig03_exec_time()[name]
            )
            assert_cdf_equal(
                study.fig03_cpu_usage()[name], streaming.fig03_cpu_usage()[name]
            )

    def test_fig03_share_at_least_one(self, study, streaming):
        assert (
            study.fig03_share_at_least_1_per_minute()
            == streaming.fig03_share_at_least_1_per_minute()
        )

    def test_fig04_user_stats(self, study, streaming):
        for name in study.regions:
            assert_cdf_equal(
                study.fig04_functions_per_user()[name],
                streaming.fig04_functions_per_user()[name],
            )
            assert_cdf_equal(
                study.fig04_requests_per_user()[name],
                streaming.fig04_requests_per_user()[name],
            )

    def test_fig05_request_series(self, study, streaming):
        for name in study.regions:
            a = study.fig05_request_series()[name]
            b = streaming.fig05_request_series()[name]
            np.testing.assert_allclose(
                a["normalised"], b["normalised"], rtol=1e-12, equal_nan=True
            )
            np.testing.assert_array_equal(
                a["daily_peak_minute"], b["daily_peak_minute"]
            )
        assert study.fig05_peak_hours() == streaming.fig05_peak_hours()

    def test_fig06_peak_trough(self, study, streaming):
        a, b = study.fig06_peak_trough(), streaming.fig06_peak_trough()
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert {k: ra[k] for k in ("region", "function", "cold_starts")} == {
                k: rb[k] for k in ("region", "function", "cold_starts")
            }
            assert ra["requests_per_day"] == rb["requests_per_day"]
            assert ra["peak_to_trough"] == pytest.approx(
                rb["peak_to_trough"], rel=1e-9
            )

    def test_fig07_holiday(self, study, streaming):
        for name in study.regions:
            a = study.fig07_holiday()[name]
            b = streaming.fig07_holiday()[name]
            np.testing.assert_array_equal(a.days, b.days)
            np.testing.assert_allclose(
                a.pods_normalised, b.pods_normalised, rtol=1e-9, equal_nan=True
            )
            np.testing.assert_allclose(
                a.cpu_normalised, b.cpu_normalised, rtol=1e-9, equal_nan=True
            )

    def test_fig07_holiday_at_the_study_keepalive(self):
        """Both studies count Fig. 7's daily pods at their own keep-alive:
        the pod series are byte-equal, the CPU series equal up to the
        streamed sums' addition order."""
        bundles = generate_multi_region(("R2", "R3"), seed=3, days=16, scale=0.05)
        keepalive_s = 21600.0
        exact = TraceStudy(bundles, keepalive_s=keepalive_s).fig07_holiday()
        streamed = StreamingTraceStudy(
            {name: RegionAccumulator.from_bundle(b) for name, b in bundles.items()},
            keepalive_s=keepalive_s,
        ).fig07_holiday()
        for name in bundles:
            a, b = exact[name], streamed[name]
            assert a.days.size and a.days.tobytes() == b.days.tobytes()
            assert a.pods_normalised.tobytes() == b.pods_normalised.tobytes()
            np.testing.assert_allclose(
                a.cpu_normalised, b.cpu_normalised, rtol=1e-9, equal_nan=True
            )

    @pytest.mark.parametrize("by", ["trigger", "runtime", "config", "size"])
    def test_fig08_proportions(self, study, streaming, by):
        a, b = study.fig08_proportions(by=by), streaming.fig08_proportions(by=by)
        assert a.keys() == b.keys()
        for category in a:
            for metric in a[category]:
                assert a[category][metric] == pytest.approx(
                    b[category][metric], rel=1e-9
                ), (category, metric)

    def test_fig08_pods_over_time(self, study, streaming):
        a = study.fig08_pods_over_time("trigger")
        b = streaming.fig08_pods_over_time("trigger")
        assert a.keys() == b.keys()
        for category in a:
            np.testing.assert_array_equal(a[category], b[category])

    def test_fig09_trigger_mix(self, study, streaming):
        assert study.fig09_trigger_by_runtime() == streaming.fig09_trigger_by_runtime()

    def test_fig11_components(self, study, streaming):
        for name in study.regions:
            a = study.fig11_hourly_components(name)
            b = streaming.fig11_hourly_components(name)
            assert a.keys() == b.keys()
            for key in a:
                np.testing.assert_allclose(
                    a[key], b[key], rtol=1e-9, equal_nan=True
                )
        assert study.fig11_dominant_component() == streaming.fig11_dominant_component()

    def test_fig12_correlations(self, study, streaming):
        for name in study.regions:
            a = study.fig12_correlations(name)
            b = streaming.fig12_correlations(name)
            assert a.n_minutes == b.n_minutes
            # rank ties can flip on ~1e-16 partial-sum differences; the
            # resulting rho shift is bounded by the tie-group size
            np.testing.assert_allclose(a.rho, b.rho, atol=1e-4)

    def test_fig14_requests_vs_cold_starts(self, study, streaming):
        assert (
            study.fig14_requests_vs_cold_starts()
            == streaming.fig14_requests_vs_cold_starts()
        )

    def test_fig17_utility(self, study, streaming):
        for by in ("runtime", "trigger"):
            a, b = study.fig17_utility(by=by), streaming.fig17_utility(by=by)
            assert a.keys() == b.keys()
            for category in a:
                assert_cdf_equal(a[category][0], b[category][0])
                assert a[category][1] == b[category][1]


class TestSketchedFigures:
    """Distributions served from the LogHistogram sketch: one-bin tolerance."""

    def test_fig10_cold_start_cdfs(self, study, streaming):
        for name in study.regions:
            assert_cdf_within_bin(
                study.fig10_cold_start_cdfs()[name],
                streaming.fig10_cold_start_cdfs()[name],
            )

    def test_fig10_iat_cdfs(self, study, streaming):
        for name in study.regions:
            exact = study.fig10_iat_cdfs()[name]
            sketched = streaming.fig10_iat_cdfs()[name]
            for q in (0.25, 0.5, 0.9):
                want = exact.quantile(q)
                if want <= 0:
                    continue
                # sub-lo gaps resolve to the underflow edge
                got = sketched.quantile(q)
                assert got == pytest.approx(
                    want, rel=2 * BIN_TOL, abs=LogHistogram.DEFAULT_LO
                )

    def test_fig10_fits(self, study, streaming):
        ln_a, ln_b = study.fig10_lognormal_fit(), streaming.fig10_lognormal_fit()
        assert ln_b.mu == pytest.approx(ln_a.mu, abs=0.02)
        assert ln_b.sigma == pytest.approx(ln_a.sigma, rel=0.02)
        assert ln_b.n == ln_a.n
        wb_a, wb_b = study.fig10_weibull_fit(), streaming.fig10_weibull_fit()
        assert wb_b.k == pytest.approx(wb_a.k, rel=0.1)
        assert wb_b.lam == pytest.approx(wb_a.lam, rel=0.1)

    def test_fig13_pool_split(self, study, streaming):
        for name in study.regions:
            a = study.fig13_pool_split(name)
            b = streaming.fig13_pool_split(name)
            assert a.keys() == b.keys()
            for metric in a:
                for size in ("small", "large"):
                    for q, want in a[metric][size].items():
                        got = b[metric][size][q]
                        if np.isnan(want):
                            assert np.isnan(got)
                        elif want > 0:
                            assert got == pytest.approx(
                                want, rel=2 * BIN_TOL
                            ), (metric, size, q)

    @pytest.mark.parametrize("by", ["runtime", "trigger"])
    def test_fig15_fig16_by_category(self, study, streaming, by):
        a = study.fig15_by_runtime() if by == "runtime" else study.fig16_by_trigger()
        b = (
            streaming.fig15_by_runtime()
            if by == "runtime"
            else streaming.fig16_by_trigger()
        )
        assert set(a) == set(b)
        for category in a:
            for metric, exact in a[category].items():
                assert_cdf_within_bin(
                    exact, b[category][metric], qs=(0.25, 0.5, 0.9)
                )


class TestStreamingExecution:
    def test_generate_is_jobs_invariant(self):
        kwargs = dict(regions=("R3",), seed=7, days=4, scale=0.08, chunk_days=2)
        j1 = StreamingTraceStudy.generate(jobs=1, **kwargs)
        j4 = StreamingTraceStudy.generate(jobs=4, **kwargs)
        assert j1.fig01_region_sizes() == j4.fig01_region_sizes()
        assert j1.fig03_share_at_least_1_per_minute() == j4.fig03_share_at_least_1_per_minute()
        assert j1.fig06_peak_trough() == j4.fig06_peak_trough()
        a, b = j1.fig10_cold_start_cdfs()["R3"], j4.fig10_cold_start_cdfs()["R3"]
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.probabilities, b.probabilities)

    def test_generate_matches_materialised_generation(self):
        """Sharded streaming analysis == analysing the merged bundles."""
        kwargs = dict(seed=7, days=4, scale=0.08, chunk_days=2)
        bundles = generate_multi_region(("R3",), jobs=1, **kwargs)
        materialised = TraceStudy(bundles)
        streamed = StreamingTraceStudy.generate(regions=("R3",), jobs=2, **kwargs)
        assert materialised.fig01_region_sizes() == streamed.fig01_region_sizes()
        assert_cdf_equal(
            materialised.fig03_requests_per_day()["R3"],
            streamed.fig03_requests_per_day()["R3"],
        )
        assert (
            materialised.fig14_requests_vs_cold_starts("R3")
            == streamed.fig14_requests_vs_cold_starts("R3")
        )

    def test_same_region_chunk_dirs_merge(self, tmp_path):
        """Two directories of the same region combine instead of shadowing."""
        from repro.runtime import ShardPlan, run_generation_shard

        plan = ShardPlan.for_generation(("R3",), seed=7, days=4, chunk_days=2,
                                        scale=0.08)
        windows = [run_generation_shard(spec) for spec in plan]
        for i, bundle in enumerate(windows):
            writer = ChunkedBundleWriter(tmp_path / f"R3-part{i}", region="R3")
            writer.append_bundle(bundle)
            writer.close(meta=dict(bundle.meta))
        split = StreamingTraceStudy.from_chunk_dirs(tmp_path)

        both = ChunkedBundleWriter(tmp_path / "whole" / "R3", region="R3")
        for bundle in windows:
            both.append_bundle(bundle)
        both.close(meta={"days": 4, "start_day": 0})
        whole = StreamingTraceStudy.from_chunk_dirs(tmp_path / "whole")

        assert split.regions == ["R3"]
        assert split.fig01_region_sizes() == whole.fig01_region_sizes()
        assert split.fig06_peak_trough() == whole.fig06_peak_trough()

    def test_chunk_directory_round_trip(self, bundles, streaming, tmp_path):
        for name, bundle in bundles.items():
            writer = ChunkedBundleWriter(tmp_path / name, region=name)
            for chunk in iter_bundle_chunks(bundle, chunk_s=CHUNK_S):
                writer.append_chunk(chunk)
            writer.close(meta=dict(bundle.meta), functions=bundle.functions)
        from_disk = StreamingTraceStudy.from_chunk_dirs(tmp_path)
        assert from_disk.fig01_region_sizes() == streaming.fig01_region_sizes()
        assert from_disk.fig06_peak_trough() == streaming.fig06_peak_trough()
        for name in streaming.regions:
            assert_cdf_equal(
                from_disk.fig04_requests_per_user()[name],
                streaming.fig04_requests_per_user()[name],
            )


class TestAccumulatorAlgebra:
    def test_region_accumulator_merge_associative(self, bundles):
        bundle = bundles["R2"]
        chunks = list(iter_bundle_chunks(bundle, chunk_s=CHUNK_S))
        assert len(chunks) >= 3

        def acc_for(chunk_list):
            acc = RegionAccumulator(
                "R2", functions=bundle.functions, meta=dict(bundle.meta)
            )
            for chunk in chunk_list:
                acc.update(chunk)
            return acc

        a, b, c = acc_for(chunks[:1]), acc_for(chunks[1:2]), acc_for(chunks[2:])
        left = acc_for(chunks[:1]).merge(acc_for(chunks[1:2])).merge(acc_for(chunks[2:]))
        right = acc_for(chunks[:1]).merge(acc_for(chunks[1:2]).merge(acc_for(chunks[2:])))
        assert left.summary() == right.summary()
        np.testing.assert_array_equal(
            left.per_function_day.keys, right.per_function_day.keys
        )
        keys_l, med_l = left.day_counts()
        keys_r, med_r = right.day_counts()
        np.testing.assert_array_equal(keys_l, keys_r)
        np.testing.assert_array_equal(med_l, med_r)
        # bin counts are integer-exact; the tracked raw sum only to addition
        # order, hence approx
        np.testing.assert_array_equal(left.iat.hist.counts, right.iat.hist.counts)
        assert left.iat.hist.n == right.iat.hist.n
        assert left.iat.hist.sum == pytest.approx(right.iat.hist.sum, rel=1e-12)
        # single-pass equals merged-pass
        single = acc_for(chunks)
        assert single.summary() == left.summary()
        np.testing.assert_array_equal(single.iat.hist.counts, left.iat.hist.counts)

    def test_gap_tracker_rejects_time_travel(self):
        tracker = GapTracker()
        tracker.add(np.array([10.0, 20.0]))
        with pytest.raises(ValueError, match="time-ordered"):
            tracker.add(np.array([5.0]))

    def test_gap_tracker_stitches_boundaries(self):
        whole = GapTracker().add(np.array([1.0, 3.0, 7.0, 20.0]))
        split = GapTracker().add(np.array([1.0, 3.0]))
        split.merge(GapTracker().add(np.array([7.0, 20.0])))
        assert whole.hist == split.hist

    def test_binned_series_matches_bin_functions(self):
        from repro.analysis.timeseries import bin_counts, bin_means

        rng = np.random.default_rng(0)
        times = np.sort(rng.uniform(0, 5000, size=400))
        values = rng.random(400)
        series = BinnedSeries(60.0)
        for lo in range(0, 5000, 1000):
            mask = (times >= lo) & (times < lo + 1000)
            series.add(times[mask], values[mask])
        np.testing.assert_array_equal(
            series.counts_until(), bin_counts(times, 60.0)
        )
        np.testing.assert_allclose(
            series.means_until(), bin_means(times, values, 60.0),
            rtol=1e-12, equal_nan=True,
        )

    def test_keyed_binned_counts_fold(self):
        keyed = KeyedBinnedCounts(1.0)
        keyed.add(np.array([5, 5, 9]), np.array([0.5, 7.5, 2.5]))
        matrix = keyed.counts_matrix(3)
        np.testing.assert_array_equal(keyed.keys, [5, 9])
        # the 7.5s event folds into the last kept bin (clip semantics)
        np.testing.assert_array_equal(matrix, [[1, 0, 1], [0, 0, 1]])

    def test_grouped_counts_merge(self):
        a = GroupedCounts().add(np.array([1, 1, 2]))
        b = GroupedCounts().add(np.array([2, 3]))
        a.merge(b)
        assert a.as_dict() == {1: 2, 2: 2, 3: 1}

    def test_log_histogram_probabilities_exact(self):
        rng = np.random.default_rng(1)
        values = rng.lognormal(0.0, 1.5, size=2000)
        hist = LogHistogram()
        hist.add(values[:700])
        other = LogHistogram()
        other.add(values[700:])
        hist.merge(other)
        assert hist.n == 2000
        cdf = hist.cdf()
        # P(X <= median estimate) overshoots 0.5 by at most one bin's mass
        at_median = cdf.at(hist.quantile(0.5))
        assert 0.5 <= at_median <= 0.5 + hist.counts.max() / 2000


class TestLogHistogramWidening:
    """Overflow auto-widening: decade growth, exact rebinning, associativity.

    Before this fix every value above ``DEFAULT_HI = 1e4`` s folded into the
    overflow tail, silently clamping quantiles at the ceiling — pathological
    keepalive settings produce cold starts well past it.
    """

    def test_overflow_grows_hi_by_whole_decades(self):
        hist = LogHistogram()
        hist.add(np.array([2e4]))
        assert hist.hi == pytest.approx(1e5)
        assert hist.bins == 512 + 64  # 64 bins per decade preserved
        assert hist.n_over == 0
        hist.add_one(9.5e7)
        assert hist.hi == pytest.approx(1e8)
        assert hist.n_over == 0

    def test_widening_rebins_exactly(self):
        hist = LogHistogram()
        hist.add(np.array([0.002, 5.0, 7.0, 100.0, 9000.0]))
        before = hist.counts.copy()
        low_quantiles = [hist.quantile(q) for q in (0.1, 0.5)]
        hist.add(np.array([3e6]))
        np.testing.assert_array_equal(hist.counts[: before.size], before)
        assert [hist.quantile(q) for q in (0.1, 0.5)] == low_quantiles

    def test_quantiles_above_old_ceiling_not_clamped(self):
        rng = np.random.default_rng(7)
        # pathological-keepalive regime: a fat tail well past 1e4 s
        values = rng.lognormal(mean=9.0, sigma=2.0, size=5000)
        assert (values > LogHistogram.DEFAULT_HI).sum() > 500
        hist = LogHistogram().add(values)
        # the documented one-bin tolerance of the fig-10/13/15/16 CDF reads
        # must now hold *above* the former ceiling too
        for q in (0.5, 0.9, 0.95, 0.99):
            exact = float(np.quantile(values, q))
            assert hist.quantile(q) == pytest.approx(
                exact, rel=2 * BIN_TOL
            ), f"q={q} clamped or off"
        assert hist.quantile(0.99) > LogHistogram.DEFAULT_HI

    def test_eval_metrics_p95_beyond_ceiling(self):
        from repro.mitigation.base import EvalMetrics

        rng = np.random.default_rng(3)
        waits = rng.lognormal(8.5, 1.5, size=800)
        metrics = EvalMetrics()
        for wait in waits:
            metrics.record_cold(float(wait), 0.0)
        exact_p95 = float(np.percentile(waits, 95))
        assert exact_p95 > LogHistogram.DEFAULT_HI
        assert metrics.p95_cold_wait_s() == pytest.approx(exact_p95, rel=0.08)

    def test_merge_across_different_widths_is_associative(self):
        rng = np.random.default_rng(11)
        chunks = [
            rng.lognormal(1.0, 1.0, size=300),          # never widens
            np.concatenate([rng.lognormal(1.0, 1.0, 100), [5e5]]),   # 2 decades
            np.concatenate([rng.lognormal(1.0, 1.0, 100), [3e10]]),  # 7 decades
        ]

        def hist_of(*parts):
            h = LogHistogram()
            for part in parts:
                h.add(part)
            return h

        a, b, c = (hist_of(chunk) for chunk in chunks)
        left = hist_of(chunks[0]).merge(hist_of(chunks[1])).merge(hist_of(chunks[2]))
        right = hist_of(chunks[1]).merge(hist_of(chunks[2]))
        right = hist_of(chunks[0]).merge(right)
        serial = hist_of(*chunks)
        assert left == right == serial
        assert a.bins < b.bins < c.bins  # genuinely different widths merged

    def test_widening_caps_at_limit(self):
        hist = LogHistogram()
        hist.add(np.array([1e20]))
        assert hist.hi == pytest.approx(LogHistogram.WIDEN_CAP_HI)
        assert hist.n_over == 1
        hist.add_one(math.inf)
        assert hist.n_over == 2
        assert hist.hi == pytest.approx(LogHistogram.WIDEN_CAP_HI)

    def test_fractional_bins_per_decade_widens_by_whole_bins(self):
        # Fractional grids used to clamp overflow into the tail silently;
        # they now grow on their own bin lattice instead.
        hist = LogHistogram(1.0, 5.0, 7)  # no whole-decade growth possible
        hist.add(np.array([2.0, 50.0]))
        assert hist.hi > 50.0
        assert hist.n_over == 0
        assert hist.quantile(1.0) >= 50.0

    def test_incompatible_grids_still_rejected(self):
        with pytest.raises(ValueError):
            LogHistogram(bins=512).merge(LogHistogram(bins=256))


class TestLogHistogramWideningDown:
    """Underflow auto-widening: ``lo`` grows by whole decades so sub-0.1 ms
    populations (fast in-pool allocations, sub-millisecond components) keep
    one-bin quantiles instead of collapsing into the underflow tail."""

    def test_underflow_grows_lo_by_whole_decades(self):
        hist = LogHistogram()
        hist.add(np.array([3e-5]))
        assert hist.lo == pytest.approx(1e-5)
        assert hist.n_under == 0
        hist.add_one(2e-8)
        assert hist.lo == pytest.approx(1e-8)
        assert hist.n_under == 0
        assert hist.hi == pytest.approx(LogHistogram.DEFAULT_HI)  # unchanged

    def test_widening_down_rebins_exactly(self):
        hist = LogHistogram()
        hist.add(np.array([0.002, 5.0, 7.0, 100.0, 9000.0]))
        before = hist.counts.copy()
        before_edges = hist.edges.copy()
        hist.add(np.array([4e-7]))
        added = hist.bins - before.size
        np.testing.assert_array_equal(hist.counts[added:], before)
        np.testing.assert_array_equal(hist.edges[added:], before_edges)

    def test_sub_tenth_millisecond_quantiles_not_clamped(self):
        rng = np.random.default_rng(5)
        values = rng.lognormal(mean=np.log(2e-5), sigma=1.0, size=4000)
        assert (values < LogHistogram.DEFAULT_LO).sum() > 2000
        hist = LogHistogram().add(values)
        for q in (0.05, 0.25, 0.5):
            exact = float(np.quantile(values, q))
            assert hist.quantile(q) == pytest.approx(exact, rel=2 * BIN_TOL), q
        assert hist.quantile(0.05) < LogHistogram.DEFAULT_LO

    def test_merge_across_widened_down_widths(self):
        rng = np.random.default_rng(13)
        chunks = [
            rng.lognormal(0.0, 1.0, size=200),                     # never widens
            np.concatenate([rng.lognormal(0.0, 1.0, 50), [3e-6]]),  # 2 decades down
            np.concatenate([rng.lognormal(0.0, 1.0, 50), [2e-11], [4e6]]),  # both
        ]

        def hist_of(*parts):
            h = LogHistogram()
            for part in parts:
                h.add(part)
            return h

        left = hist_of(chunks[0]).merge(hist_of(chunks[1])).merge(hist_of(chunks[2]))
        right = hist_of(chunks[1]).merge(hist_of(chunks[2]))
        right = hist_of(chunks[0]).merge(right)
        serial = hist_of(*chunks)
        for other in (right, serial):
            assert (left.lo, left.hi, left.bins) == (other.lo, other.hi, other.bins)
            np.testing.assert_array_equal(left.counts, other.counts)
            np.testing.assert_array_equal(left.edges, other.edges)
            assert (left.n_zero, left.n_under, left.n_over) == (
                other.n_zero, other.n_under, other.n_over
            )
            # the documented guarantee: counts exact, sums to addition order
            assert left.sum == pytest.approx(other.sum, rel=1e-12)
        assert serial.lo < 1e-10

    def test_widening_down_caps_at_floor(self):
        hist = LogHistogram()
        hist.add(np.array([1e-20]))
        assert hist.lo == pytest.approx(LogHistogram.WIDEN_CAP_LO)
        assert hist.n_under == 1


class TestDistinctPairs:
    """The lexsort dedupe must return exactly ``np.unique(axis=0)``'s rows."""

    I64 = np.iinfo(np.int64)

    def _chunks(self, seed):
        rng = np.random.default_rng(seed)
        extremes = np.array([self.I64.min, self.I64.min + 1, -1, 0, 1,
                             self.I64.max - 1, self.I64.max], dtype=np.int64)
        chunks = []
        for size in (0, 40, 0, 1, 300, 25, 0, 120):
            a = rng.integers(-6, 6, size=size).astype(np.int64)
            b = rng.integers(-4, 4, size=size).astype(np.int64)
            if size:
                # Extremes in both columns, repeated across chunks.
                at = rng.integers(0, size, size=min(size, 5))
                a[at] = rng.choice(extremes, size=at.size)
                b[at[::-1]] = rng.choice(extremes, size=at.size)
            chunks.append((a, b))
        return chunks

    @staticmethod
    def _assert_unique_rows(got, rows):
        want = np.unique(rows, axis=0) if len(rows) else rows
        assert got.dtype == np.int64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_add_matches_np_unique(self, seed):
        acc = DistinctPairs()
        seen = np.zeros((0, 2), dtype=np.int64)
        for a, b in self._chunks(seed):
            acc.add(a, b)
            seen = np.concatenate([seen, np.stack([a, b], axis=1)])
            self._assert_unique_rows(acc.pairs, seen)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_add_region_blocked_ids_matches_np_unique(self, seed):
        # Narrow id ranges far from zero dedupe on one offset key; a chunk
        # with an extreme id falls back to the row-wise dedupe.
        rng = np.random.default_rng(seed)
        acc = DistinctPairs()
        seen = np.zeros((0, 2), dtype=np.int64)
        for size in (0, 1, 500, 2000, 3, 800):
            a = 5_000_000_000 + 7 * rng.integers(0, 9, size=size)
            b = 5_000_000_000 + rng.integers(0, 40, size=size)
            if size == 3:
                a[1], b[2] = self.I64.min, self.I64.max
            acc.add(a, b)
            seen = np.concatenate([seen, np.stack([a, b], axis=1)])
            self._assert_unique_rows(acc.pairs, seen)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_merge_matches_np_unique(self, seed):
        chunks = self._chunks(seed)
        left, right = DistinctPairs(), DistinctPairs()
        for i, (a, b) in enumerate(chunks):
            (left if i % 2 else right).add(a, b)
        left.merge(right).merge(DistinctPairs())
        rows = np.concatenate([np.stack(c, axis=1) for c in chunks])
        self._assert_unique_rows(left.pairs, rows)
        np.testing.assert_array_equal(
            left.counts_per_first(),
            np.unique(np.unique(rows, axis=0)[:, 0], return_counts=True)[1],
        )
