"""Analysis toolkit: CDFs, time series, peaks, report rendering."""

import numpy as np
import pytest

from repro.analysis.cdf import Cdf, empirical_cdf, log_grid, quantiles
from repro.analysis.peaks import (
    daily_peak_minutes,
    peak_to_trough_ratio,
)
from repro.analysis.region_stats import _functions_per_user_counts
from repro.analysis.report import format_cdf_rows, format_table
from repro.analysis.timeseries import (
    bin_counts,
    bin_means,
    bin_sums,
    moving_average,
    normalize_max,
    presence_counts,
)
from repro.trace.tables import FunctionTable, PodTable, RequestTable, TraceBundle


class TestCdf:
    def test_empirical_properties(self):
        cdf = empirical_cdf(np.array([3.0, 1.0, 2.0]))
        assert cdf.n == 3
        assert cdf.probabilities[-1] == 1.0
        assert cdf.median == 2.0

    def test_quantile_interpolation_free(self):
        cdf = empirical_cdf(np.arange(1, 101, dtype=float))
        assert cdf.quantile(0.25) == 25.0
        assert cdf.quantile(1.0) == 100.0
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_at(self):
        cdf = empirical_cdf(np.array([1.0, 2.0, 3.0, 4.0]))
        assert cdf.at(0.5) == 0.0
        assert cdf.at(2.0) == 0.5
        assert cdf.at(10.0) == 1.0

    def test_nan_dropped(self):
        cdf = empirical_cdf(np.array([1.0, np.nan, 3.0]))
        assert cdf.n == 2

    def test_empty(self):
        cdf = empirical_cdf(np.zeros(0))
        assert cdf.n == 0
        assert np.isnan(cdf.quantile(0.5))

    def test_sample_points(self):
        cdf = empirical_cdf(np.logspace(0, 3, 100))
        points = cdf.sample_points(10)
        probs = [p for _, p in points]
        assert probs == sorted(probs)

    def test_log_grid(self):
        grid = log_grid(0.1, 100.0, 4)
        assert grid[0] == pytest.approx(0.1)
        assert grid[-1] == pytest.approx(100.0)
        with pytest.raises(ValueError):
            log_grid(0.0, 1.0)

    def test_quantiles_helper(self):
        result = quantiles(np.arange(1, 101, dtype=float), (0.5,))
        assert result[0.5] == pytest.approx(50.5)


class TestTimeseries:
    def test_bin_counts(self):
        counts = bin_counts(np.array([0.0, 30.0, 61.0]), 60.0, 180.0)
        assert counts.tolist() == [2.0, 1.0, 0.0]

    def test_bin_counts_infer_horizon(self):
        counts = bin_counts(np.array([10.0, 130.0]), 60.0)
        assert counts.size == 4  # ceil((130+60)/60)

    def test_bin_sums_and_means(self):
        times = np.array([0.0, 30.0, 61.0])
        values = np.array([1.0, 3.0, 5.0])
        assert bin_sums(times, values, 60.0, 120.0).tolist() == [4.0, 5.0]
        means = bin_means(times, values, 60.0, 180.0)
        assert means[0] == pytest.approx(2.0)
        assert np.isnan(means[2])

    def test_bin_validation(self):
        with pytest.raises(ValueError):
            bin_counts(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            bin_sums(np.array([1.0]), np.array([1.0, 2.0]), 60.0)

    def test_moving_average_constant(self):
        series = np.full(10, 4.0)
        assert np.allclose(moving_average(series, 3), 4.0)

    def test_moving_average_handles_nan(self):
        series = np.array([1.0, np.nan, 3.0])
        smoothed = moving_average(series, 3)
        assert smoothed[1] == pytest.approx(2.0)

    def test_moving_average_short_series_keeps_length(self):
        # np.convolve(mode="same") returned max(n, window) samples here
        series = np.arange(10.0)
        for values in (series, series + 0.5):
            smoothed = moving_average(values, 60)
            assert smoothed.shape == (10,)
            assert np.allclose(smoothed, values.mean())
        smoothed = moving_average(np.array([1.0, np.nan, 3.0, 8.0]), 5)
        assert smoothed.tolist() == [2.0, 4.0, 4.0, 5.5]

    def test_normalize_max(self):
        assert normalize_max(np.array([1.0, 2.0, 4.0])).max() == 1.0
        assert normalize_max(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]

    def test_presence_counts(self):
        starts = np.array([0.0, 30.0])
        ends = np.array([90.0, 150.0])
        counts = presence_counts(starts, ends, 60.0, 240.0)
        assert counts.tolist() == [2.0, 2.0, 1.0, 0.0]

    def test_presence_rejects_inverted(self):
        with pytest.raises(ValueError):
            presence_counts(np.array([10.0]), np.array([5.0]), 60.0, 120.0)


class TestPeaks:
    def test_daily_peak_minutes_location(self):
        minutes = np.arange(3 * 1440)
        # Peak at minute 720 (noon) every day.
        series = np.exp(-0.5 * ((minutes % 1440 - 720) / 60.0) ** 2)
        peaks = daily_peak_minutes(series, smooth_window=10)
        assert peaks.shape == (3,)
        assert np.abs(peaks - 720).max() < 30

    def test_ptt_low_rate_is_one(self):
        sparse = np.zeros(1440)
        sparse[100] = 3.0
        assert peak_to_trough_ratio(sparse) == 1.0

    def test_ptt_constant_high_rate_near_one(self):
        constant = np.full(1440 * 2, 2.0)  # 2 req/min constant
        assert peak_to_trough_ratio(constant) == pytest.approx(1.0, abs=0.05)

    def test_ptt_bursty_large(self):
        series = np.ones(1440 * 2)
        series[700:760] = 300.0
        series[700 + 1440 : 760 + 1440] = 300.0
        assert peak_to_trough_ratio(series, smooth_window=30) > 20

    def test_ptt_empty(self):
        assert peak_to_trough_ratio(np.zeros(0)) == 1.0


class TestReport:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 222, "b": "z"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_table_empty(self):
        assert format_table([]) == "(empty)"

    def test_format_cdf_rows(self):
        rows = format_cdf_rows({"x": empirical_cdf(np.arange(1.0, 101.0))})
        assert rows[0]["series"] == "x"
        assert rows[0]["p50"] == 50.0


class TestFunctionsPerUser:
    """Fig. 4a counts against the row-wise ``np.unique(..., axis=0)`` form."""

    @staticmethod
    def _bundle(user: np.ndarray, function: np.ndarray) -> TraceBundle:
        n = user.size
        requests = RequestTable.from_columns(
            timestamp_ms=np.arange(n, dtype=np.int64),
            pod_id=np.arange(n, dtype=np.int64),
            cluster=np.zeros(n, dtype=np.int16),
            function=function,
            user=user,
            request_id=np.arange(n, dtype=np.int64),
            exec_time_us=np.ones(n, dtype=np.int64),
            cpu_millicores=np.ones(n),
            memory_bytes=np.ones(n, dtype=np.int64),
        )
        return TraceBundle(region="T1", requests=requests,
                           pods=PodTable.empty(), functions=FunctionTable.empty())

    @pytest.mark.parametrize("user_ids,function_ids", [
        # User id 0 next to the largest function id int64 holds.
        ([0, 1, 7], [0, 3, np.iinfo(np.int64).max]),
        # Region-blocked ids as R5 numbers them: user * (max function + 1)
        # would not fit in int64.
        ([5_000_000_000, 5_000_000_003], [5_000_000_000, 5_000_000_001,
                                          5_000_000_009]),
        ([-4, 0, 2], [-9, -1, 6]),
    ])
    def test_counts_match_row_unique(self, user_ids, function_ids):
        rng = np.random.default_rng(0)
        user = rng.choice(np.array(user_ids, dtype=np.int64), size=200)
        function = rng.choice(np.array(function_ids, dtype=np.int64), size=200)
        pairs = np.unique(np.stack([user, function], axis=1), axis=0)
        _, want = np.unique(pairs[:, 0], return_counts=True)
        got = _functions_per_user_counts(self._bundle(user, function))
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()
