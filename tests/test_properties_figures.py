"""Differential property tests: materialised figure helpers vs the frozen oracle.

The figure passes now compute each statistic once: a direct KS statistic
without ``kstest``'s p-value, median-day counts through dense codes, one
binning for a figure's counts and means, Fig. 6's matrix from one
``bincount``, Fig. 4's pairs from one sort, and prefix-sum smoothing of
integer series. :mod:`figures_oracle` keeps the previous helpers. Both
must agree byte for byte — dtype, shape and ``tobytes()`` — on:

* samples with ties, n near 10 and n of 200k, for both fitted families;
* integer series with and without NaNs, and float series, at any window
  up to the series length;
* bundles with zero requests, one function, one user and duplicate
  timestamps, with region-blocked ids as R5 numbers them.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy import stats

import figures_oracle as oracle
from repro.analysis.coldstart_stats import hourly_component_means
from repro.analysis.peaks import function_minute_matrix, peak_to_trough_ratio
from repro.analysis.region_stats import (
    _functions_per_user_counts,
    median_day_requests,
    per_minute_usage_cdfs,
)
from repro.analysis.timeseries import bin_counts, bin_counts_and_means, bin_means, moving_average
from repro.core.findings import extract_findings
from repro.core.fits import fit_cold_start_iats, fit_cold_start_times, ks_statistic
from repro.core.study import TraceStudy
from repro.trace.tables import FunctionTable, PodTable, RequestTable, TraceBundle
from repro.viz.figures import FIGURES, render

_SETTINGS = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
_FAMILIES = {"lognorm": stats.lognorm, "weibull_min": stats.weibull_min}


def _same(got: np.ndarray, want: np.ndarray) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# --- the KS statistic -------------------------------------------------------------


@_SETTINGS
@given(
    family=st.sampled_from(sorted(_FAMILIES)),
    n=st.integers(10, 60),
    distinct=st.integers(1, 12),
    shape=st.floats(0.2, 3.0),
    scale=st.floats(0.05, 20.0),
    seed=st.integers(0, 2**16),
)
def test_ks_statistic_matches_kstest(family, n, distinct, shape, scale, seed):
    rng = np.random.default_rng(seed)
    # draws from a few distinct values, so most samples carry ties
    pool = _FAMILIES[family].rvs(shape, 0, scale, size=distinct, random_state=rng)
    values = rng.choice(pool, size=n)
    args = (shape, 0, scale)
    want = stats.kstest(values, family, args=args).statistic
    got = ks_statistic(values, _FAMILIES[family].cdf, args)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_ks_statistic_matches_kstest_at_fit_size(family):
    rng = np.random.default_rng(3)
    values = _FAMILIES[family].rvs(0.8, 0, 2.0, size=200_000, random_state=rng)
    values[::7] = values[1::7][: values[::7].size]  # ties
    args = (0.9, 0, 1.7)
    want = stats.kstest(values, family, args=args).statistic
    assert ks_statistic(values, _FAMILIES[family].cdf, args) == float(want)


@pytest.mark.parametrize("n", [10, 11, 500, 5000])
def test_fits_match_oracle(n):
    rng = np.random.default_rng(n)
    values = np.round(rng.lognormal(0.3, 1.2, size=n), 3)  # rounding adds ties
    assert fit_cold_start_times(values) == oracle.fit_cold_start_times(values)
    assert fit_cold_start_iats(values) == oracle.fit_cold_start_iats(values)


# --- smoothing ----------------------------------------------------------------------


@st.composite
def _series_and_window(draw, integer: bool, nans: bool):
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    top = draw(st.sampled_from((1, 3, 60, 10**6)))
    series = rng.integers(-top if draw(st.booleans()) else 0, top + 1, size=n).astype(np.float64)
    series[rng.random(n) < draw(st.floats(0.0, 0.9))] = 0.0
    if not integer:
        series += rng.random(n)
    if nans:
        series[rng.random(n) < draw(st.floats(0.0, 0.5))] = np.nan
    return series, draw(st.integers(1, n))


@_SETTINGS
@given(case=_series_and_window(integer=True, nans=False))
def test_prefix_sum_smoothing_matches_convolution(case):
    series, window = case
    _same(moving_average(series, window), oracle.moving_average(series, window))


@_SETTINGS
@given(case=st.one_of(
    _series_and_window(integer=True, nans=True),
    _series_and_window(integer=False, nans=False),
    _series_and_window(integer=False, nans=True),
))
def test_other_series_keep_the_convolution(case):
    series, window = case
    _same(moving_average(series, window), oracle.moving_average(series, window))


@_SETTINGS
@given(
    n=st.integers(1, 80), window=st.integers(1, 200), seed=st.integers(0, 2**16),
    nans=st.booleans(),
)
def test_smoothing_keeps_the_series_length(n, window, seed, nans):
    rng = np.random.default_rng(seed)
    series = rng.integers(0, 9, size=n).astype(np.float64)
    if nans:
        series[rng.random(n) < 0.3] = np.nan
    got = moving_average(series, window)
    assert got.shape == (n,)
    for i in range(n):
        part = series[max(i - window // 2, 0): i + (window - 1) // 2 + 1]
        part = part[~np.isnan(part)]
        if part.size:
            assert got[i] == pytest.approx(part.mean(), rel=1e-12)
        else:
            assert np.isnan(got[i])


@_SETTINGS
@given(days=st.integers(1, 3), rate=st.integers(0, 40), seed=st.integers(0, 2**16))
def test_peak_to_trough_matches_oracle(days, rate, seed):
    rng = np.random.default_rng(seed)
    minutes = days * 1440
    per_minute = rng.poisson(rate * (1.0 + np.sin(np.arange(minutes) / 200.0)))
    per_minute = per_minute.astype(np.float64)
    assert peak_to_trough_ratio(per_minute) == oracle.peak_to_trough_ratio(per_minute)


# --- per-region statistics over request bundles -----------------------------------------


_BASE = 5_000_000_000  # region-blocked ids, as R5 numbers them


@st.composite
def _bundles(draw) -> TraceBundle:
    n = draw(st.sampled_from((0, 1, 2, 7, 40, 300)))
    n_functions = draw(st.integers(1, 4))
    n_users = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):  # duplicate timestamps
        times = rng.choice(rng.integers(0, 3 * 86_400_000, size=3), size=n)
    else:
        times = rng.integers(0, draw(st.sampled_from((60_000, 86_400_000, 3 * 86_400_000))), size=n)
    requests = RequestTable.from_columns(
        timestamp_ms=np.sort(times).astype(np.int64),
        pod_id=rng.integers(0, 5, size=n),
        cluster=np.zeros(n, dtype=np.int16),
        function=_BASE + 3 * rng.integers(0, n_functions, size=n),
        user=_BASE + 7 * rng.integers(0, n_users, size=n),
        request_id=np.arange(n, dtype=np.int64),
        exec_time_us=rng.integers(1, 5_000_000, size=n),
        cpu_millicores=rng.random(n) * 2000.0,
        memory_bytes=rng.integers(1, 10**9, size=n),
    )
    m = draw(st.sampled_from((0, 1, 5, 60)))
    columns = {spec.name: rng.integers(0, 3_000_000, m) for spec in PodTable.schema.columns}
    columns["timestamp_ms"] = np.sort(rng.choice(np.unique(times) if n else [0], size=m))
    columns["function"] = _BASE + 3 * rng.integers(0, n_functions, size=m)
    pods = PodTable.from_columns(**columns)
    return TraceBundle(region="R5", requests=requests, pods=pods,
                       functions=FunctionTable.empty())


@_SETTINGS
@given(bundle=_bundles())
def test_day_counts_match_oracle(bundle):
    function_ids, per_day = median_day_requests(bundle)
    _same(per_day, oracle.requests_per_day_per_function(bundle))
    _same(function_ids, np.unique(bundle.requests["function"]))


@_SETTINGS
@given(bundle=_bundles())
def test_fig06_matrix_matches_oracle(bundle):
    requests = bundle.requests
    ts = requests.timestamps_s
    horizon = float(ts.max()) + 60.0 if len(requests) else 60.0
    function_ids, _ = median_day_requests(bundle)
    got = function_minute_matrix(function_ids, requests["function"], ts, horizon)
    want = oracle.minute_matrix(bundle, horizon)
    assert got.dtype == np.int64 and got.shape[0] == len(want)
    for row, want_row in zip(got, want):
        _same(row.astype(np.float64), want_row)


@_SETTINGS
@given(bundle=_bundles())
def test_functions_per_user_match_oracle(bundle):
    _same(_functions_per_user_counts(bundle), oracle.functions_per_user_counts(bundle))


@_SETTINGS
@given(bundle=_bundles(), bin_s=st.sampled_from((60.0, 3600.0, 86_400.0)),
       horizon=st.sampled_from((None, 30.0, 4 * 86_400.0)))
def test_bin_means_match_oracle(bundle, bin_s, horizon):
    requests = bundle.requests
    ts = requests.timestamps_s
    columns = [requests.exec_time_s, requests["cpu_millicores"] / 1000.0]
    for values in columns:
        _same(bin_means(ts, values, bin_s, horizon), oracle.bin_means(ts, values, bin_s, horizon))
    counts, means = bin_counts_and_means(ts, columns, bin_s, horizon)
    _same(counts, bin_counts(ts, bin_s, horizon))
    for got, values in zip(means, columns):
        _same(got, oracle.bin_means(ts, values, bin_s, horizon))


@_SETTINGS
@given(bundle=_bundles())
def test_minute_usage_cdfs_match_oracle(bundle):
    exec_cdf, cpu_cdf = per_minute_usage_cdfs(bundle)
    for got, want in ((exec_cdf, oracle.exec_time_per_minute_cdf(bundle)),
                      (cpu_cdf, oracle.cpu_per_minute_cdf(bundle))):
        _same(got.values, want.values)
        _same(got.probabilities, want.probabilities)


@_SETTINGS
@given(bundle=_bundles())
def test_pod_binnings_match_oracle(bundle):
    pods = bundle.pods
    got, want = hourly_component_means(pods), oracle.hourly_component_means(pods)
    assert list(got) == list(want)
    for key in want:
        _same(got[key], want[key])
    # a constant per-minute series keeps spearmanr's ConstantInputWarning:
    # both sides must raise the same ones
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        got = TraceStudy({bundle.region: bundle}).fig12_correlations(bundle.region)
    with warnings.catch_warnings(record=True) as want_warnings:
        warnings.simplefilter("always")
        want = oracle.component_correlations(pods)
    _same(got.rho, want.rho)
    _same(got.pvalues, want.pvalues)
    assert got.n_minutes == want.n_minutes
    assert [(w.category, str(w.message)) for w in got_warnings] == [
        (w.category, str(w.message)) for w in want_warnings
    ]


# --- the whole materialised pass ----------------------------------------------------------


def _texts(study) -> list[str]:
    texts = [render(fig_id, study) for fig_id in sorted(FIGURES)]
    return texts + [json.dumps([f.summary_row() for f in extract_findings(study)])]


def test_renders_and_findings_match_oracle_study():
    study = TraceStudy.generate(regions=("R1", "R2", "R3"), seed=5, days=3, scale=0.05)
    assert _texts(study) == _texts(oracle.OracleTraceStudy(study.bundles))
