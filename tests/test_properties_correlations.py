"""Differential property tests: rank-once vs pairwise Spearman matrices.

:func:`repro.core.correlations.correlations_from_series` ranks each
per-minute series once and repeats ``spearmanr``'s arithmetic per pair. The
frozen pairwise loop in :mod:`correlations_oracle` calls ``spearmanr`` on
every pair. Both must agree byte for byte on rho and p, and raise the same
warnings in the same order. Series are drawn to hit:

* ties (values drawn from a small pool) and integer cold-start counts;
* a constant series and a NaN-bearing one (``spearmanr``'s own path);
* identical and negated series (rho = +/-1, p = 0);
* ``n_minutes`` 0 to 3, where the matrix degenerates or dof is 1.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy import stats

from correlations_oracle import correlations_oracle
from repro.core import correlations as correlations_module
from repro.core import study as study_module
from repro.core.correlations import CORRELATION_FIELDS, correlations_from_series
from repro.core.study import StreamingTraceStudy, TraceStudy

_SETTINGS = settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_FLOAT_FIELDS = tuple(f for f in CORRELATION_FIELDS if f != "num_cold_starts")


def _run(fn, series):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        matrix = fn(series)
    return matrix, [(w.category, str(w.message)) for w in caught]


def _assert_identical(series) -> None:
    got, got_warnings = _run(correlations_from_series, series)
    want, want_warnings = _run(correlations_oracle, series)
    assert got.fields == want.fields
    assert got.n_minutes == want.n_minutes
    for name in ("rho", "pvalues"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got_warnings == want_warnings


@st.composite
def _series(draw):
    n = draw(st.one_of(st.sampled_from((0, 1, 2, 3)), st.integers(4, 60)))
    pool = draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=8,
    ))
    out = {"num_cold_starts": np.array(
        draw(st.lists(st.integers(0, 40), min_size=n, max_size=n)), dtype=np.int64,
    )}
    for field in _FLOAT_FIELDS:
        kind = draw(st.sampled_from(
            ("ties", "free", "constant", "nan", "same", "negated")
        ))
        if kind in ("same", "negated"):
            source = np.asarray(out[draw(st.sampled_from(sorted(out)))], dtype=np.float64)
            values = source.copy() if kind == "same" else -source
        elif kind == "constant":
            values = np.full(n, draw(st.sampled_from(pool)))
        elif kind == "free":
            values = np.array(draw(st.lists(
                st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
                min_size=n, max_size=n,
            )), dtype=np.float64)
        else:
            values = np.array(draw(st.lists(
                st.sampled_from(pool), min_size=n, max_size=n,
            )), dtype=np.float64)
            if kind == "nan" and n:
                values[draw(st.integers(0, n - 1))] = np.nan
        out[field] = values
    return out


class TestRankOnceMatchesPairwise:
    @_SETTINGS
    @given(_series())
    def test_random_series(self, series):
        _assert_identical(series)

    @pytest.mark.parametrize("n", [2, 3])
    def test_short_series(self, n):
        rng = np.random.default_rng(n)
        series = {f: rng.normal(size=n) for f in _FLOAT_FIELDS}
        series["num_cold_starts"] = rng.integers(1, 5, size=n)
        _assert_identical(series)

    def test_identical_and_negated_series(self):
        base = np.array([3.0, 1.0, 2.0, 2.0, 5.0, 7.5, 0.5])
        series = {f: base.copy() for f in _FLOAT_FIELDS}
        series["deploy_dep_time"] = -base
        series["num_cold_starts"] = np.array([4, 2, 3, 3, 6, 8, 1])
        _assert_identical(series)
        matrix = correlations_from_series(series)
        assert matrix.get("cold_start_time", "deploy_code_time") == 1.0
        assert matrix.get("cold_start_time", "num_cold_starts") == 1.0
        assert matrix.get("cold_start_time", "deploy_dep_time") == -1.0
        assert np.all(matrix.pvalues == 0.0)

    def test_constant_and_nan_series_keep_spearmanr_warnings(self):
        rng = np.random.default_rng(0)
        series = {f: rng.normal(size=30) for f in _FLOAT_FIELDS}
        series["num_cold_starts"] = rng.integers(1, 9, size=30)
        series["scheduling_time"] = np.full(30, 0.25)
        series["pod_alloc_time"][4] = np.nan
        _assert_identical(series)
        matrix, caught = _run(correlations_from_series, series)
        assert any(issubclass(c, stats.ConstantInputWarning) for c, _ in caught)
        assert np.isnan(matrix.get("scheduling_time", "cold_start_time"))
        assert np.isnan(matrix.get("pod_alloc_time", "cold_start_time"))


def test_study_matrices_match_the_oracle(multi_bundles, monkeypatch):
    """Every region's Fig. 12 series, materialised and streamed."""
    captured = []

    def capture(series):
        captured.append(series)
        return correlations_from_series(series)

    monkeypatch.setattr(correlations_module, "correlations_from_series", capture)
    monkeypatch.setattr(study_module, "correlations_from_series", capture)
    for study in (TraceStudy(multi_bundles), StreamingTraceStudy.from_bundles(multi_bundles)):
        for name in study.regions:
            study.fig12_correlations(name)
    assert len(captured) == 2 * len(multi_bundles)
    for series in captured:
        _assert_identical(series)
