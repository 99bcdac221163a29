"""Core API: distribution fits, correlations, utility ratios, TraceStudy."""

import numpy as np
import pytest

from repro.core.bundle_data import BundleData
from repro.core.correlations import CORRELATION_FIELDS
from repro.core.fits import (
    LogNormalFit,
    PAPER_COLD_START_FIT,
    PAPER_IAT_FIT,
    WeibullFit,
    fit_cold_start_iats,
    fit_cold_start_times,
)
from repro.core.study import TraceStudy
from repro.core.utility import utility_ratios_from, utility_summary
from repro.sim.rng import RngFactory


class TestLogNormalFit:
    def test_from_moments_round_trip(self):
        fit = LogNormalFit.from_moments(mean=3.24, std=7.10)
        assert fit.mean == pytest.approx(3.24, rel=1e-6)
        assert fit.std == pytest.approx(7.10, rel=1e-6)

    def test_paper_fit_constants(self):
        assert PAPER_COLD_START_FIT.mean == pytest.approx(3.24, rel=1e-6)
        assert PAPER_COLD_START_FIT.std == pytest.approx(7.10, rel=1e-6)

    def test_fit_recovers_parameters(self):
        rng = RngFactory(5).fresh("ln")
        truth = LogNormalFit.from_moments(mean=2.0, std=4.0)
        data = truth.sample(100_000, rng)
        fit = fit_cold_start_times(data)
        assert fit.mu == pytest.approx(truth.mu, abs=0.03)
        assert fit.sigma == pytest.approx(truth.sigma, abs=0.03)
        assert fit.ks_statistic < 0.01

    def test_cdf_monotone(self):
        fit = LogNormalFit.from_moments(2.0, 3.0)
        grid = np.logspace(-2, 2, 50)
        values = fit.cdf(grid)
        assert (np.diff(values) >= 0).all()

    def test_fit_needs_data(self):
        with pytest.raises(ValueError):
            fit_cold_start_times(np.array([1.0, 2.0]))

    def test_bad_moments_rejected(self):
        with pytest.raises(ValueError):
            LogNormalFit.from_moments(-1.0, 1.0)


class TestWeibullFit:
    def test_moments(self):
        fit = WeibullFit(k=1.0, lam=2.0)  # exponential special case
        assert fit.mean == pytest.approx(2.0)
        assert fit.std == pytest.approx(2.0)

    def test_paper_iat_fit_mean(self):
        assert PAPER_IAT_FIT.mean == pytest.approx(1.25, abs=0.05)

    def test_fit_recovers_shape(self):
        rng = RngFactory(6).fresh("wb")
        data = WeibullFit(k=0.7, lam=1.5).sample(100_000, rng)
        fit = fit_cold_start_iats(data)
        assert fit.k == pytest.approx(0.7, abs=0.03)
        assert fit.lam == pytest.approx(1.5, abs=0.08)

    def test_sample_positive(self):
        rng = RngFactory(7).fresh("wb2")
        assert (WeibullFit(k=0.5, lam=1.0).sample(1000, rng) >= 0).all()


class TestCorrelations:
    def test_matrix_properties(self, r2_bundle):
        matrix = TraceStudy({"R2": r2_bundle}).fig12_correlations("R2")
        assert matrix.fields == CORRELATION_FIELDS
        assert np.allclose(np.diag(matrix.rho), 1.0)
        assert np.allclose(matrix.rho, matrix.rho.T)
        assert (np.abs(matrix.rho) <= 1.0 + 1e-9).all()

    def test_total_tracks_dominant_component_r2(self, r2_bundle):
        matrix = TraceStudy({"R2": r2_bundle}).fig12_correlations("R2")
        # R2 is allocation-dominated (paper Fig. 12b: rho ~ 0.9).
        assert matrix.get("cold_start_time", "pod_alloc_time") > 0.5

    def test_count_correlation_positive(self, r2_bundle):
        matrix = TraceStudy({"R2": r2_bundle}).fig12_correlations("R2")
        assert matrix.get("cold_start_time", "num_cold_starts") > 0.0

    def test_rows_render_with_stars(self, r2_bundle):
        matrix = TraceStudy({"R2": r2_bundle}).fig12_correlations("R2")
        rows = matrix.rows()
        assert len(rows) == len(CORRELATION_FIELDS)
        assert any("*" in str(v) for row in rows for v in row.values())


class TestUtility:
    def test_ratios_positive_and_aligned(self, r2_bundle):
        data = BundleData(r2_bundle)
        functions, ratios = utility_ratios_from(data.pod_intervals(), *data.pod_join())
        assert functions.shape == ratios.shape
        assert (ratios >= 0).all()

    def test_summary_statistics(self):
        summary = utility_summary(np.array([0.5, 0.5, 2.0, 8.0, 200.0]))
        assert summary.share_below_1 == pytest.approx(0.4)
        assert summary.share_above_100 == pytest.approx(0.2)
        assert summary.median == pytest.approx(2.0)

    def test_empty_summary(self):
        assert utility_summary(np.zeros(0)).n_pods == 0

    def test_by_category_includes_all(self, r2_bundle):
        result = TraceStudy({"R2": r2_bundle}).fig17_utility(by="trigger")
        assert "all" in result
        cdf, summary = result["all"]
        assert cdf.n == summary.n_pods

    def test_timers_have_low_utility(self, r2_bundle):
        result = TraceStudy({"R2": r2_bundle}).fig17_utility(by="trigger")
        if "TIMER-A" in result and "APIG-S" in result:
            assert result["TIMER-A"][1].median < result["APIG-S"][1].median

    def test_bad_category_rejected(self, r2_bundle):
        with pytest.raises(ValueError):
            TraceStudy({"R2": r2_bundle}).fig17_utility(by="vibe")


class TestTraceStudy:
    @pytest.fixture(scope="class")
    def study(self, multi_bundles):
        return TraceStudy(multi_bundles)

    def test_requires_bundles(self):
        with pytest.raises(ValueError):
            TraceStudy({})

    def test_fig01(self, study):
        rows = study.fig01_region_sizes()
        assert len(rows) == 5

    def test_fig03_family(self, study):
        assert set(study.fig03_requests_per_day()) == set(study.regions)
        assert set(study.fig03_exec_time()) == set(study.regions)
        assert set(study.fig03_cpu_usage()) == set(study.regions)
        shares = study.fig03_share_at_least_1_per_minute()
        assert all(0 <= v <= 1 for v in shares.values())

    def test_fig04(self, study):
        assert study.fig04_functions_per_user()["R2"].n > 0
        assert study.fig04_requests_per_user()["R2"].n > 0

    def test_fig05_peaks(self, study):
        hours = study.fig05_peak_hours()
        assert set(hours) == set(study.regions)
        assert all(0 <= h < 24 for h in hours.values())

    def test_fig06_rows(self, study):
        rows = study.fig06_peak_trough(region="R2")
        assert rows
        for row in rows:
            assert row["peak_to_trough"] >= 1.0

    def test_fig08_and_09(self, study):
        props = study.fig08_proportions(by="trigger")
        assert sum(p["functions"] for p in props.values()) == pytest.approx(1.0)
        mix = study.fig09_trigger_by_runtime()
        assert mix

    def test_fig10_fits(self, study):
        fit = study.fig10_lognormal_fit()
        assert fit.mean > 0
        weibull = study.fig10_weibull_fit()
        assert 0 < weibull.k < 2  # heavy-tailed like the paper's fit

    def test_fig11(self, study):
        hourly = study.fig11_hourly_components("R2")
        assert hourly["count"].sum() > 0
        dominant = study.fig11_dominant_component()
        assert set(dominant) == set(study.regions)

    def test_fig12(self, study):
        matrix = study.fig12_correlations("R2")
        assert matrix.n_minutes > 10

    def test_fig13(self, study):
        split = study.fig13_pool_split("R2")
        assert "cold_start_s" in split

    def test_fig14_to_17(self, study):
        assert study.fig14_requests_vs_cold_starts()
        assert "all" in study.fig15_by_runtime()
        assert "all" in study.fig16_by_trigger()
        assert "all" in study.fig17_utility()

    def test_unknown_region_rejected(self, study):
        with pytest.raises(KeyError):
            study.region("R9")
