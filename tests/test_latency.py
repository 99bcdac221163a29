"""Cold-start component latency models."""

import numpy as np
import pytest

from repro.sim.latency import (
    ComponentParams,
    LatencyModel,
    LatencyRegime,
    RUNTIME_CODES,
    runtime_code,
)
from repro.sim.rng import RngFactory
from repro.workload.catalog import Runtime
from repro.workload.regions import region_profile


def make_regime(**overrides) -> LatencyRegime:
    params = dict(
        alloc_median_s=0.1,
        alloc_sigma=0.5,
        deep_search_p2=0.1,
        deep_search_p3=0.02,
        stage2_median_s=1.0,
        stage3_median_s=6.0,
        code_median_s=0.05,
        code_sigma=0.5,
        dep_median_s=0.2,
        dep_sigma=0.5,
        sched_median_s=0.15,
        sched_sigma=0.5,
    )
    params.update(overrides)
    return LatencyRegime(**params)


def make_params(n=2000, runtime=Runtime.PYTHON3, large=False, deps=True, congestion=0.0):
    return ComponentParams(
        runtime_codes=np.full(n, runtime_code(runtime)),
        is_large=np.full(n, large),
        has_deps=np.full(n, deps),
        code_size_mb=np.full(n, 5.0),
        dep_size_mb=np.full(n, 20.0),
        congestion=np.full(n, congestion),
    )


def model(**overrides) -> LatencyModel:
    return LatencyModel(make_regime(**overrides), RngFactory(1).fresh("latency"))


class TestRegimeValidation:
    def test_negative_median_rejected(self):
        with pytest.raises(ValueError):
            make_regime(alloc_median_s=-1.0)

    def test_stage_probabilities_bounded(self):
        with pytest.raises(ValueError):
            make_regime(deep_search_p2=0.8, deep_search_p3=0.4)


class TestComponents:
    def test_all_positive(self):
        out = model().sample_components(make_params())
        for key, values in out.items():
            if key == "deploy_dep_s":
                continue
            assert (values > 0).all(), key

    def test_total_exceeds_component_sum(self):
        out = model().sample_components(make_params())
        parts = (
            out["pod_alloc_s"] + out["deploy_code_s"]
            + out["deploy_dep_s"] + out["scheduling_s"]
        )
        assert (out["total_s"] >= parts).all()

    def test_no_deps_means_zero_dep_time(self):
        out = model().sample_components(make_params(deps=False))
        assert (out["deploy_dep_s"] == 0).all()

    def test_large_pods_slower_alloc_and_deploy(self):
        small = model().sample_components(make_params(large=False))
        large = model().sample_components(make_params(large=True))
        assert np.median(large["pod_alloc_s"]) > np.median(small["pod_alloc_s"])
        assert np.median(large["deploy_code_s"]) > np.median(small["deploy_code_s"])
        assert np.median(large["deploy_dep_s"]) > np.median(small["deploy_dep_s"])

    def test_congestion_inflates_coupled_components(self):
        calm = model(congestion_gain_sched=0.8).sample_components(
            make_params(congestion=0.0)
        )
        busy = model(congestion_gain_sched=0.8).sample_components(
            make_params(congestion=2.0)
        )
        assert np.median(busy["scheduling_s"]) > 1.5 * np.median(calm["scheduling_s"])

    def test_custom_runtime_from_scratch(self):
        default = model().sample_components(make_params(runtime=Runtime.PYTHON3))
        custom = model().sample_components(make_params(runtime=Runtime.CUSTOM))
        assert np.median(custom["pod_alloc_s"]) > 10 * np.median(default["pod_alloc_s"])

    def test_http_pays_server_boot(self):
        default = model().sample_components(make_params(runtime=Runtime.PYTHON3))
        http = model().sample_components(make_params(runtime=Runtime.HTTP))
        assert np.median(http["pod_alloc_s"]) > np.median(default["pod_alloc_s"]) + 1.0

    def test_go_heavy_code_and_deps(self):
        python = model().sample_components(make_params(runtime=Runtime.PYTHON3))
        go = model().sample_components(make_params(runtime=Runtime.GO))
        assert np.median(go["deploy_code_s"]) > 1.5 * np.median(python["deploy_code_s"])
        assert np.median(go["deploy_dep_s"]) > 1.5 * np.median(python["deploy_dep_s"])

    def test_code_size_scales_deploy(self):
        small = make_params()
        big = make_params()
        big.code_size_mb[:] = 100.0
        m = model()
        assert np.median(m.sample_components(big)["deploy_code_s"]) > np.median(
            m.sample_components(small)["deploy_code_s"]
        )

    def test_multimodal_alloc_with_stages(self):
        out = model(
            deep_search_p2=0.3, deep_search_p3=0.1, stage2_median_s=2.0,
            stage3_median_s=20.0,
        ).sample_components(make_params(n=5000))
        alloc = out["pod_alloc_s"]
        assert (alloc > 1.0).mean() > 0.2  # deep-stage mass
        assert (alloc < 0.5).mean() > 0.4  # stage-1 mass

    def test_sample_one_scalar(self):
        sample = model().sample_one(Runtime.JAVA, is_large=True, has_deps=True)
        assert set(sample) == {
            "pod_alloc_s", "deploy_code_s", "deploy_dep_s", "scheduling_s", "total_s",
        }
        assert sample["total_s"] > 0


class TestComponentParams:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ComponentParams(
                runtime_codes=np.zeros(3, dtype=int),
                is_large=np.zeros(2, dtype=bool),
                has_deps=np.zeros(3, dtype=bool),
                code_size_mb=np.ones(3),
                dep_size_mb=np.ones(3),
                congestion=np.zeros(3),
            )

    def test_runtime_codes_cover_all_runtimes(self):
        assert set(RUNTIME_CODES) == set(Runtime)


class TestRegionRegimes:
    def test_all_profiles_have_valid_regimes(self):
        for name in ("R1", "R2", "R3", "R4", "R5"):
            regime = region_profile(name).latency
            assert regime.alloc_median_s > 0
            assert regime.deep_search_p2 + regime.deep_search_p3 <= 1
