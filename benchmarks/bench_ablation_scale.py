"""Ablation — shape invariance under fleet scaling.

The central substitution argument of :mod:`repro.workload.regions`:
shrinking the *number of functions* while keeping per-function rates
production-real preserves every distributional shape the paper reports,
because keep-alive
interactions depend on inter-arrival times, not fleet size. This bench
generates the same region at two scales and asserts the shape-level
quantities agree while the extensive quantities scale with the fleet.
"""

import numpy as np

from repro.analysis.report import format_table
from repro.core.study import TraceStudy

_SMALL, _LARGE = 0.15, 0.45  # 3x fleet-size difference


def _r2_study(scale: float) -> TraceStudy:
    return TraceStudy.generate(regions=("R2",), seed=77, days=7, scale=scale)


def test_ablation_scale_invariance(benchmark, emit):
    small = _r2_study(_SMALL)

    def build_large():
        return _r2_study(_LARGE)

    large = benchmark(build_large)

    rows = []
    shape_small: dict[str, float] = {}
    shape_large: dict[str, float] = {}
    for label, study, out in (
        ("small", small, shape_small),
        ("large", large, shape_large),
    ):
        bundle = study.region("R2")
        cdf = study.fig10_cold_start_cdfs()["R2"]
        fit = study.fig10_lognormal_fit()
        timer = study.fig08_proportions(by="trigger", region="R2").get("TIMER-A", {})
        out.update(
            {
                "cold_p50_s": cdf.median,
                "lognormal_sigma": fit.sigma,
                "timer_fn_share": timer.get("functions", 0.0),
                "timer_cold_share": timer.get("cold_starts", 0.0),
            }
        )
        rows.append(
            {
                "scale": label,
                "functions": len(bundle.functions),
                "cold_starts": len(bundle.pods),
                **{k: round(v, 4) for k, v in out.items()},
            }
        )
    emit("ablation_scale_invariance", format_table(rows))

    functions_ratio = rows[1]["functions"] / rows[0]["functions"]
    colds_ratio = rows[1]["cold_starts"] / rows[0]["cold_starts"]

    # Extensive quantities scale with the fleet (within generator noise) ...
    assert 2.0 <= functions_ratio <= 4.0
    assert 1.5 <= colds_ratio <= 6.0
    # ... while shapes are scale-free: medians, fitted log-space spread,
    # and composition shares agree across a 3x fleet difference.
    np.testing.assert_allclose(
        shape_large["cold_p50_s"], shape_small["cold_p50_s"], rtol=0.5
    )
    np.testing.assert_allclose(
        shape_large["lognormal_sigma"], shape_small["lognormal_sigma"], rtol=0.25
    )
    np.testing.assert_allclose(
        shape_large["timer_fn_share"], shape_small["timer_fn_share"], atol=0.08
    )
    np.testing.assert_allclose(
        shape_large["timer_cold_share"], shape_small["timer_cold_share"], atol=0.15
    )
