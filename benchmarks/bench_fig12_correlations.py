"""Figure 12 — Spearman correlations of per-minute mean cold-start
components and the number of cold starts, per region.

Shape targets: total cold-start time correlates strongly with each
region's dominant component (dep-deploy in R1, allocation in R2/R4);
the cold-start count correlates positively with the total in R1.
"""

from repro.analysis.report import format_table


def test_fig12_correlations(benchmark, study, uncached, emit):
    fig12 = uncached("fig12_correlations")

    def matrices():
        return {name: fig12(name) for name in study.regions}

    result = benchmark(matrices)

    for name, matrix in result.items():
        emit(f"fig12_correlations_{name}", format_table(matrix.rows()))

    r1, r2 = result["R1"], result["R2"]
    r4 = result["R4"]

    # R1: dependency deployment drives the total (paper: 0.8*).
    assert r1.get("cold_start_time", "deploy_dep_time") > 0.4
    # R2/R4: pod allocation drives the total (paper: 0.9 / 0.8).
    assert r2.get("cold_start_time", "pod_alloc_time") > 0.5
    assert r4.get("cold_start_time", "pod_alloc_time") > 0.5
    # Cold-start duration tends to rise with the number of cold starts.
    assert r1.get("cold_start_time", "num_cold_starts") > 0.0
    # Diagonals are exactly 1 with significance everywhere.
    for matrix in result.values():
        assert matrix.get("cold_start_time", "cold_start_time") == 1.0
