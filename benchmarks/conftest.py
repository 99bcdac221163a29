"""Benchmark fixtures: one paper-scale synthetic dataset per session.

Every figure bench consumes the same 31-day five-region trace (seed 42),
matching the paper's horizon. ``emit`` prints a figure's reproduced series
and archives it under ``benchmarks/results/`` so the regenerated
rows/series survive the pytest capture.
"""

from __future__ import annotations

import functools
from pathlib import Path

import pytest

from repro.core.study import TraceStudy
from repro.mitigation.evaluator import build_workload

#: Scale of the benchmark dataset. Function *rates* are production-real;
#: only the fleet size shrinks (see the substitution argument in
#: :mod:`repro.workload.regions`; ``bench_ablation_scale.py`` checks it).
BENCH_SCALE = 0.35
BENCH_DAYS = 31
BENCH_SEED = 42

_RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def study() -> TraceStudy:
    """The 31-day five-region study used by all figure benches."""
    return TraceStudy.generate(
        regions=("R1", "R2", "R3", "R4", "R5"),
        seed=BENCH_SEED,
        days=BENCH_DAYS,
        scale=BENCH_SCALE,
    )


@pytest.fixture()
def uncached(study):
    """``uncached("figNN_...")``: a shared figure method without the
    study's per-instance memo, so every benchmark round recomputes it."""

    def _builder(name: str):
        return functools.partial(getattr(TraceStudy, name).__wrapped__, study)

    return _builder


@pytest.fixture(scope="session")
def r2_workload():
    """Policy-replay workload (Region 2, one week)."""
    return build_workload("R2", seed=BENCH_SEED, days=7, scale=0.2)


@pytest.fixture(scope="session")
def r1_workload():
    """Policy-replay workload for cross-region experiments (Region 1)."""
    return build_workload("R1", seed=BENCH_SEED, days=3, scale=0.2)


@pytest.fixture()
def emit(request):
    """Print a reproduced series and archive it under benchmarks/results/."""

    def _emit(name: str, text: str) -> None:
        _RESULTS_DIR.mkdir(exist_ok=True)
        (_RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n=== {name} ===\n{text}")

    return _emit
