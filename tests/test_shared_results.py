"""The shared-figure-results contract of the study, over both adapters.

A figure method with a second reader is memoized per study
(:func:`repro.core.study._shared`). Over all 16 renders plus
:func:`~repro.core.findings.extract_findings`:

* no figure builder runs twice for the same bound arguments;
* each per-region statistic several figures read (median-day requests
  per function, Figs. 3b/3c's binning, functions per user, and the bundle
  adapter's pod intervals) is computed once per region;
* the text does not depend on the order the consumers run in;
* no consumer mutates a shared result;
* the cache dies with the study.
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import pickle
import weakref

import pytest

from repro.analysis.accumulators import RegionAccumulator
from repro.core import bundle_data
from repro.core import study as study_module
from repro.core.findings import extract_findings
from repro.core.study import StreamingTraceStudy, TraceStudy
from repro.viz.figures import FIGURES, render
from repro.workload.calibration import check_calibration

_ARGS = dict(regions=("R2", "R3"), seed=11, days=2, scale=0.05)
_CLASSES = (TraceStudy, StreamingTraceStudy)
_SHARED_FIGURES = {
    "fig03_requests_per_day", "fig03_exec_time", "fig03_cpu_usage",
    "fig04_functions_per_user", "fig05_request_series", "fig06_peak_trough",
    "fig12_correlations", "fig13_pool_split", "fig14_requests_vs_cold_starts",
    "fig15_by_runtime", "fig17_utility",
}
#: Shared per-region statistics that are not figures themselves.
_SHARED_STATISTICS = {"_day_counts", "_minute_usage"}


def _fresh(cls):
    return cls.generate(**_ARGS)


def _consume(study, reverse=False) -> list[str]:
    """Every render plus the findings, as text in one fixed order; when
    ``reverse``, the findings run first and the renders in reverse."""
    fig_ids = sorted(FIGURES)
    if reverse:
        findings = _findings_text(study)
        renders = [render(f, study) for f in reversed(fig_ids)][::-1]
    else:
        renders = [render(f, study) for f in fig_ids]
        findings = _findings_text(study)
    return renders + [findings]


def _findings_text(study) -> str:
    return json.dumps([f.summary_row() for f in extract_findings(study)])


def _counting(builder, calls: collections.Counter):
    signature = inspect.signature(builder)

    @functools.wraps(builder)
    def counted(self, *args, **kwargs):
        bound = signature.bind(self, *args, **kwargs)
        bound.apply_defaults()
        calls[(builder.__name__, *list(bound.arguments.values())[1:])] += 1
        return builder(self, *args, **kwargs)

    return counted


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_no_builder_runs_twice(cls, monkeypatch):
    study = _fresh(cls)
    calls: collections.Counter = collections.Counter()
    memoized = set()
    for name, attr in list(vars(study_module.Study).items()):
        if not inspect.isfunction(attr):
            continue
        builder = getattr(attr, "__wrapped__", None)
        if not name.startswith("fig") and builder is None:
            continue
        if builder is None:
            monkeypatch.setattr(study_module.Study, name, _counting(attr, calls))
        else:
            memoized.add(name)
            monkeypatch.setattr(
                study_module.Study, name, study_module._shared(_counting(builder, calls))
            )
    _consume(study)
    repeated = {key: n for key, n in calls.items() if n > 1}
    assert not repeated, f"builders ran more than once: {repeated}"
    assert memoized == _SHARED_FIGURES | _SHARED_STATISTICS
    for name in _SHARED_STATISTICS:
        assert sorted(key[1] for key in calls if key[0] == name) == sorted(study.regions)
    # ``fig17_utility()`` and ``fig17_utility(by="runtime")`` are one entry.
    assert study.fig17_utility() is study.fig17_utility(by="runtime", region=None)


#: The helper behind each shared per-region statistic, per adapter.
_STATISTIC_HELPERS = {
    TraceStudy: [
        (bundle_data, "median_day_requests"),
        (bundle_data, "per_minute_usage_cdfs"),
        (bundle_data, "functions_per_user_cdf"),
        (bundle_data, "pod_intervals"),
    ],
    StreamingTraceStudy: [
        (RegionAccumulator, "day_counts"),
        (RegionAccumulator, "minute_usage"),
        (RegionAccumulator, "functions_per_user"),
    ],
}


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_shared_statistics_run_once_per_region(cls, monkeypatch):
    """Renders, findings and the calibration checks together compute each
    shared per-region statistic once per region."""
    study = _fresh(cls)
    calls: collections.Counter = collections.Counter()

    def counting(owner, name):
        helper = getattr(owner, name)

        @functools.wraps(helper)
        def counted(*args, **kwargs):
            calls[name] += 1
            return helper(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in _STATISTIC_HELPERS[cls]:
        counting(owner, name)
    _consume(study)
    check_calibration(study)
    assert calls == {name: len(study.regions) for _, name in _STATISTIC_HELPERS[cls]}


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_consumer_order_does_not_change_text(cls):
    assert _consume(_fresh(cls), reverse=True) == _consume(_fresh(cls))


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_consumers_do_not_mutate_shared_results(cls):
    study = _fresh(cls)
    shared = [
        study.fig03_requests_per_day(), study.fig03_exec_time(),
        study.fig03_cpu_usage(), study.fig04_functions_per_user(),
        study.fig05_request_series(),
        study.fig06_peak_trough(), study.fig13_pool_split(),
        study.fig14_requests_vs_cold_starts(), study.fig15_by_runtime(),
        study.fig17_utility(by="runtime"), study.fig17_utility(by="trigger"),
        *(study.fig12_correlations(name) for name in study.regions),
    ]
    snapshot = [pickle.dumps(result) for result in shared]
    cached = dict(vars(study)["_figure_results"])
    _consume(study)
    after = vars(study)["_figure_results"]
    assert after.keys() == cached.keys(), "a consumer added an argument set"
    assert all(after[key] is result for key, result in cached.items())
    for result, before in zip(shared, snapshot):
        assert pickle.dumps(result) == before


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_cache_dies_with_the_study(cls):
    study = _fresh(cls)
    _consume(study)
    assert vars(study)["_figure_results"]
    ref = weakref.ref(study)
    del study
    assert ref() is None
