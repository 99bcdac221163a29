"""Differential property tests: streaming accumulators vs the frozen oracle.

The region accumulator now labels each function once and gathers category
codes, bins every pod metric once per chunk and fills each category sketch
from a contiguous slice of one stable sort, keeps binned series
window-relative (an ``origin`` bin), and merges the sorted Fig. 17 pod join
run by run. :mod:`accumulator_oracle` keeps the previous row-string,
mask-per-sketch, from-zero code. Both must agree byte for byte — dict key
order, array dtype and ``tobytes()``, float bit patterns — under:

* any chunking, empty chunks included, and merges at any grouping;
* NaN metrics, all-zero dependency deployment, unknown function ids;
* values that widen a sketch past ``hi`` or below ``lo``, zeros, negatives
  and infinities;
* categories missing from some chunks;
* finalizers at horizons below the last event (a tail fold over real
  events) on series built in three or more chunks;
* duplicate pod ids within and across runs of the pod join.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from accumulator_oracle import (
    OracleBinnedSeries,
    OracleKeyedBinnedCounts,
    OracleLogHistogram,
    OracleRegionAccumulator,
    assert_identical,
    function_metadata as oracle_function_metadata,
    hist_view,
    keyed_view,
    region_view,
    series_view,
)
from repro.analysis.accumulators import (
    POD_METRICS,
    BinnedSeries,
    KeyedBinnedCounts,
    LogHistogram,
    RegionAccumulator,
)
from repro.analysis.composition import function_metadata
from repro.runtime.stream import iter_bundle_chunks
from repro.trace.tables import FunctionTable, PodTable
from repro.workload.generator import generate_multi_region

_SETTINGS = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_RUNTIMES = ("Python3", "Java", "Node.js", "Custom", "http", "Go")
_TRIGGERS = ("APIG-S", "TIMER-A", "OBS-A", "workflow-S", "CTS-A", "DIS-S",
             "APIG-S+TIMER-A", "OBS-A+CTS-A", "unknown", "odd")
_CONFIGS = ("300-128", "400-256", "600-512", "1000-1024", "2000-2048", "unknown")


def _fold(parts, build):
    """Left-fold ``merge`` over ``build(part)`` in the given grouping: a list
    of index groups, each merged left to right, then the groups in order."""
    groups = []
    for group in parts:
        acc = build(group[0])
        for part in group[1:]:
            acc.merge(build(part))
        groups.append(acc)
    for acc in groups[1:]:
        groups[0].merge(acc)
    return groups[0]


def _groupings(n: int):
    """Split ``range(n)`` into contiguous groups (plan order kept)."""
    return st.lists(st.booleans(), min_size=max(n - 1, 0), max_size=max(n - 1, 0)).map(
        lambda cuts: _split(n, cuts)
    )


def _split(n: int, cuts: list[bool]) -> list[list[int]]:
    groups, current = [], [0]
    for i, cut in enumerate(cuts, start=1):
        if cut:
            groups.append(current)
            current = []
        current.append(i)
    groups.append(current)
    return groups


@st.composite
def _function_tables(draw):
    n = draw(st.integers(0, 8))
    ids = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    table = FunctionTable.from_columns(
        function=np.asarray(ids, dtype=np.int64),
        runtime=np.asarray(draw(st.lists(st.sampled_from(_RUNTIMES), min_size=n, max_size=n)), dtype="U16"),
        trigger=np.asarray(draw(st.lists(st.sampled_from(_TRIGGERS), min_size=n, max_size=n)), dtype="U24"),
        cpu_mem=np.asarray(draw(st.lists(st.sampled_from(_CONFIGS), min_size=n, max_size=n)), dtype="U16"),
    )
    return table


def _lookup_ids(draw, table: FunctionTable, size: int) -> np.ndarray:
    pool = sorted(set(table["function"].tolist())) + [41, 99, -3]
    return np.asarray(draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size)),
                      dtype=np.int64)


_VALUES = st.one_of(
    st.floats(1e-3, 1e3),
    st.sampled_from((0.0, -1.5, np.nan, np.inf, 1e-20, 3e-9, 2e6, 5e12, 1e17, 1e-4, 1e4)),
)


def _arrays(draw, size: int) -> np.ndarray:
    return np.asarray(draw(st.lists(_VALUES, min_size=size, max_size=size)), dtype=np.float64)


# --- function labels -------------------------------------------------------------


@_SETTINGS
@given(data=st.data())
def test_function_metadata_matches_oracle(data):
    table = data.draw(_function_tables())
    ids = _lookup_ids(data.draw, table, data.draw(st.integers(0, 30)))
    got, want = function_metadata(table, ids), oracle_function_metadata(table, ids)
    assert_identical(vars(got), vars(want))


def test_unreferenced_malformed_config_is_never_parsed():
    table = FunctionTable.from_columns(
        function=np.array([1, 2], dtype=np.int64),
        runtime=np.array(["Python3", "Java"]), trigger=np.array(["APIG-S", "OBS-A"]),
        cpu_mem=np.array(["300-128", "no-such-config"]),
    )
    ids = np.array([1, 1, 7])
    assert_identical(vars(function_metadata(table, ids)), vars(oracle_function_metadata(table, ids)))
    with pytest.raises(ValueError, match="malformed"):
        function_metadata(table, np.array([2]))


def test_unknown_slot_keeps_a_short_column_dtype():
    # a table whose string columns are narrower than "unknown": the join
    # cuts it to the column's dtype, as assigning into the column would
    table = FunctionTable.__new__(FunctionTable)
    table._data = {
        "function": np.array([5], dtype=np.int64), "runtime": np.array(["Go"], dtype="U2"),
        "trigger": np.array(["DIS-S"], dtype="U5"), "cpu_mem": np.array(["1-1"], dtype="U9"),
    }
    table._length = 1
    ids = np.array([5, 6])
    assert_identical(vars(function_metadata(table, ids)), vars(oracle_function_metadata(table, ids)))
    empty = FunctionTable.empty()
    assert_identical(vars(function_metadata(empty, ids)), vars(oracle_function_metadata(empty, ids)))


# --- one binning path --------------------------------------------------------------


@_SETTINGS
@given(data=st.data(), grid=st.sampled_from(((), (0.5, 7.3, 10), (1e-2, 1e2, 96))))
def test_log_histogram_add_matches_oracle(data, grid):
    chunks = [_arrays(data.draw, data.draw(st.integers(0, 25))) for _ in range(data.draw(st.integers(1, 5)))]
    got, want = LogHistogram(*grid), OracleLogHistogram(*grid)
    for chunk in chunks:
        got.add(chunk)
        want.add(chunk)
        assert_identical(hist_view(got), hist_view(want))
    grouping = data.draw(_groupings(len(chunks)))
    merged = _fold(grouping, lambda i: LogHistogram(*grid).add(chunks[i]))
    oracle = _fold(grouping, lambda i: OracleLogHistogram(*grid).add(chunks[i]))
    assert_identical(hist_view(merged), hist_view(oracle))


def test_default_histograms_share_read_only_edges():
    a, b = LogHistogram(), LogHistogram()
    assert a.edges is b.edges and not a.edges.flags.writeable
    assert_identical(a.edges, OracleLogHistogram().edges)


# --- category sketches -------------------------------------------------------------


@_SETTINGS
@given(data=st.data())
def test_category_sketches_match_oracle(data):
    table = data.draw(_function_tables())
    chunks = []
    for _ in range(data.draw(st.integers(1, 4))):
        size = data.draw(st.integers(0, 20))
        # each chunk sees its own subset of functions: categories come and go
        ids = _lookup_ids(data.draw, table, size)
        metrics = {name: _arrays(data.draw, size) for name in POD_METRICS}
        if data.draw(st.booleans()):
            metrics["deploy_dep_us"] = np.zeros(size)
        chunks.append((ids, metrics))

    def build(cls, parts):
        acc = cls("R1", functions=table)
        for ids, metrics in parts:
            acc._sketch_categories(ids, metrics)
        return acc

    got, want = build(RegionAccumulator, chunks), build(OracleRegionAccumulator, chunks)
    views = {k: hist_view(h) for k, h in got.category_hists.items()}
    assert_identical(views, {k: hist_view(h) for k, h in want.category_hists.items()})
    grouping = data.draw(_groupings(len(chunks)))
    merged = _fold(grouping, lambda i: build(RegionAccumulator, chunks[i:i + 1]))
    oracle = _fold(grouping, lambda i: build(OracleRegionAccumulator, chunks[i:i + 1]))
    assert_identical(
        {k: hist_view(h) for k, h in merged.category_hists.items()},
        {k: hist_view(h) for k, h in oracle.category_hists.items()},
    )


# --- window-relative binned state ------------------------------------------------


_TIMES = st.floats(-30.0, 4000.0)


@_SETTINGS
@given(data=st.data(), bin_s=st.sampled_from((60.0, 7.0, 1000.0)),
       track_sums=st.booleans())
def test_binned_series_matches_oracle(data, bin_s, track_sums):
    chunks = []
    for _ in range(data.draw(st.integers(3, 6))):
        size = data.draw(st.integers(0, 30))
        times = np.asarray(data.draw(st.lists(_TIMES, min_size=size, max_size=size)))
        values = np.asarray(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=size, max_size=size)))
        one = size == 1 and data.draw(st.booleans())
        chunks.append((times, values if track_sums else None, one))

    def build(cls, parts):
        series = cls(bin_s, track_sums=track_sums)
        for times, values, one in parts:
            if one:
                series.add_one(float(times[0]), None if values is None else float(values[0]))
            else:
                series.add(times, values)
        return series

    got, want = build(BinnedSeries, chunks), build(OracleBinnedSeries, chunks)
    assert got.frame == want.counts.size
    assert_identical(series_view(got), series_view(want))
    assert got == build(BinnedSeries, chunks)
    grouping = data.draw(_groupings(len(chunks)))
    merged = _fold(grouping, lambda i: build(BinnedSeries, chunks[i:i + 1]))
    oracle = _fold(grouping, lambda i: build(OracleBinnedSeries, chunks[i:i + 1]))
    assert merged.frame == oracle.counts.size
    assert_identical(series_view(merged), series_view(oracle))


def test_forced_fold_sums_the_same_frame():
    # three chunks, the last well past the horizon: the tail fold is a
    # pairwise sum over real events and the doubling frame's zeros
    rng = np.random.default_rng(3)
    chunks = [(np.sort(rng.uniform(lo, lo + 600.0, 40)), rng.normal(size=40) * 1e3)
              for lo in (0.0, 700.0, 2500.0)]
    got, want = BinnedSeries(60.0), OracleBinnedSeries(60.0)
    for times, values in chunks:
        got.add(times, values)
        want.add(times, values)
    for horizon in (100.0, 900.0, 1500.0, 2600.0):
        assert_identical(got.sums_until(horizon), want.sums_until(horizon))
        assert_identical(got.means_until(horizon), want.means_until(horizon))


@_SETTINGS
@given(data=st.data(), bin_s=st.sampled_from((60.0, 86_400.0, 5.0)))
def test_keyed_binned_counts_match_oracle(data, bin_s):
    chunks = []
    for day in range(data.draw(st.integers(1, 5))):
        size = data.draw(st.integers(0, 30))
        keys = np.asarray(data.draw(st.lists(st.integers(0, 12), min_size=size, max_size=size)),
                          dtype=np.int64)
        times = np.asarray(data.draw(st.lists(_TIMES, min_size=size, max_size=size)))
        chunks.append((keys, times))
    last_s = max((float(t.max()) for _, t in chunks if t.size), default=0.0)

    def build(cls, parts):
        keyed = cls(bin_s)
        for keys, times in parts:
            keyed.add(keys, times)
        return keyed

    got, want = build(KeyedBinnedCounts, chunks), build(OracleKeyedBinnedCounts, chunks)
    assert_identical(keyed_view(got, last_s), keyed_view(want, last_s))
    grouping = data.draw(_groupings(len(chunks)))
    merged = _fold(grouping, lambda i: build(KeyedBinnedCounts, chunks[i:i + 1]))
    oracle = _fold(grouping, lambda i: build(OracleKeyedBinnedCounts, chunks[i:i + 1]))
    assert_identical(keyed_view(merged, last_s), keyed_view(oracle, last_s))


# --- the Fig. 17 pod join ------------------------------------------------------------


def _pod_table(pod_ids: list[int], rng: np.random.Generator, day: int) -> PodTable:
    """Pods on ``day``: a region's updates and merges follow time order."""
    n = len(pod_ids)
    columns = {spec.name: rng.integers(0, 30_000, n) for spec in PodTable.schema.columns}
    columns["pod_id"] = np.asarray(pod_ids, dtype=np.int64)
    columns["timestamp_ms"] = day * 86_400_000 + np.sort(rng.integers(0, 86_400_000, n))
    columns["function"] = rng.integers(0, 4, n)
    return PodTable.from_columns(**columns)


@_SETTINGS
@given(data=st.data())
def test_pod_join_matches_oracle(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    table = FunctionTable.from_columns(
        function=np.arange(3, dtype=np.int64), runtime=np.array(_RUNTIMES[:3]),
        trigger=np.array(_TRIGGERS[:3]), cpu_mem=np.array(_CONFIGS[:3]),
    )
    runs = []
    for day in range(data.draw(st.integers(1, 5))):
        # ids from a small range: runs overlap, tie at their edges, start
        # past the held ids, and repeat ids within a run
        lo = data.draw(st.integers(0, 30))
        ids = data.draw(st.lists(st.integers(lo, lo + 12), min_size=1, max_size=12))
        runs.append(_pod_table(ids, rng, day))

    def build(cls, parts):
        acc = cls("R2", functions=table)
        for pods in parts:
            acc.update(pods=pods)
        return acc

    got, want = build(RegionAccumulator, runs), build(OracleRegionAccumulator, runs)
    assert_identical(region_view(got)["pod_join"], region_view(want)["pod_join"])
    grouping = data.draw(_groupings(len(runs)))
    merged = _fold(grouping, lambda i: build(RegionAccumulator, runs[i:i + 1]))
    oracle = _fold(grouping, lambda i: build(OracleRegionAccumulator, runs[i:i + 1]))
    assert_identical(region_view(merged)["pod_join"], region_view(oracle)["pod_join"])


# --- whole accumulators ----------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _bundle():
    return generate_multi_region(("R3",), seed=11, days=3, scale=0.1)["R3"]


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), chunk_h=st.sampled_from((5.0, 11.0, 24.0, 30.0)))
def test_region_accumulator_matches_oracle(data, chunk_h):
    bundle = _bundle()
    chunks = list(iter_bundle_chunks(bundle, chunk_s=chunk_h * 3600.0))

    def build(cls, parts):
        acc = cls(bundle.region, functions=bundle.functions, meta=dict(bundle.meta))
        for chunk in parts:
            acc.update(chunk)
        return acc

    assert_identical(region_view(build(RegionAccumulator, chunks)),
                     region_view(build(OracleRegionAccumulator, chunks)))
    grouping = data.draw(_groupings(len(chunks)))
    merged = _fold(grouping, lambda i: build(RegionAccumulator, chunks[i:i + 1]))
    oracle = _fold(grouping, lambda i: build(OracleRegionAccumulator, chunks[i:i + 1]))
    assert_identical(region_view(merged), region_view(oracle))
