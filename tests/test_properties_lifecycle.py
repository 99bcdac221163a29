"""Differential property tests: one-pass vs per-segment pod lifecycles.

The autoscaled regime window-bins all of a function's overflowing keep-alive
segments in one labelled pass over a shared window axis. The frozen
per-segment reconstruction in :mod:`lifecycle_oracle` walks them one at a
time, one Python iteration per pod slot. Both must agree byte for byte, in
dtype and value, on all five :class:`PodLifecycle` arrays. Streams are built
segment by segment to hit what the shared axis has to get exactly right:

* gaps just above the keep-alive, so adjacent segments land in adjacent
  windows (only the separator window keeps their slot runs apart);
* overflowing segments mixed with segments one pod absorbs;
* one-window runs, and windows where every request takes its own slot;
* ties, on and off window edges, and integer timestamps;
* concurrency 1, 2 and 8, keep-alive 60 s and 10 s;
* demand above ``MAX_PODS_PER_FUNCTION`` pods in one window.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from lifecycle_oracle import _autoscaled_lifecycle as oracle_autoscaled
from lifecycle_oracle import reconstruct_oracle
from repro.cluster.lifecycle import (
    MAX_PODS_PER_FUNCTION,
    PodLifecycle,
    _autoscaled_lifecycle,
    reconstruct_function_pods,
)

_SETTINGS = settings(
    max_examples=250, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_FIELDS = (
    "pod_start_ts", "pod_last_end_ts", "pod_n_requests", "pod_useful_s",
    "request_pod",
)


def _assert_identical(got: PodLifecycle, want: PodLifecycle) -> None:
    for name in _FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


@st.composite
def _streams(draw):
    """``(arrivals, exec_s, keepalive_s, concurrency)``, built segment by
    segment: each segment is a run of small gaps (ties, window edges) with
    its own execution scale, so some overflow one pod and some do not."""
    keepalive = draw(st.sampled_from((60.0, 10.0)))
    concurrency = draw(st.sampled_from((1, 2, 8)))
    t = draw(st.sampled_from((0.0, keepalive * 3, keepalive * 5 - 0.25)))
    arrivals: list[float] = []
    execs: list[float] = []
    for k in range(draw(st.integers(1, 5))):
        if k:
            t += draw(st.sampled_from((
                keepalive + 0.125, keepalive + 1.0, 1.5 * keepalive,
                20.0 * keepalive,
            )))
        exec_scale = draw(st.sampled_from((
            0.01, 1.0, 0.5 * keepalive, 2.0 * keepalive, 10.0 * keepalive,
        )))
        for _ in range(draw(st.integers(1, 30))):
            step = draw(st.sampled_from((
                "tie", "tie", "small", "half", "edge", "keepalive",
            )))
            if step == "small":
                t += 0.25
            elif step == "half":
                t += 0.5 * keepalive
            elif step == "edge":
                t = (t // keepalive + 1.0) * keepalive
            elif step == "keepalive":
                t += keepalive
            arrivals.append(t)
            execs.append(exec_scale * draw(st.sampled_from((0.5, 1.0, 2.0))))
    arrivals_arr = np.array(arrivals)
    if draw(st.booleans()):
        arrivals_arr = np.floor(arrivals_arr)
    return arrivals_arr, np.array(execs), keepalive, concurrency


def _adjacent_overflowing_segments():
    """Two overflowing segments 60.125 s apart, in windows 0 and 1."""
    arrivals = np.array([0.0, 0.25, 0.5, 60.625, 60.75, 60.875])
    return arrivals, np.full(6, 120.0), 60.0, 1


def _edge_ties():
    """Ties exactly on window edges, with one pod per request."""
    arrivals = np.array([60.0, 60.0, 60.0, 120.0, 120.0, 150.0, 180.0, 180.0])
    return arrivals, np.full(8, 100.0), 60.0, 2


def _mixed_segments():
    """Overflowing, sequential, overflowing: pods of later segments must
    index past the sequential segment's pods."""
    arrivals = np.concatenate([
        np.linspace(0.0, 30.0, 12), [200.0, 230.0], np.linspace(400.0, 500.0, 20),
    ])
    execs = np.concatenate([np.full(12, 90.0), [0.5, 0.5], np.full(20, 45.0)])
    return arrivals, execs, 60.0, 2


def _clipped_window():
    """More requests in one window than the pod bound, each filling it."""
    arrivals = np.linspace(0.0, 59.0, MAX_PODS_PER_FUNCTION + 90)
    return arrivals, np.full(arrivals.size, 60.0), 60.0, 1


@_SETTINGS
@given(_streams())
@example(_adjacent_overflowing_segments())
@example(_edge_ties())
@example(_mixed_segments())
@example(_clipped_window())
def test_public_entry_matches_oracle(stream):
    arrivals, exec_s, keepalive, concurrency = stream
    _assert_identical(
        reconstruct_function_pods(arrivals, exec_s, keepalive, concurrency),
        reconstruct_oracle(arrivals, exec_s, keepalive, concurrency),
    )


@_SETTINGS
@given(_streams())
@example(_adjacent_overflowing_segments())
@example(_mixed_segments())
def test_autoscaled_matches_oracle(stream):
    """The autoscaled path on its own, also where every segment fits one
    pod and the public entry would take the sequential rule."""
    arrivals, exec_s, keepalive, concurrency = stream
    _assert_identical(
        _autoscaled_lifecycle(arrivals, exec_s, keepalive, concurrency),
        oracle_autoscaled(arrivals, exec_s, keepalive, concurrency),
    )


def test_adjacent_segments_keep_their_pods_apart():
    """The 60.125 s gap kills every pod: no pod serves both segments."""
    arrivals, exec_s, keepalive, concurrency = _adjacent_overflowing_segments()
    life = reconstruct_function_pods(arrivals, exec_s, keepalive, concurrency)
    first, second = life.request_pod[:3], life.request_pod[3:]
    assert not set(first.tolist()) & set(second.tolist())
    assert life.n_pods == 6
