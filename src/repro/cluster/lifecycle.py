"""Vectorised pod-lifecycle reconstruction under keep-alive semantics.

Given one function's sorted arrival times, this module determines — without
a per-event simulation loop — which arrivals triggered cold starts, how many
pods existed when, which pod served each request, and each pod's *useful
lifetime* (the paper's §4.5: total lifetime minus the keep-alive tail).

Two regimes:

* **Sequential regime** (peak in-flight concurrency fits one pod): the exact
  keep-alive rule applies — a cold start happens iff the gap since the
  previous request exceeds the keep-alive window. This covers the "large
  majority of functions [that] have very few requests per day" and the
  timer functions whose period falls just outside the keep-alive.
* **Autoscaled regime** (overlapping requests need multiple pods): demand is
  binned per keep-alive window (one minute by default, matching the
  platform's 60 s keep-alive); the pod count tracks the per-window demand
  and every *increase* triggers cold starts — the paper's "large
  fluctuations in invocation patterns leading to frequent autoscaling
  decisions". Keep-alive gaps still split the stream; segments that fit
  one pod take the exact rule, and all the others are binned together in
  one labelled pass over a shared window axis.

Both regimes produce identical output structure, so downstream trace
assembly does not care which path ran.

The keep-alive window itself is pluggable for policy replays
(:class:`KeepAlivePolicy`): the production default is one fixed minute
(:class:`FixedKeepAlive`), and the paper (§5) proposes *dynamic*
keep-alives for timer functions whose period exceeds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.workload.function import FunctionSpec

#: Platform default keep-alive (paper §2.2: one minute, reset per request).
DEFAULT_KEEPALIVE_S = 60.0

#: Safety bound on concurrently live pods per function in the autoscaled
#: regime. Production concurrency per function is far below this.
MAX_PODS_PER_FUNCTION = 512


class KeepAlivePolicy:
    """Decides how long an idle pod of a function stays warm."""

    def keepalive_for(self, spec: FunctionSpec, now: float) -> float:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class FixedKeepAlive(KeepAlivePolicy):
    """Production default: the same keep-alive for every function."""

    keepalive_s: float = DEFAULT_KEEPALIVE_S

    def __post_init__(self) -> None:
        if self.keepalive_s <= 0:
            raise ValueError("keepalive_s must be positive")

    def keepalive_for(self, spec: FunctionSpec, now: float) -> float:
        return self.keepalive_s

    def describe(self) -> str:
        return f"fixed({self.keepalive_s:g}s)"


@dataclass
class PodLifecycle:
    """Reconstruction result for one function.

    Attributes:
        pod_start_ts: cold-start trigger time of each pod (seconds), sorted.
        pod_last_end_ts: end of the last request each pod served.
        pod_n_requests: number of requests served by each pod.
        pod_useful_s: useful lifetime (last request end minus start trigger;
            excludes the keep-alive tail by construction).
        request_pod: index into the pod arrays for every request.
    """

    pod_start_ts: np.ndarray
    pod_last_end_ts: np.ndarray
    pod_n_requests: np.ndarray
    pod_useful_s: np.ndarray
    request_pod: np.ndarray

    @property
    def n_pods(self) -> int:
        return int(self.pod_start_ts.size)

    @property
    def n_requests(self) -> int:
        return int(self.request_pod.size)

    def total_lifetime_s(self, keepalive_s: float = DEFAULT_KEEPALIVE_S) -> np.ndarray:
        """Total pod lifetimes including the terminal keep-alive wait."""
        return self.pod_useful_s + keepalive_s

    @staticmethod
    def empty() -> "PodLifecycle":
        return PodLifecycle(
            pod_start_ts=np.zeros(0),
            pod_last_end_ts=np.zeros(0),
            pod_n_requests=np.zeros(0, dtype=np.int64),
            pod_useful_s=np.zeros(0),
            request_pod=np.zeros(0, dtype=np.int64),
        )


def peak_inflight(arrivals: np.ndarray, exec_s: np.ndarray) -> int:
    """Maximum number of simultaneously in-flight requests."""
    if arrivals.size == 0:
        return 0
    times = np.concatenate((arrivals, arrivals + exec_s))
    deltas = np.concatenate((np.ones_like(arrivals), -np.ones_like(arrivals)))
    # Ends sort before starts at equal timestamps (a request finishing the
    # instant another arrives frees its slot first): ascending delta puts
    # the -1 (end) events ahead of the +1 (start) events.
    order = np.lexsort((deltas, times))
    return int(np.cumsum(deltas[order]).max())


def _sequential_lifecycle(
    arrivals: np.ndarray, exec_s: np.ndarray, keepalive_s: float
) -> PodLifecycle:
    """Exact gap-rule reconstruction when one pod at a time suffices."""
    n = arrivals.size
    gaps = np.diff(arrivals)
    is_cold = np.concatenate(([True], gaps > keepalive_s))
    pod_idx = np.cumsum(is_cold) - 1
    n_pods = int(pod_idx[-1]) + 1

    pod_start = arrivals[is_cold]
    ends = arrivals + exec_s
    pod_last_end = np.full(n_pods, -np.inf)
    np.maximum.at(pod_last_end, pod_idx, ends)
    pod_requests = np.bincount(pod_idx, minlength=n_pods).astype(np.int64)
    useful = pod_last_end - pod_start
    return PodLifecycle(
        pod_start_ts=pod_start,
        pod_last_end_ts=pod_last_end,
        pod_n_requests=pod_requests,
        pod_useful_s=useful,
        request_pod=pod_idx,
    )


def _segment_peaks(
    arrivals: np.ndarray,
    exec_s: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
) -> np.ndarray:
    """Per-segment peak in-flight, in one vectorized sweep.

    Events carry their segment label; sorting by (segment, time, delta)
    reproduces :func:`peak_inflight`'s tie rule inside every segment, and
    because each segment's deltas sum to zero the *global* running sum is
    the per-segment in-flight directly — no per-segment slicing.
    """
    n_seg = starts.size
    seg_of = np.repeat(np.arange(n_seg), ends - starts)
    times = np.concatenate((arrivals, arrivals + exec_s))
    deltas = np.concatenate((np.ones(arrivals.size), -np.ones(arrivals.size)))
    segs = np.concatenate((seg_of, seg_of))
    order = np.lexsort((deltas, times, segs))
    running = np.cumsum(deltas[order])
    seg_first = np.searchsorted(segs[order], np.arange(n_seg))
    return np.maximum.reduceat(running, seg_first)


def _autoscaled_lifecycle(
    arrivals: np.ndarray,
    exec_s: np.ndarray,
    keepalive_s: float,
    concurrency: int,
) -> PodLifecycle:
    """Hybrid reconstruction for functions that need several pods.

    The exact keep-alive rule segments the stream first: a gap larger than
    the keep-alive kills every pod, full stop. Within a segment (where no
    such gap exists), demand is window-binned and the pod count tracks it —
    increases are scale-out cold starts, the paper's "frequent autoscaling
    decisions". Without the outer segmentation, window binning would merge
    pods across 60–120 s gaps that production keep-alive cannot survive.

    Structure-of-arrays execution: per-segment peaks come from one labelled
    sweep (:func:`_segment_peaks`), and every segment whose peak fits the
    per-pod concurrency — for a timer function well past the keep-alive
    that is *every arrival* — is reconstructed by a single
    :func:`_sequential_lifecycle` pass over their union (its gap rule
    re-splits at exactly the segment boundaries). The overflowing segments
    are window-binned together in one labelled pass
    (:func:`_windowed_segments`). Pods are re-sorted by start time, and pod
    start times never tie across segments (they are separated by more than
    the keep-alive), so the stable sort orders ties only within a segment.
    """
    gaps = np.diff(arrivals)
    boundaries = np.flatnonzero(gaps > keepalive_s) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [arrivals.size]))

    peaks = _segment_peaks(arrivals, exec_s, starts, ends)
    easy_req = np.repeat(peaks <= concurrency, ends - starts)
    easy_idx = np.flatnonzero(easy_req)
    hard_idx = np.flatnonzero(~easy_req)

    parts: list[tuple[np.ndarray, PodLifecycle]] = []
    if easy_idx.size:
        parts.append((easy_idx, _sequential_lifecycle(
            arrivals[easy_idx], exec_s[easy_idx], keepalive_s
        )))
    if hard_idx.size:
        parts.append((hard_idx, _windowed_segments(
            arrivals[hard_idx], exec_s[hard_idx], keepalive_s, concurrency
        )))
    request_pod = np.empty(arrivals.size, dtype=np.int64)
    next_pod = 0
    for idx, part in parts:
        request_pod[idx] = part.request_pod + next_pod
        next_pod += part.n_pods

    pod_start_ts = np.concatenate([part.pod_start_ts for _, part in parts])
    pod_last_end = np.concatenate([part.pod_last_end_ts for _, part in parts])
    pod_nreq = np.concatenate([part.pod_n_requests for _, part in parts])
    order = np.argsort(pod_start_ts, kind="stable")
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    return PodLifecycle(
        pod_start_ts=pod_start_ts[order],
        pod_last_end_ts=pod_last_end[order],
        pod_n_requests=pod_nreq[order],
        pod_useful_s=np.maximum(pod_last_end[order] - pod_start_ts[order], 0.0),
        request_pod=inverse[request_pod],
    )


def _windowed_segments(
    arrivals: np.ndarray,
    exec_s: np.ndarray,
    keepalive_s: float,
    concurrency: int,
) -> PodLifecycle:
    """Window-binned reconstruction of gap-free segments, in one pass.

    Demand per keep-alive window is the expected in-flight load (summed
    execution / window, Little's law) divided by the per-pod concurrency,
    at least one pod for any non-empty window. Pod slot ``s`` is occupied
    in every window whose demand exceeds ``s``; each maximal run of
    occupied windows is one pod, and requests take slots round-robin
    within their window.

    ``arrivals`` may hold several segments back to back (consecutive
    arrivals more than ``keepalive_s`` apart start a new one). Every
    window goes on one axis, with one empty window after each segment so
    that no run crosses into the next segment. Demand never exceeds a
    window's request count, so round-robin fills every occupied (slot,
    window) cell: every run is born from a triggering request. Pods come
    out unsorted, in (slot, start window) order.
    """
    window = keepalive_s
    win = (arrivals // window).astype(np.int64)
    # One window axis: within a segment the index advances as the window
    # does, and into the next segment by 2, past one empty separator.
    step = np.diff(win, prepend=win[0])
    step[np.flatnonzero(np.diff(arrivals) > keepalive_s) + 1] = 2
    win = np.cumsum(step)
    n_windows = int(win[-1]) + 1

    counts = np.bincount(win, minlength=n_windows)
    exec_mass = np.bincount(win, weights=exec_s, minlength=n_windows)
    load = exec_mass / window  # expected concurrently-busy pods
    needed = np.ceil(load / concurrency).astype(np.int64)
    needed = np.maximum(needed, (counts > 0).astype(np.int64))
    # A window can never need more pods than it has triggering requests
    # (every pod is born from a request), nor more than the safety bound.
    needed = np.minimum(needed, counts)
    needed = np.minimum(needed, MAX_PODS_PER_FUNCTION)

    within = np.arange(arrivals.size) - (np.cumsum(counts) - counts)[win]
    slot = within % needed[win]

    # A run of slot s starts in window w iff needed[w - 1] <= s < needed[w].
    prev = np.concatenate(([0], needed[:-1]))
    rise = np.maximum(needed - prev, 0)
    run_win = np.repeat(np.arange(n_windows), rise)
    first_run = np.cumsum(rise) - rise
    run_slot = prev[run_win] + np.arange(run_win.size) - first_run[run_win]
    # Each request lands on the last run of its slot starting at or before
    # its window. Windows are global, so the key needs no segment: pods of
    # different segments never tie on start, and only ties keep this order.
    run_key = np.sort(run_slot * n_windows + run_win)
    request_pod = np.searchsorted(run_key, slot * n_windows + win, side="right") - 1

    pod_start = np.full(run_key.size, np.inf)
    pod_last = np.full(run_key.size, -np.inf)
    np.minimum.at(pod_start, request_pod, arrivals)
    np.maximum.at(pod_last, request_pod, arrivals + exec_s)
    return PodLifecycle(
        pod_start_ts=pod_start,
        pod_last_end_ts=pod_last,
        pod_n_requests=np.bincount(request_pod, minlength=run_key.size),
        pod_useful_s=np.maximum(pod_last - pod_start, 0.0),
        request_pod=request_pod,
    )


def reconstruct_function_pods(
    arrivals: np.ndarray,
    exec_s: np.ndarray,
    keepalive_s: float = DEFAULT_KEEPALIVE_S,
    concurrency: int = 1,
) -> PodLifecycle:
    """Reconstruct pods and cold starts for one function's request stream.

    Args:
        arrivals: sorted arrival times in seconds.
        exec_s: per-request execution durations in seconds (same length).
        keepalive_s: idle time after which a pod is deleted (reset on every
            request; 60 s in production).
        concurrency: user-set concurrent requests per pod.

    Returns:
        A :class:`PodLifecycle`; every pod in it corresponds to exactly one
        cold start at ``pod_start_ts``.
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    exec_s = np.asarray(exec_s, dtype=np.float64)
    if arrivals.shape != exec_s.shape:
        raise ValueError("arrivals and exec_s must have the same shape")
    if keepalive_s <= 0:
        raise ValueError("keepalive_s must be positive")
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    if arrivals.size == 0:
        return PodLifecycle.empty()
    if arrivals.size > 1 and np.any(np.diff(arrivals) < 0):
        raise ValueError("arrivals must be sorted")

    if peak_inflight(arrivals, exec_s) <= concurrency:
        return _sequential_lifecycle(arrivals, exec_s, keepalive_s)
    return _autoscaled_lifecycle(arrivals, exec_s, keepalive_s, concurrency)
