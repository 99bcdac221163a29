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
  decisions".

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
    re-splits at exactly the segment boundaries). Only overflowing
    segments walk the window-binned path one by one. Output is identical
    to the historical per-segment loop: pods are re-sorted by start time,
    and pod start times never tie across segments (they are separated by
    more than the keep-alive), so the stable sort is layout-independent.
    """
    gaps = np.diff(arrivals)
    boundaries = np.flatnonzero(gaps > keepalive_s) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [arrivals.size]))

    peaks = _segment_peaks(arrivals, exec_s, starts, ends)
    easy = peaks <= concurrency

    start_parts: list[np.ndarray] = []
    last_parts: list[np.ndarray] = []
    nreq_parts: list[np.ndarray] = []
    request_pod = np.empty(arrivals.size, dtype=np.int64)
    next_pod = 0
    if easy.any():
        easy_req = np.repeat(easy, ends - starts)
        easy_idx = np.flatnonzero(easy_req)
        segment = _sequential_lifecycle(
            arrivals[easy_idx], exec_s[easy_idx], keepalive_s
        )
        start_parts.append(segment.pod_start_ts)
        last_parts.append(segment.pod_last_end_ts)
        nreq_parts.append(segment.pod_n_requests)
        request_pod[easy_idx] = segment.request_pod
        next_pod = segment.n_pods
    for seg_idx in np.flatnonzero(~easy):
        seg_start, seg_end = int(starts[seg_idx]), int(ends[seg_idx])
        segment = _windowed_segment(
            arrivals[seg_start:seg_end], exec_s[seg_start:seg_end],
            keepalive_s, concurrency,
        )
        start_parts.append(segment.pod_start_ts)
        last_parts.append(segment.pod_last_end_ts)
        nreq_parts.append(segment.pod_n_requests)
        request_pod[seg_start:seg_end] = segment.request_pod + next_pod
        next_pod += segment.n_pods

    pod_start_ts = np.concatenate(start_parts)
    pod_last_end = np.concatenate(last_parts)
    pod_nreq = np.concatenate(nreq_parts)
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


def _windowed_segment(
    arrivals: np.ndarray,
    exec_s: np.ndarray,
    keepalive_s: float,
    concurrency: int,
) -> PodLifecycle:
    """Window-binned reconstruction for one gap-free segment.

    Demand per keep-alive window is the expected in-flight load (summed
    execution / window, Little's law) divided by the per-pod concurrency,
    at least one pod for any non-empty window. A pod slot lives for a
    maximal run of windows in which demand reaches its level.
    """
    window = keepalive_s
    first_window = int(arrivals[0] // window)
    last_window = int(arrivals[-1] // window)
    n_windows = last_window - first_window + 1

    win_of_request = (arrivals // window).astype(np.int64) - first_window
    counts = np.bincount(win_of_request, minlength=n_windows)
    exec_mass = np.bincount(win_of_request, weights=exec_s, minlength=n_windows)
    load = exec_mass / window  # expected concurrently-busy pods
    needed = np.ceil(load / concurrency).astype(np.int64)
    needed = np.maximum(needed, (counts > 0).astype(np.int64))
    # A window can never need more pods than it has triggering requests
    # (every pod is born from a request), nor more than the safety bound.
    needed = np.minimum(needed, counts)
    needed = np.minimum(needed, MAX_PODS_PER_FUNCTION)

    max_needed = int(needed.max())
    ends = arrivals + exec_s

    # Slot i (1-based) is occupied during windows where needed >= i. Each
    # maximal run of occupied windows is one pod.
    pod_start_parts: list[np.ndarray] = []
    pod_last_parts: list[np.ndarray] = []
    pod_nreq_parts: list[np.ndarray] = []
    request_pod = np.empty(arrivals.size, dtype=np.int64)

    # Round-robin request slots within each window.
    window_first = np.searchsorted(win_of_request, np.arange(n_windows))
    within_idx = np.arange(arrivals.size) - window_first[win_of_request]
    slot_of_request = within_idx % np.maximum(needed[win_of_request], 1)

    next_pod_id = 0
    for slot in range(max_needed):
        occupied = needed > slot
        if not occupied.any():
            continue
        edges = np.diff(occupied.astype(np.int8))
        run_starts = np.flatnonzero(edges == 1) + 1
        if occupied[0]:
            run_starts = np.concatenate(([0], run_starts))
        run_ends = np.flatnonzero(edges == -1) + 1
        if occupied[-1]:
            run_ends = np.concatenate((run_ends, [n_windows]))
        n_runs = run_starts.size

        mask = slot_of_request == slot
        req_windows = win_of_request[mask]
        run_of_req = np.searchsorted(run_starts, req_windows, side="right") - 1
        request_pod[mask] = next_pod_id + run_of_req

        pod_start = np.full(n_runs, np.inf)
        pod_last = np.full(n_runs, -np.inf)
        pod_nreq = np.zeros(n_runs, dtype=np.int64)
        np.minimum.at(pod_start, run_of_req, arrivals[mask])
        np.maximum.at(pod_last, run_of_req, ends[mask])
        np.add.at(pod_nreq, run_of_req, 1)

        # Runs with no directly-assigned request (possible when round-robin
        # skips a slot in a one-window run) anchor at the window boundary.
        unassigned = ~np.isfinite(pod_start)
        if unassigned.any():
            anchor = (run_starts[unassigned] + first_window) * window
            pod_start[unassigned] = anchor
            pod_last[unassigned] = anchor

        pod_start_parts.append(pod_start)
        pod_last_parts.append(pod_last)
        pod_nreq_parts.append(pod_nreq)
        next_pod_id += n_runs

    pod_start_ts = np.concatenate(pod_start_parts)
    pod_last_end = np.concatenate(pod_last_parts)
    pod_nreq = np.concatenate(pod_nreq_parts)

    # Drop phantom pods: a slot-run that never received a request is not a
    # cold start (every pod is born from a triggering request).
    real = pod_nreq > 0
    if not real.all():
        remap = np.full(pod_nreq.size, -1, dtype=np.int64)
        remap[real] = np.arange(int(real.sum()))
        pod_start_ts = pod_start_ts[real]
        pod_last_end = pod_last_end[real]
        pod_nreq = pod_nreq[real]
        request_pod = remap[request_pod]

    # Present pods sorted by start time; remap request assignments.
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
