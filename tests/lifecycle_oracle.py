"""Frozen per-segment pod-lifecycle reconstruction: the differential oracle.

This is the autoscaled-regime reconstruction as it was before
:func:`repro.cluster.lifecycle._autoscaled_lifecycle` became one labelled
pass: every overflowing keep-alive segment walks :func:`_windowed_segment`
on its own, one Python iteration per pod slot. It is kept verbatim (its
unreachable phantom-run anchor and drop included) so the one-pass version
can be checked byte for byte against it. Do not optimise it.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.lifecycle import (
    MAX_PODS_PER_FUNCTION,
    PodLifecycle,
    _segment_peaks,
    _sequential_lifecycle,
    peak_inflight,
)


def reconstruct_oracle(
    arrivals: np.ndarray,
    exec_s: np.ndarray,
    keepalive_s: float,
    concurrency: int,
) -> PodLifecycle:
    """:func:`repro.cluster.lifecycle.reconstruct_function_pods`' dispatch
    over the per-segment reconstruction (inputs already validated)."""
    arrivals = np.asarray(arrivals, dtype=np.float64)
    exec_s = np.asarray(exec_s, dtype=np.float64)
    if arrivals.size == 0:
        return PodLifecycle.empty()
    if peak_inflight(arrivals, exec_s) <= concurrency:
        return _sequential_lifecycle(arrivals, exec_s, keepalive_s)
    return _autoscaled_lifecycle(arrivals, exec_s, keepalive_s, concurrency)


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
