"""Chunk-incremental, associatively-mergeable statistics.

The paper's analyses run over a month-long, 85-billion-request trace; no
figure can afford "load the bundle, then compute". Every statistic a figure
needs is therefore expressed as an accumulator with a uniform protocol:

* ``update(chunk)`` / ``add(...)`` — fold one bounded
  :class:`~repro.runtime.stream.TraceChunk` (or raw arrays) into the state;
* ``merge(other)`` — combine two accumulators *in place*; associative, so
  ``(a+b)+c == a+(b+c)`` and shard results reduce in any grouping that
  preserves plan (time) order;
* a finalize step (named per class: ``counts_until``, ``cdf``,
  ``finalize`` …) producing exactly what the materialised analysis code
  consumes.

Memory model — state size is bounded by *entity* counts, never by request
rows:

=====================  =====================================================
Accumulator            State bound
=====================  =====================================================
StreamingMoments       O(1)
LogHistogram           O(bins) (default 512 log-spaced bins; overflow
                       auto-widens by whole decades, 64 bins each)
BinnedSeries           O(covered window / bin width): bins start at the
                       first one seen (``origin``), not at t = 0
GroupedCounts          O(distinct keys)
KeyedBinnedCounts      O(distinct keys x covered window bins), same origin
DistinctPairs          O(distinct pairs)
PodIntervalAccumulator O(distinct pods)
GapTracker             O(bins)
=====================  =====================================================

Equality guarantees against the materialised path: integer counts and key
sets are exact; floating sums differ only by addition order (chunk-partial
sums), i.e. to ~1e-12 relative; quantiles/CDFs read from
:class:`LogHistogram` are exact in probability but quantise values to one
bin (default spacing ~3.7 %, the documented "bin tolerance").

:class:`RegionAccumulator` composes everything Figures 1-17 need for one
region. :class:`~repro.runtime.executor.ParallelExecutor` workers return
one per (region, day-window) analysis shard — over either result channel,
as plain picklable objects — and the parent folds them with ``merge``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.analysis.cdf import Cdf, cdf_from_counts, empirical_cdf
from repro.obs.telemetry import get_telemetry

from repro.trace.tables import (
    COMPONENT_COLUMNS,
    FunctionTable,
    PodTable,
    RequestTable,
    dedupe_functions,
    sorted_unique,
)

__all__ = [
    "StreamingMoments",
    "LogHistogram",
    "BinnedSeries",
    "GroupedCounts",
    "KeyedBinnedCounts",
    "DistinctPairs",
    "PodIntervalAccumulator",
    "GapTracker",
    "TickGauge",
    "RegionAccumulator",
]

_SECONDS_PER_DAY = 86_400.0


# --- scalar moments ---------------------------------------------------------


class StreamingMoments:
    """Count / sum / sum-of-squares / min / max of a value stream.

    Sufficient statistics for means, standard deviations, and — fed with
    ``log(x)`` — the closed-form LogNormal MLE of §4.1.
    """

    __slots__ = ("n", "total", "total_sq", "vmin", "vmax")

    def __init__(self) -> None:
        self.n = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf

    def add(self, values: np.ndarray) -> "StreamingMoments":
        values = np.asarray(values, dtype=np.float64)
        if values.size:
            self.n += int(values.size)
            self.total += float(values.sum())
            self.total_sq += float(np.square(values).sum())
            self.vmin = min(self.vmin, float(values.min()))
            self.vmax = max(self.vmax, float(values.max()))
        return self

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        self.n += other.n
        self.total += other.total
        self.total_sq += other.total_sq
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)
        return self

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else float("nan")

    @property
    def std(self) -> float:
        if not self.n:
            return float("nan")
        return math.sqrt(max(self.total_sq / self.n - self.mean**2, 0.0))

    def __eq__(self, other) -> bool:
        return isinstance(other, StreamingMoments) and (
            (self.n, self.total, self.total_sq, self.vmin, self.vmax)
            == (other.n, other.total, other.total_sq, other.vmin, other.vmax)
        )


# --- fixed-bin histogram / CDF sketch ---------------------------------------


@functools.lru_cache(maxsize=64)
def _lattice_edges(log_lo: float, step: float, first: int, count: int) -> np.ndarray:
    """Lattice edges ``first .. first + count - 1``, shared and read-only;
    every edge, binned or stored, comes from this one formula."""
    edges = np.power(10.0, log_lo + np.arange(first, first + count) * step)
    edges.flags.writeable = False
    return edges


class LogHistogram:
    """Log-spaced bins over ``[lo, hi)`` with under/overflow tails.

    The CDF sketch behind every pod-population distribution (cold-start
    times, components, IATs, Figs. 10/13/15/16): probabilities are exact,
    values quantise to one bin (default 512 bins over 8 decades, ~3.7 %
    spacing). Exact zeros are counted apart from the underflow tail so
    "exclude zero entries" analyses (dependency deployment, IAT fits) can
    reproduce the materialised filters.

    **Adaptive range.** An overflowing value widens ``hi`` — by whole log
    decades when the grid has a whole number of bins per decade (the
    default: 64), by whole bins otherwise — appending empty bins at the
    fixed per-bin ratio, so existing counts rebin exactly, up to
    :attr:`WIDEN_CAP_HI`. Symmetrically, a positive value below ``lo``
    (sub-0.1 ms populations on the default grid) widens ``lo`` *down* to
    :attr:`WIDEN_CAP_LO`, prepending bins on the same lattice. Quantiles
    outside the original range therefore stay one-bin accurate instead of
    silently clamping. The widened grid depends only on the values seen,
    never on chunking or merge order, and histograms of the same anchor
    (construction ``lo``) and per-bin ratio merge across *different*
    widths in either direction (the narrower side widens first), keeping
    merges associative and jobs-invariant.
    """

    DEFAULT_LO = 1e-4
    DEFAULT_HI = 1e4
    DEFAULT_BINS = 512

    #: Widening stops at this ceiling (12 decades past the default ``hi``);
    #: values at or above it land in the overflow tail as before. Keeps a
    #: pathological value from allocating unbounded bins.
    WIDEN_CAP_HI = 1e16

    #: Downward widening stops at this floor (12 decades below the default
    #: ``lo``); positive values below it stay in the underflow tail.
    WIDEN_CAP_LO = 1e-16

    def __init__(self, lo: float = DEFAULT_LO, hi: float = DEFAULT_HI,
                 bins: int = DEFAULT_BINS):
        if not 0 < lo < hi:
            raise ValueError("need 0 < lo < hi")
        if bins < 2:
            raise ValueError("need at least 2 bins")
        self.lo = float(lo)
        self.hi = float(hi)
        self.bins = int(bins)
        # The per-bin log step and the anchor (the construction lo) are
        # fixed for life; widening prepends/appends bins on this exact
        # lattice, so edge i is the same float no matter when (or whether)
        # the histogram widened. ``_lo_bins`` counts bins below the anchor.
        self._log_lo = float(np.log10(self.lo))
        self._step = (float(np.log10(self.hi)) - self._log_lo) / self.bins
        self._lo_bins = 0
        per_decade = 1.0 / self._step
        self._bins_per_decade = (
            int(round(per_decade))
            if math.isclose(per_decade, round(per_decade), rel_tol=1e-9)
            else None
        )
        self.edges = self._edges_for(self.bins)
        self.counts = np.zeros(bins, dtype=np.int64)
        self.n_zero = 0
        self.n_under = 0  # in (0, lo)
        self.n_over = 0  # >= hi (after any widening)
        self.sum = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf

    # -- adaptive widening ---------------------------------------------------

    def _edges_for(self, bins: int) -> np.ndarray:
        return _lattice_edges(self._log_lo, self._step, -self._lo_bins, bins + 1)

    def _lattice_bins(self, values: np.ndarray) -> np.ndarray:
        """Lattice bin ``k`` (``edge(k) <= v < edge(k + 1)``, 0 at the anchor)
        of each value, by one ``searchsorted`` over the positive values'
        span. Exact wherever the widening caps allow ``[lo, hi)``."""
        positive = values[(values > 0.0) & (values < math.inf)]
        if not positive.size:
            return np.zeros(values.size, dtype=np.intp)
        lo = max(float(positive.min()), min(self.WIDEN_CAP_LO, self.lo))
        hi = min(float(positive.max()), max(self.WIDEN_CAP_HI, self.hi))
        first = math.floor((math.log10(lo) - self._log_lo) / self._step) - 2
        last = max(math.ceil((math.log10(hi) - self._log_lo) / self._step) + 2, first)
        edges = _lattice_edges(self._log_lo, self._step, first, last - first + 1)
        return np.searchsorted(edges, values, side="right") - 1 + first

    def _edge_at(self, index: int) -> float:
        """Edge ``index`` of the current grid (lattice formula, exact)."""
        return float(10.0 ** (self._log_lo + (index - self._lo_bins) * self._step))

    def _grow_step(self) -> int:
        """Bins per widening unit: a whole decade when the grid allows it
        (so default grids keep their round power-of-ten bounds), else one
        bin at a time — fractional-bins-per-decade grids widen too instead
        of silently clamping into the tails."""
        return self._bins_per_decade or 1

    def _grow_up(self, added: int) -> None:
        """Append ``added`` empty bins on the lattice (hi moves up)."""
        if added <= 0:
            return
        tel = get_telemetry()
        if tel.enabled:
            tel.count_many((("hist/widen_up", 1),
                            ("hist/widen_bins", added)))
        self.counts = np.concatenate(
            [self.counts, np.zeros(added, dtype=np.int64)]
        )
        self.bins += added
        self.hi = self._edge_at(self.bins)
        self.edges = self._edges_for(self.bins)

    def _grow_down(self, added: int) -> None:
        """Prepend ``added`` empty bins on the lattice (lo moves down)."""
        if added <= 0:
            return
        tel = get_telemetry()
        if tel.enabled:
            tel.count_many((("hist/widen_down", 1),
                            ("hist/widen_bins", added)))
        self.counts = np.concatenate(
            [np.zeros(added, dtype=np.int64), self.counts]
        )
        self.bins += added
        self._lo_bins += added
        self.lo = self._edge_at(0)
        self.edges = self._edges_for(self.bins)

    def _widen_to_cover(self, value: float) -> None:
        """Grow ``hi`` until ``value < hi`` (or the cap); exact rebinning."""
        if not math.isfinite(value):
            return
        grow = self._grow_step()
        added = 0
        hi = self.hi
        while hi <= value and hi < self.WIDEN_CAP_HI:
            added += grow
            hi = self._edge_at(self.bins + added)
        self._grow_up(added)

    def _widen_down_to_cover(self, value: float) -> None:
        """Grow ``lo`` downward until ``value >= lo`` (or the floor cap)."""
        if not value > 0.0:
            return
        grow = self._grow_step()
        added = 0
        lo = self.lo
        while lo > value and lo > self.WIDEN_CAP_LO:
            added += grow
            lo = self._edge_at(-added)
        self._grow_down(added)

    def add(self, values: np.ndarray) -> "LogHistogram":
        values = np.asarray(values, dtype=np.float64)
        values = values[~np.isnan(values)]
        return self._add_binned(values, self._lattice_bins(values))

    def _add_binned(self, values: np.ndarray, lattice: np.ndarray) -> "LogHistogram":
        """Fold NaN-free ``values`` whose :meth:`_lattice_bins` are
        ``lattice``: the one binning path. Lattice bins do not move when
        the grid widens, so values can be binned before it does."""
        if not values.size:
            return self
        self.sum += float(values.sum())
        self.vmin = min(self.vmin, float(values.min()))
        self.vmax = max(self.vmax, float(values.max()))
        self.n_zero += int(np.count_nonzero(values == 0.0))
        is_positive = values > 0.0
        positive = values[is_positive]
        if positive.size:
            finite_max = float(positive.max())
            if finite_max == math.inf:
                finite_max = float(positive[np.isfinite(positive)].max(initial=0.0))
            if finite_max >= self.hi:
                self._widen_to_cover(finite_max)
            positive_min = float(positive.min())
            if positive_min < self.lo:
                self._widen_down_to_cover(positive_min)
        below, above = positive < self.lo, positive >= self.hi
        self.n_under += int(np.count_nonzero(below))
        self.n_over += int(np.count_nonzero(above))
        inside = ~(below | above)
        if inside.any():
            idx = lattice[is_positive][inside] + self._lo_bins
            self.counts += np.bincount(
                np.minimum(np.maximum(idx, 0), self.bins - 1), minlength=self.bins
            )
        return self

    def add_one(self, value: float) -> "LogHistogram":
        """One value, for event-at-a-time producers (the same binning)."""
        return self.add(np.array([value], dtype=np.float64))

    def _check_compatible(self, other: "LogHistogram") -> None:
        if (self._log_lo, self._step) != (other._log_lo, other._step):
            raise ValueError("cannot merge histograms with different bin grids")

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold ``other`` in; widths may differ if anchor and ratio agree."""
        self._check_compatible(other)
        self._grow_down(other._lo_bins - self._lo_bins)
        self._grow_up(
            (other.bins - other._lo_bins) - (self.bins - self._lo_bins)
        )
        offset = self._lo_bins - other._lo_bins
        self.counts[offset : offset + other.bins] += other.counts
        self.n_zero += other.n_zero
        self.n_under += other.n_under
        self.n_over += other.n_over
        self.sum += other.sum
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)
        return self

    @property
    def n(self) -> int:
        return int(self.counts.sum()) + self.n_zero + self.n_under + self.n_over

    @property
    def mean(self) -> float:
        return self.sum / self.n if self.n else float("nan")

    def quantile(self, q: float, include_zeros: bool = True) -> float:
        """Value at cumulative probability ``q``; one-bin value tolerance.

        Returns the upper edge of the bin the quantile falls in (tails
        resolve to the exact tracked min/max), so the result is within one
        bin ratio above the sample quantile.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        n_zero = self.n_zero if include_zeros else 0
        total = int(self.counts.sum()) + n_zero + self.n_under + self.n_over
        if total == 0:
            return float("nan")
        target = q * total
        cum = n_zero
        if target <= cum and n_zero:
            return 0.0
        cum += self.n_under
        if target <= cum and self.n_under:
            # the underflow tail resolves to the tracked minimum when it is
            # a valid underflow representative (0 < vmin < lo)
            if math.isfinite(self.vmin) and 0.0 < self.vmin < self.lo:
                return float(self.vmin)
            return self.lo
        for i in range(self.bins):
            cum += int(self.counts[i])
            if target <= cum and self.counts[i]:
                return float(self.edges[i + 1])
        return float(self.vmax) if math.isfinite(self.vmax) else self.hi

    def quantiles(self, qs=(0.25, 0.5, 0.75), include_zeros: bool = True) -> dict:
        """Named quantiles, mirroring :func:`repro.analysis.cdf.quantiles`."""
        return {float(q): self.quantile(q, include_zeros) for q in qs}

    def cdf(self, include_zeros: bool = True):
        """A :class:`~repro.analysis.cdf.Cdf` over bin upper edges."""
        n_zero = self.n_zero if include_zeros else 0
        total = int(self.counts.sum()) + n_zero + self.n_under + self.n_over
        if total == 0:
            return Cdf(np.zeros(0), np.zeros(0))
        values = [0.0] if n_zero else []
        counts = [n_zero] if n_zero else []
        if self.n_under:
            values.append(self.lo)
            counts.append(self.n_under)
        nonempty = np.flatnonzero(self.counts)
        values.extend(self.edges[nonempty + 1].tolist())
        counts.extend(self.counts[nonempty].tolist())
        if self.n_over:
            values.append(float(self.vmax) if math.isfinite(self.vmax) else self.hi)
            counts.append(self.n_over)
        return cdf_from_counts(
            np.asarray(values, dtype=np.float64),
            np.asarray(counts, dtype=np.float64),
        )

    def positive_bin_values(self) -> tuple[np.ndarray, np.ndarray]:
        """(representative value, weight) pairs for weighted fitting.

        Bin representatives are geometric midpoints; tails sit at the exact
        tracked extremes. Exact zeros are excluded (fits drop them).
        """
        reps, weights = [], []
        if self.n_under:
            reps.append(max(float(self.vmin), self.lo / 2.0)
                        if math.isfinite(self.vmin) and self.vmin > 0
                        else self.lo / 2.0)
            weights.append(self.n_under)
        nonempty = np.flatnonzero(self.counts)
        reps.extend(np.sqrt(self.edges[nonempty] * self.edges[nonempty + 1]).tolist())
        weights.extend(self.counts[nonempty].tolist())
        if self.n_over:
            reps.append(float(self.vmax) if math.isfinite(self.vmax) else self.hi)
            weights.append(self.n_over)
        return (np.asarray(reps, dtype=np.float64),
                np.asarray(weights, dtype=np.float64))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LogHistogram)
            and (self.lo, self.hi, self.bins) == (other.lo, other.hi, other.bins)
            and np.array_equal(self.counts, other.counts)
            and (self.n_zero, self.n_under, self.n_over) ==
                (other.n_zero, other.n_under, other.n_over)
            and (self.sum, self.vmin, self.vmax) ==
                (other.sum, other.vmin, other.vmax)
        )


# --- fixed-width time bins --------------------------------------------------


def _time_bins(times_s: np.ndarray, bin_s: float) -> np.ndarray:
    """Bin index of each time on a ``bin_s`` grid (negative times to bin 0)."""
    return np.maximum((times_s // bin_s).astype(np.int64), 0)


def _grown_span(start: int, stop: int, first: int, end: int) -> tuple[int, int]:
    """Bins a window-relative buffer spanning ``[start, stop)`` must span to
    also hold ``[first, end)``; appends double the span so they amortise."""
    if first >= end:
        return start, stop
    if start == stop:
        return first, end
    return min(first, start), (max(end, 2 * stop - start) if end > stop else stop)


class BinnedSeries:
    """Per-bin event counts and (optionally) value sums on a fixed grid.

    The streaming counterpart of :func:`repro.analysis.timeseries.bin_counts`
    / ``bin_sums`` / ``bin_means``. ``counts[i]`` is bin ``origin + i``: a
    shard holds only its window. The ``*_until`` finalizers rebuild the
    dense frame from bin 0 — ``frame`` bins long, grown as a doubling buffer
    from bin 0 would be, so the fold of beyond-horizon events into the last
    bin sums the same array — and reproduce those functions exactly.
    """

    def __init__(self, bin_s: float, track_sums: bool = True):
        if bin_s <= 0:
            raise ValueError("bin_s must be positive")
        self.bin_s = float(bin_s)
        self.track_sums = track_sums
        self.origin = 0
        self.frame = 0
        self.counts = np.zeros(0, dtype=np.float64)
        self.sums = np.zeros(0, dtype=np.float64) if track_sums else None
        self.max_time = -math.inf
        self.min_time = math.inf

    def _cover(self, first: int, end: int, frame: int) -> slice:
        """Grow storage to hold bins ``[first, end)``; return their slice."""
        if frame > self.frame:
            self.frame = max(frame, 2 * self.frame)
        stop = self.origin + self.counts.size
        start, new_stop = _grown_span(self.origin, stop, first, end)
        if (start, new_stop) != (self.origin, stop):
            at = slice(self.origin - start, stop - start)
            for name in ("counts", "sums") if self.sums is not None else ("counts",):
                grown = np.zeros(new_stop - start)
                grown[at] = getattr(self, name)
                setattr(self, name, grown)
            self.origin = start
        return slice(first - self.origin, end - self.origin)

    def add(self, times_s: np.ndarray, values: np.ndarray | None = None,
            bins: np.ndarray | None = None) -> "BinnedSeries":
        """Fold events at ``times_s``; ``bins`` may pass their precomputed
        :func:`_time_bins` when several series share one grid."""
        times_s = np.asarray(times_s, dtype=np.float64)
        if not times_s.size:
            return self
        self.max_time = max(self.max_time, float(times_s.max()))
        self.min_time = min(self.min_time, float(times_s.min()))
        idx = _time_bins(times_s, self.bin_s) if bins is None else bins
        first, end = int(idx.min()), int(idx.max()) + 1
        at = self._cover(first, end, end)
        self.counts[at] += np.bincount(idx - first)
        if self.sums is not None:
            if values is None:
                raise ValueError("this series tracks sums; pass values")
            values = np.asarray(values, dtype=np.float64)
            self.sums[at] += np.bincount(idx - first, weights=values)
        return self

    def add_one(self, time_s: float, value: float | None = None) -> "BinnedSeries":
        """Scalar fast path: one event, no numpy temporaries."""
        self.max_time = max(self.max_time, time_s)
        self.min_time = min(self.min_time, time_s)
        idx = max(int(time_s // self.bin_s), 0)
        pos = self._cover(idx, idx + 1, idx + 1).start
        self.counts[pos] += 1.0
        if self.sums is not None:
            if value is None:
                raise ValueError("this series tracks sums; pass a value")
            self.sums[pos] += value
        return self

    def merge(self, other: "BinnedSeries") -> "BinnedSeries":
        if self.bin_s != other.bin_s or self.track_sums != other.track_sums:
            raise ValueError("cannot merge series with different grids")
        at = self._cover(other.origin, other.origin + other.counts.size, other.frame)
        self.counts[at] += other.counts
        if self.sums is not None:
            self.sums[at] += other.sums
        self.max_time = max(self.max_time, other.max_time)
        self.min_time = min(self.min_time, other.min_time)
        return self

    def n_bins_for(self, horizon_s: float | None) -> int:
        """Replicate ``bin_counts``' horizon inference and bin count."""
        if horizon_s is None:
            horizon_s = (
                self.max_time + self.bin_s
                if math.isfinite(self.max_time)
                else self.bin_s
            )
        return max(int(np.ceil(horizon_s / self.bin_s)), 1)

    def _dense(self, stored: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Bins ``[start, stop)`` of the dense frame."""
        out = np.zeros(stop - start, dtype=np.float64)
        lo = max(self.origin, start)
        hi = max(min(self.origin + stored.size, stop), lo)
        out[lo - start : hi - start] = stored[lo - self.origin : hi - self.origin]
        return out

    def _finalize(self, stored: np.ndarray, n_bins: int) -> np.ndarray:
        out = self._dense(stored, 0, n_bins)
        # clip semantics: fold the tail (unless eventless) into the last bin
        if self.frame > n_bins and self.max_time // self.bin_s >= n_bins:
            out[n_bins - 1] += self._dense(stored, n_bins, self.frame).sum()
        return out

    def counts_until(self, horizon_s: float | None = None) -> np.ndarray:
        """Equals ``bin_counts(times, bin_s, horizon_s)`` over the stream."""
        return self._finalize(self.counts, self.n_bins_for(horizon_s))

    def sums_until(self, horizon_s: float | None = None) -> np.ndarray:
        if self.sums is None:
            raise ValueError("series was built without sums")
        return self._finalize(self.sums, self.n_bins_for(horizon_s))

    def means_until(self, horizon_s: float | None = None) -> np.ndarray:
        """Equals ``bin_means``: per-bin mean, NaN where the bin is empty."""
        counts = self.counts_until(horizon_s)
        sums = self.sums_until(horizon_s)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)

    def __eq__(self, other) -> bool:
        """Content equality, insensitive to origin and buffer growth."""
        if not isinstance(other, BinnedSeries):
            return NotImplemented
        if (self.bin_s, self.track_sums) != (other.bin_s, other.track_sums):
            return False
        if (self.max_time, self.min_time) != (other.max_time, other.min_time):
            return False
        n = max(self.origin + self.counts.size, other.origin + other.counts.size)
        return all(
            np.array_equal(self._dense(mine, 0, n), other._dense(theirs, 0, n))
            for mine, theirs in ((self.counts, other.counts), (self.sums, other.sums))
            if mine is not None
        )


class TickGauge:
    """A per-tick gauge series merged by element-wise (right-padded) sum.

    Replaces the evaluator's unbounded ``pods_series`` list: shards tick on
    the same absolute grid, so summing aligned ticks gives the combined
    gauge and the peak is recomputed from the sum (associative re-merge).
    Appends amortise over a doubling buffer.
    """

    __slots__ = ("_buffer", "_length")

    def __init__(self, values=()):
        self._buffer = np.asarray(values, dtype=np.float64).copy()
        self._length = int(self._buffer.size)

    @property
    def values(self) -> np.ndarray:
        return self._buffer[: self._length]

    def record(self, value: float) -> None:
        if self._length == self._buffer.size:
            grown = np.zeros(max(2 * self._buffer.size, 64), dtype=np.float64)
            grown[: self._length] = self._buffer[: self._length]
            self._buffer = grown
        self._buffer[self._length] = float(value)
        self._length += 1

    def extend(self, values: np.ndarray) -> None:
        """Append a whole tick series at once (batch producers)."""
        values = np.asarray(values, dtype=np.float64)
        needed = self._length + values.size
        if needed > self._buffer.size:
            grown = np.zeros(max(2 * self._buffer.size, needed, 64), dtype=np.float64)
            grown[: self._length] = self._buffer[: self._length]
            self._buffer = grown
        self._buffer[self._length : needed] = values
        self._length = needed

    def merge(self, other: "TickGauge") -> "TickGauge":
        n = max(self._length, other._length)
        total = np.zeros(n, dtype=np.float64)
        total[: self._length] += self.values
        total[: other._length] += other.values
        self._buffer = total
        self._length = n
        return self

    def peak(self) -> float:
        return float(self.values.max()) if self._length else 0.0

    def __len__(self) -> int:
        return self._length

    def to_list(self) -> list:
        return self.values.tolist()

    def __eq__(self, other) -> bool:
        return isinstance(other, TickGauge) and np.array_equal(
            self.values, other.values
        )


# --- keyed reducers ---------------------------------------------------------


def _group_reduce(keys: np.ndarray, columns: list[np.ndarray], ops: list[str]):
    """Reduce ``columns`` per distinct key; returns (keys_sorted, reduced)."""
    uniques, inverse = np.unique(keys, return_inverse=True)
    reduced = []
    for column, op in zip(columns, ops):
        if op == "sum":
            out = np.zeros(uniques.size, dtype=column.dtype)
            np.add.at(out, inverse, column)
        elif op == "min":
            out = np.full(uniques.size, np.inf)
            np.minimum.at(out, inverse, column)
        elif op == "max":
            out = np.full(uniques.size, -np.inf)
            np.maximum.at(out, inverse, column)
        elif op == "first":
            out = np.zeros(uniques.size, dtype=column.dtype)
            # reversed scatter: earlier rows overwrite later ones, so each
            # key keeps its *first* occurrence as documented
            out[inverse[::-1]] = column[::-1]
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown reduce op {op!r}")
        reduced.append(out)
    return uniques, reduced


class GroupedCounts:
    """Occurrence counts per int64 key (requests per user/function, ...)."""

    __slots__ = ("keys", "counts")

    def __init__(self) -> None:
        self.keys = np.zeros(0, dtype=np.int64)
        self.counts = np.zeros(0, dtype=np.int64)

    def add(self, keys: np.ndarray) -> "GroupedCounts":
        keys = np.asarray(keys, dtype=np.int64)
        if not keys.size:
            return self
        uniques, counts = np.unique(keys, return_counts=True)
        self._absorb(uniques, counts)
        return self

    def _absorb(self, keys: np.ndarray, counts: np.ndarray) -> None:
        merged_keys, (merged_counts,) = _group_reduce(
            np.concatenate([self.keys, keys]),
            [np.concatenate([self.counts, counts.astype(np.int64)])],
            ["sum"],
        )
        self.keys, self.counts = merged_keys, merged_counts

    def merge(self, other: "GroupedCounts") -> "GroupedCounts":
        self._absorb(other.keys, other.counts)
        return self

    @property
    def n_keys(self) -> int:
        return int(self.keys.size)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def as_dict(self) -> dict[int, int]:
        return dict(zip(self.keys.tolist(), self.counts.tolist()))


def _merge_positions(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the items of sorted runs ``a`` and ``b`` land in their merge;
    ties keep ``a`` first, as a stable sort of ``a`` then ``b`` would."""
    return (np.arange(a.size) + np.searchsorted(b, a, side="left"),
            np.arange(b.size) + np.searchsorted(a, b, side="right"))


class KeyedBinnedCounts:
    """Per-key event counts on a fixed time grid (function x day/minute).

    Backs the per-function median-day statistic (Fig. 3a) and the
    per-function minute series of the peak-to-trough analysis (Fig. 6).
    State is a dense ``keys x bins`` int64 matrix whose column ``j`` is bin
    ``origin + j`` — bounded by the function population times the covered
    window, never by request rows.
    """

    def __init__(self, bin_s: float):
        if bin_s <= 0:
            raise ValueError("bin_s must be positive")
        self.bin_s = float(bin_s)
        self.origin = 0
        self.keys = np.zeros(0, dtype=np.int64)
        self.matrix = np.zeros((0, 0), dtype=np.int64)

    def _cover(self, keys: np.ndarray, first: int, end: int) -> tuple[np.ndarray, slice]:
        """Grow rows for sorted unique ``keys`` and columns for bins
        ``[first, end)``; return the keys' rows and the bins' columns."""
        pos = np.minimum(np.searchsorted(self.keys, keys), max(self.keys.size - 1, 0))
        new = keys[self.keys[pos] != keys] if self.keys.size else keys
        stop = self.origin + self.matrix.shape[1]
        start, new_stop = _grown_span(self.origin, stop, first, end)
        if new.size or (start, new_stop) != (self.origin, stop):
            old_rows, new_rows = _merge_positions(self.keys, new)
            all_keys = np.empty(self.keys.size + new.size, dtype=np.int64)
            all_keys[old_rows], all_keys[new_rows] = self.keys, new
            matrix = np.zeros((all_keys.size, new_stop - start), dtype=np.int64)
            matrix[old_rows, self.origin - start : stop - start] = self.matrix
            self.keys, self.matrix, self.origin = all_keys, matrix, start
        return np.searchsorted(self.keys, keys), slice(first - self.origin, end - self.origin)

    def add(self, keys: np.ndarray, times_s: np.ndarray) -> "KeyedBinnedCounts":
        keys = np.asarray(keys, dtype=np.int64)
        if not keys.size:
            return self
        uniques = sorted_unique(keys)
        bins = _time_bins(np.asarray(times_s, dtype=np.float64), self.bin_s)
        return self._add_coded(uniques, np.searchsorted(uniques, keys), bins)

    def _add_coded(self, uniques: np.ndarray, inverse: np.ndarray,
                   bins: np.ndarray) -> "KeyedBinnedCounts":
        """Count events of keys ``uniques[inverse]`` (sorted, unique) at
        time bins ``bins``: callers with several grids share the coding."""
        first, end = int(bins.min()), int(bins.max()) + 1
        rows, cols = self._cover(uniques, first, end)
        width = end - first
        cells = np.bincount(inverse * width + (bins - first), minlength=uniques.size * width)
        self.matrix[rows, cols] += cells.reshape(uniques.size, width)
        return self

    def merge(self, other: "KeyedBinnedCounts") -> "KeyedBinnedCounts":
        if self.bin_s != other.bin_s:
            raise ValueError("cannot merge keyed series with different grids")
        if not other.keys.size:
            return self
        rows, cols = self._cover(
            other.keys, other.origin, other.origin + other.matrix.shape[1]
        )
        self.matrix[rows, cols] += other.matrix
        return self

    def counts_matrix(self, n_bins: int) -> np.ndarray:
        """Keys-aligned dense matrix with the tail folded into bin ``n_bins-1``.

        Reproduces the materialised ``clip(idx, 0, n_bins - 1)`` binning.
        """
        n_bins = max(n_bins, 1)
        out = np.zeros((self.keys.size, n_bins), dtype=np.int64)
        width = self.matrix.shape[1]
        start, stop = min(self.origin, n_bins), min(self.origin + width, n_bins)
        out[:, start:stop] = self.matrix[:, : stop - start]
        if self.origin + width > n_bins:
            out[:, n_bins - 1] += self.matrix[:, max(n_bins - self.origin, 0) :].sum(axis=1)
        return out


class DistinctPairs:
    """The distinct (a, b) int64 pairs seen (functions-per-user, Fig. 4a)."""

    __slots__ = ("pairs",)

    def __init__(self) -> None:
        self.pairs = np.zeros((0, 2), dtype=np.int64)

    def add(self, a: np.ndarray, b: np.ndarray) -> "DistinctPairs":
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if not a.size:
            return self
        # A chunk holds many rows but few distinct pairs: dedupe it on one
        # int64 key, the pair's offset from the chunk's smallest ids, then
        # merge the few survivors with the held pairs. Id ranges too wide
        # for one key (only seen with synthetic extremes) dedupe row-wise.
        a_lo, b_lo = int(a.min()), int(b.min())
        span = int(b.max()) - b_lo + 1
        if (int(a.max()) - a_lo + 1) * span <= 2**63:
            key = sorted_unique((a - a_lo) * span + (b - b_lo))
            chunk = np.stack([key // span + a_lo, key % span + b_lo], axis=1)
        else:
            chunk = np.stack([a, b], axis=1)
        self.pairs = _distinct_rows(np.concatenate([self.pairs, chunk]))
        return self

    def merge(self, other: "DistinctPairs") -> "DistinctPairs":
        if other.pairs.size:
            self.pairs = _distinct_rows(np.concatenate([self.pairs, other.pairs]))
        return self

    def counts_per_first(self) -> np.ndarray:
        """Distinct second elements per first element (sorted by first)."""
        if not self.pairs.size:
            return np.zeros(0, dtype=np.int64)
        _, counts = np.unique(self.pairs[:, 0], return_counts=True)
        return counts


def _distinct_rows(pairs: np.ndarray) -> np.ndarray:
    """``np.unique(pairs, axis=0)`` for an (n, 2) int64 array: the distinct
    rows sorted by first then second column, via one lexsort and a
    run-boundary mask (no structured-dtype sort)."""
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    keep = np.ones(len(pairs), dtype=bool)
    keep[1:] = (pairs[1:] != pairs[:-1]).any(axis=1)
    return pairs[keep]


class PodIntervalAccumulator:
    """Per-pod activity intervals streamed off the request stream.

    Accumulates, per pod id: first request time, last request end, request
    count, owning function, and (from the pod stream) the cold-start
    duration — everything Figs. 7, 8, and 17 need. State is bounded by the
    number of distinct pods, roughly two orders of magnitude below request
    rows.
    """

    def __init__(self) -> None:
        self.pod_id = np.zeros(0, dtype=np.int64)
        self.function = np.zeros(0, dtype=np.int64)
        self.start_s = np.zeros(0, dtype=np.float64)
        self.last_end_s = np.zeros(0, dtype=np.float64)
        self.n_requests = np.zeros(0, dtype=np.int64)

    def add(self, requests: RequestTable) -> "PodIntervalAccumulator":
        if not len(requests):
            return self
        ts = requests.timestamps_s
        ends = ts + requests.exec_time_s
        self._absorb(
            requests["pod_id"], requests["function"], ts, ends,
            np.ones(len(requests), dtype=np.int64),
        )
        return self

    def _absorb(self, pod_ids, functions, starts, ends, counts) -> None:
        keys = np.concatenate([self.pod_id, np.asarray(pod_ids, dtype=np.int64)])
        uniques, (function, start, last_end, n_req) = _group_reduce(
            keys,
            [
                np.concatenate([self.function, np.asarray(functions, dtype=np.int64)]),
                np.concatenate([self.start_s, np.asarray(starts, dtype=np.float64)]),
                np.concatenate([self.last_end_s, np.asarray(ends, dtype=np.float64)]),
                np.concatenate([self.n_requests, np.asarray(counts, dtype=np.int64)]),
            ],
            ["first", "min", "max", "sum"],
        )
        self.pod_id = uniques
        self.function = function
        self.start_s = start
        self.last_end_s = last_end
        self.n_requests = n_req

    def merge(self, other: "PodIntervalAccumulator") -> "PodIntervalAccumulator":
        if other.pod_id.size:
            self._absorb(
                other.pod_id, other.function, other.start_s,
                other.last_end_s, other.n_requests,
            )
        return self

    def finalize(self):
        """The :class:`~repro.analysis.composition.PodIntervals` equivalent."""
        from repro.analysis.composition import PodIntervals

        return PodIntervals(
            pod_id=self.pod_id,
            function=self.function,
            start_s=self.start_s,
            last_end_s=self.last_end_s,
            n_requests=self.n_requests,
        )


class GapTracker:
    """Inter-event gaps of a time-ordered stream, sketched into a histogram.

    The streaming form of :func:`~repro.analysis.coldstart_stats
    .cold_start_iats`: each update sorts its (time-disjoint, later-than-
    previous) chunk, histograms the internal gaps, and stitches the
    boundary gap to the previous chunk. ``merge`` requires the other
    tracker to cover strictly later time (plan order guarantees this);
    :meth:`pool` combines trackers of *independent* streams (regions)
    without a boundary gap, matching the paper's pooled fits.
    """

    def __init__(self, lo: float = LogHistogram.DEFAULT_LO,
                 hi: float = LogHistogram.DEFAULT_HI,
                 bins: int = LogHistogram.DEFAULT_BINS):
        self.hist = LogHistogram(lo, hi, bins)
        self.first_ts: float | None = None
        self.last_ts: float | None = None

    def add(self, times_s: np.ndarray) -> "GapTracker":
        times_s = np.sort(np.asarray(times_s, dtype=np.float64))
        if not times_s.size:
            return self
        if self.last_ts is not None:
            if times_s[0] < self.last_ts:
                raise ValueError(
                    "GapTracker updates must be time-ordered: got a chunk "
                    f"starting at {times_s[0]:.3f}s before the previous end "
                    f"{self.last_ts:.3f}s"
                )
            self.hist.add(np.array([times_s[0] - self.last_ts]))
        if times_s.size > 1:
            self.hist.add(np.diff(times_s))
        if self.first_ts is None:
            self.first_ts = float(times_s[0])
        self.last_ts = float(times_s[-1])
        return self

    def merge(self, other: "GapTracker") -> "GapTracker":
        if other.first_ts is None:
            return self
        if self.last_ts is not None:
            if other.first_ts < self.last_ts:
                raise ValueError(
                    "GapTracker merges must follow time order; "
                    "use pool() for independent streams"
                )
            self.hist.add(np.array([other.first_ts - self.last_ts]))
        self.hist.merge(other.hist)
        self.first_ts = self.first_ts if self.first_ts is not None else other.first_ts
        self.last_ts = other.last_ts
        return self

    def pool(self, other: "GapTracker") -> "GapTracker":
        """Combine gap populations of independent streams (no boundary)."""
        self.hist.merge(other.hist)
        return self


# --- per-region composite ---------------------------------------------------

#: Pod metrics sketched per category for Figs. 10/13/15/16.
POD_METRICS = ("cold_start_s",) + COMPONENT_COLUMNS


class RegionAccumulator:
    """Everything Figures 1-17 need for one region, chunk by chunk.

    Construct with the region's (small, static) function-metadata table and
    the generation ``meta`` dict, then feed time-ordered
    :class:`~repro.runtime.stream.TraceChunk` objects via :meth:`update`.
    ``merge`` combines shards of the same region in plan (time) order;
    :class:`~repro.core.study.StreamingTraceStudy` drives the figure
    finalizers on top.

    As the streamed side of the study's per-region data interface (the
    figure-data section below; :class:`~repro.core.bundle_data.BundleData`
    is the exact side), it serves counts, key sets and series exactly
    (floating sums to addition order) and CDFs, quantiles and fits from
    :class:`LogHistogram` sketches (one-bin value tolerance).
    """

    def __init__(self, region: str, functions: FunctionTable | None = None,
                 meta: dict | None = None):
        self.region = region
        self.functions = functions if functions is not None else FunctionTable.empty()
        self.meta = dict(meta or {})
        # request-side
        self.n_requests = 0
        self.req_ts_ms_min: int | None = None
        self.req_ts_ms_max: int | None = None
        self.per_user = GroupedCounts()
        self.user_functions = DistinctPairs()
        self.per_function_day = KeyedBinnedCounts(_SECONDS_PER_DAY)
        self.per_function_minute = KeyedBinnedCounts(60.0)
        self.minute_requests = BinnedSeries(60.0, track_sums=False)
        self.minute_exec = BinnedSeries(60.0)
        self.minute_cpu = BinnedSeries(60.0)
        self.day_cpu = BinnedSeries(_SECONDS_PER_DAY)
        self.intervals = PodIntervalAccumulator()
        # pod-side
        self.n_cold_starts = 0
        self.pod_ts_max: float = -math.inf
        self.per_function_cold = GroupedCounts()
        self.minute_pod = {name: BinnedSeries(60.0) for name in POD_METRICS}
        self.hour_pod = {name: BinnedSeries(3600.0) for name in POD_METRICS}
        self.component_sums = {name: StreamingMoments() for name in POD_METRICS}
        self.cold_log_moments = StreamingMoments()
        self.iat = GapTracker()
        # category histograms: (kind, category, metric) -> LogHistogram
        self.category_hists: dict[tuple[str, str, str], LogHistogram] = {}
        # per-pod cold-start durations for the exact Fig. 17 join
        self._pod_ids = np.zeros(0, dtype=np.int64)
        self._pod_cold_s = np.zeros(0, dtype=np.float64)
        self._pod_functions = np.zeros(0, dtype=np.int64)

    @classmethod
    def from_bundle(cls, bundle, chunk_s: float = 6 * 3600.0) -> "RegionAccumulator":
        """Reduce an in-memory bundle by streaming it chunk by chunk."""
        from repro.runtime.stream import iter_bundle_chunks

        acc = cls(bundle.region, functions=bundle.functions, meta=dict(bundle.meta))
        for chunk in iter_bundle_chunks(bundle, chunk_s=chunk_s):
            acc.update(chunk)
        return acc

    # -- category sketches ---------------------------------------------------

    def _hist(self, kind: str, category: str, metric: str) -> LogHistogram:
        key = (kind, category, metric)
        hist = self.category_hists.get(key)
        if hist is None:
            hist = self.category_hists[key] = LogHistogram()
        return hist

    # -- updates -------------------------------------------------------------

    def update(self, chunk=None, *, requests: RequestTable | None = None,
               pods: PodTable | None = None) -> "RegionAccumulator":
        """Fold one chunk (or raw request/pod tables) into the state."""
        if chunk is not None:
            requests = chunk.requests
            pods = chunk.pods
        if requests is not None and len(requests):
            self._update_requests(requests)
        if pods is not None and len(pods):
            self._update_pods(pods)
        return self

    def _update_requests(self, requests: RequestTable) -> None:
        ts = requests.timestamps_s
        ts_ms = requests["timestamp_ms"]
        self.n_requests += len(requests)
        lo, hi = int(ts_ms.min()), int(ts_ms.max())
        self.req_ts_ms_min = lo if self.req_ts_ms_min is None else min(self.req_ts_ms_min, lo)
        self.req_ts_ms_max = hi if self.req_ts_ms_max is None else max(self.req_ts_ms_max, hi)
        functions = requests["function"]
        users = requests["user"]
        minute, day = _time_bins(ts, 60.0), _time_bins(ts, _SECONDS_PER_DAY)
        uniques = sorted_unique(functions)
        inverse = np.searchsorted(uniques, functions)
        self.per_user.add(users)
        self.user_functions.add(users, functions)
        self.per_function_day._add_coded(uniques, inverse, day)
        self.per_function_minute._add_coded(uniques, inverse, minute)
        self.minute_requests.add(ts, bins=minute)
        self.minute_exec.add(ts, requests.exec_time_s, minute)
        cores = requests["cpu_millicores"] / 1000.0
        self.minute_cpu.add(ts, cores, minute)
        self.day_cpu.add(ts, cores, day)
        self.intervals.add(requests)

    def _update_pods(self, pods: PodTable) -> None:
        from repro.analysis.coldstart_stats import pod_metric_values

        ts = pods.timestamps_s
        self.n_cold_starts += len(pods)
        self.pod_ts_max = max(self.pod_ts_max, float(ts.max()))
        functions = pods["function"]
        self.per_function_cold.add(functions)
        metrics = pod_metric_values(pods)
        minute, hour = _time_bins(ts, 60.0), _time_bins(ts, 3600.0)
        for name, values in metrics.items():
            self.minute_pod[name].add(ts, values, minute)
            self.hour_pod[name].add(ts, values, hour)
            self.component_sums[name].add(values)
        cold_s = metrics["cold_start_s"]
        positive = cold_s[cold_s > 0]
        if positive.size:
            self.cold_log_moments.add(np.log(positive))
        self.iat.add(ts)
        # per-pod state for the Fig. 17 utility join
        order = np.argsort(pods["pod_id"])
        self._join_pods(pods["pod_id"][order], cold_s[order], functions[order])
        self._sketch_categories(functions, metrics)

    def _sketch_categories(self, function_ids: np.ndarray, metrics: dict) -> None:
        """Fold each metric into its per-category sketches. A metric drops
        its NaNs (dependency deployment: its non-positive values) and is
        binned once; a kind stable-sorts its codes once, so each category
        gets a contiguous slice with the elements, in order, of
        ``values[cats == c]`` (float sums agree). Sketches are created kind,
        metric, sorted category, all-NaN ones included."""
        from repro.analysis.composition import category_codes

        grid = LogHistogram()
        binned = {}
        for name, values in metrics.items():
            keep = values > 0 if name == "deploy_dep_us" else ~np.isnan(values)
            binned[name] = keep, grid._lattice_bins(values)
        for kind in ("runtime", "trigger", "size"):
            names, codes = category_codes(self.functions, function_ids, kind)
            order = np.argsort(codes, kind="stable")
            for name, values in metrics.items():
                keep, lattice = binned[name]
                rows = order[keep[order]]
                bounds = np.searchsorted(codes[rows], np.arange(names.size + 1))
                seen = codes[keep] if name == "deploy_dep_us" else codes
                sample, sample_bins = values[rows], lattice[rows]
                for code in np.flatnonzero(np.bincount(seen, minlength=names.size)):
                    at = slice(bounds[code], bounds[code + 1])
                    self._hist(kind, str(names[code]), name)._add_binned(
                        sample[at], sample_bins[at]
                    )
        for name, values in metrics.items():
            keep, lattice = binned[name]
            self._hist("all", "all", name)._add_binned(values[keep], lattice[keep])

    def _join_pods(self, *run: np.ndarray) -> None:
        """Fold a run of pods sorted by id into the sorted Fig. 17 join
        state: appended when it starts at or past the last id, else merged
        (ties keep the held pods first, as a stable sort would)."""
        held = (self._pod_ids, self._pod_cold_s, self._pod_functions)
        if held[0].size and run[0].size and run[0][0] < held[0][-1]:
            held_at, run_at = _merge_positions(held[0], run[0])
            merged = [np.empty(h.size + r.size, dtype=h.dtype) for h, r in zip(held, run)]
            for out, h, r in zip(merged, held, run):
                out[held_at], out[run_at] = h, r
        else:
            merged = [np.concatenate(pair) for pair in zip(held, run)]
        self._pod_ids, self._pod_cold_s, self._pod_functions = merged

    # -- merge ---------------------------------------------------------------

    def merge(self, other: "RegionAccumulator") -> "RegionAccumulator":
        if self.region != other.region:
            raise ValueError(
                f"cannot merge accumulators of regions {self.region!r} and "
                f"{other.region!r}"
            )
        get_telemetry().count("accumulators/merges")
        self.functions = dedupe_functions([self.functions, other.functions])
        if other.meta:
            merged_days = int(self.meta.get("days", 0)) + int(other.meta.get("days", 0))
            base = dict(other.meta)
            base.update(self.meta)
            base["days"] = merged_days if merged_days else base.get("days")
            base["start_day"] = min(
                int(self.meta.get("start_day", 0)), int(other.meta.get("start_day", 0))
            )
            self.meta = base
        self.n_requests += other.n_requests
        mins = [v for v in (self.req_ts_ms_min, other.req_ts_ms_min) if v is not None]
        maxs = [v for v in (self.req_ts_ms_max, other.req_ts_ms_max) if v is not None]
        self.req_ts_ms_min = min(mins) if mins else None
        self.req_ts_ms_max = max(maxs) if maxs else None
        self.per_user.merge(other.per_user)
        self.user_functions.merge(other.user_functions)
        self.per_function_day.merge(other.per_function_day)
        self.per_function_minute.merge(other.per_function_minute)
        self.minute_requests.merge(other.minute_requests)
        self.minute_exec.merge(other.minute_exec)
        self.minute_cpu.merge(other.minute_cpu)
        self.day_cpu.merge(other.day_cpu)
        self.intervals.merge(other.intervals)
        self.n_cold_starts += other.n_cold_starts
        self.pod_ts_max = max(self.pod_ts_max, other.pod_ts_max)
        self.per_function_cold.merge(other.per_function_cold)
        for name in POD_METRICS:
            self.minute_pod[name].merge(other.minute_pod[name])
            self.hour_pod[name].merge(other.hour_pod[name])
            self.component_sums[name].merge(other.component_sums[name])
        self.cold_log_moments.merge(other.cold_log_moments)
        self.iat.merge(other.iat)
        for key, hist in other.category_hists.items():
            mine_hist = self.category_hists.get(key)
            if mine_hist is None:
                self.category_hists[key] = hist
            else:
                mine_hist.merge(hist)
        self._join_pods(other._pod_ids, other._pod_cold_s, other._pod_functions)
        return self

    # -- figure data: the per-region interface the study reads ---------------

    @property
    def last_request_s(self) -> float:
        return (self.req_ts_ms_max or 0) / 1e3

    def span_days(self) -> float:
        """Equals ``RequestTable.span_days`` over the whole stream."""
        if self.req_ts_ms_max is None:
            return 0.0
        return float(self.req_ts_ms_max - self.req_ts_ms_min) / (1e3 * 86_400)

    def summary(self) -> dict[str, int]:
        """Equals :meth:`TraceBundle.summary` for the merged region."""
        return {
            "requests": self.n_requests,
            "cold_starts": self.n_cold_starts,
            "functions": len(self.functions),
            "pods": int(sorted_unique(self._pod_ids).size),
            "users": self.per_user.n_keys,
        }

    def day_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """(sorted function ids, median-day request counts), Fig. 3a's statistic."""
        if not self.n_requests:
            return np.zeros(0, dtype=np.int64), np.zeros(0)
        days = max(int(np.ceil(self.span_days())), 1)
        matrix = self.per_function_day.counts_matrix(days)
        return self.per_function_day.keys, np.median(matrix, axis=1)

    def minute_usage(self) -> tuple[Cdf, Cdf]:
        """CDFs over minutes of the mean execution time and CPU cores."""
        exec_means, cpu_means = self.minute_exec.means_until(), self.minute_cpu.means_until()
        return _nan_free_cdf(exec_means), _nan_free_cdf(cpu_means)

    def functions_per_user(self) -> Cdf:
        return empirical_cdf(self.user_functions.counts_per_first().astype(np.float64))

    def requests_per_user(self) -> Cdf:
        return empirical_cdf(self.per_user.counts.astype(np.float64))

    def request_counts(self, horizon_s: float) -> np.ndarray:
        """Requests per minute over ``[0, horizon_s)``."""
        return self.minute_requests.counts_until(horizon_s)

    def daily_cpu(self, horizon_s: float) -> np.ndarray:
        """Mean request CPU cores per day over ``[0, horizon_s)``."""
        return self.day_cpu.means_until(horizon_s)

    def function_requests(self) -> tuple[np.ndarray, np.ndarray]:
        """(sorted function ids, total requests of each)."""
        return self.per_function_day.keys, self.per_function_day.matrix.sum(axis=1)

    def function_minute_matrix(self, function_ids: np.ndarray) -> np.ndarray:
        """Per-minute requests of each function up to the last request's
        minute; rows follow ``function_ids``, the keys both keyed series
        are coded by."""
        n_bins = max(int(np.ceil((self.last_request_s + 60.0) / 60.0)), 1)
        return self.per_function_minute.counts_matrix(n_bins)

    def cold_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """(sorted function ids, cold starts of each)."""
        return self.per_function_cold.keys, self.per_function_cold.counts

    def pod_intervals(self):
        return self.intervals.finalize()

    def pod_join(self) -> tuple[np.ndarray, np.ndarray]:
        """(sorted pod ids, cold-start seconds) for the Fig. 17 join."""
        return self._pod_ids, self._pod_cold_s

    def pod_series(self, bin_s: float, horizon_s: float | None = None):
        """Cold starts per minute or hour bin and each pod metric's per-bin
        mean; the horizon defaults to the last cold start's bin."""
        series = {60.0: self.minute_pod, 3600.0: self.hour_pod}[bin_s]
        counts = series["cold_start_s"].counts_until(horizon_s)
        return counts, {name: s.means_until(horizon_s) for name, s in series.items()}

    def cold_start_cdf(self) -> Cdf:
        hist = self.category_hists.get(("all", "all", "cold_start_s"))
        return hist.cdf() if hist is not None else Cdf(np.zeros(0), np.zeros(0))

    def iat_cdf(self) -> Cdf:
        return self.iat.hist.cdf()

    def category_cdfs(self, by: str) -> dict[str, dict[str, Cdf]]:
        from repro.analysis.coldstart_stats import component_cdfs_from_hists

        return component_cdfs_from_hists(self.category_hists, by=by)

    def pool_quantiles(self) -> dict:
        from repro.analysis.coldstart_stats import pool_split_from_hists

        return pool_split_from_hists(self.category_hists)

    def component_means(self) -> dict[str, float]:
        """Mean seconds of each component, empty without pods."""
        if not self.n_cold_starts:
            return {}
        return {column: self.component_sums[column].mean for column in COMPONENT_COLUMNS}

    def component_medians(self) -> dict[str, float]:
        """Median seconds of each component to one sketch bin (dependency
        deployment's sketch skips zeros, so they are counted back in)."""
        out = {}
        for column in COMPONENT_COLUMNS:
            pooled = LogHistogram().merge(self.category_hists[("all", "all", column)])
            pooled.n_zero += self.component_sums[column].n - pooled.n
            out[column] = pooled.quantile(0.5)
        return out

    @classmethod
    def pooled_lognormal_fit(cls, regions):
        """Closed-form MLE from the regions' pooled log-moments (KS from
        the pooled sketch)."""
        from repro.core.fits import fit_lognormal_streaming

        n = sum(acc.cold_log_moments.n for acc in regions)
        sum_log = sum(acc.cold_log_moments.total for acc in regions)
        sumsq = sum(acc.cold_log_moments.total_sq for acc in regions)
        pooled = LogHistogram()
        for acc in regions:
            hist = acc.category_hists.get(("all", "all", "cold_start_s"))
            if hist is not None:
                pooled.merge(hist)
        return fit_lognormal_streaming(
            n, sum_log, sumsq, sample_cdf=pooled.cdf(include_zeros=False)
        )

    @classmethod
    def pooled_weibull_fit(cls, regions):
        """Weighted MLE over the regions' pooled IAT sketch (bin-width
        tolerance)."""
        from repro.core.fits import fit_weibull_weighted

        pooled = LogHistogram()
        for acc in regions:
            pooled.merge(acc.iat.hist)
        values, weights = pooled.positive_bin_values()
        return fit_weibull_weighted(
            values, weights, sample_cdf=pooled.cdf(include_zeros=False)
        )


def _nan_free_cdf(values: np.ndarray) -> Cdf:
    return empirical_cdf(values[~np.isnan(values)])
