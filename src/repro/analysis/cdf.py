"""Empirical CDFs — the paper's workhorse plot type."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Cdf:
    """An empirical CDF: sorted support values and cumulative probabilities."""

    values: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != self.probabilities.shape:
            raise ValueError("values and probabilities must align")

    @property
    def n(self) -> int:
        return int(self.values.size)

    def quantile(self, q: float) -> float:
        """Value at cumulative probability ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.n == 0:
            return float("nan")
        idx = int(np.searchsorted(self.probabilities, q, side="left"))
        return float(self.values[min(idx, self.n - 1)])

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    def at(self, x: float) -> float:
        """P(X <= x)."""
        if self.n == 0:
            return float("nan")
        idx = int(np.searchsorted(self.values, x, side="right"))
        if idx == 0:
            return 0.0
        return float(self.probabilities[idx - 1])

    def sample_points(self, n_points: int = 50, log: bool = True) -> list[tuple[float, float]]:
        """Downsampled (value, probability) pairs for printing a series."""
        if self.n == 0:
            return []
        positive = self.values[self.values > 0]
        if log and positive.size:
            grid = log_grid(float(positive.min()), float(self.values.max()), n_points)
        else:
            grid = np.linspace(float(self.values.min()), float(self.values.max()), n_points)
        return [(float(x), self.at(float(x))) for x in grid]


def cdf_from_counts(values: np.ndarray, counts: np.ndarray) -> Cdf:
    """Build a CDF from sorted (value, count) pairs.

    The finalizer for binned sketches (:class:`~repro.analysis.accumulators
    .LogHistogram`): probabilities are exact, support values carry the
    sketch's one-bin quantisation.
    """
    values = np.asarray(values, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    if values.shape != counts.shape:
        raise ValueError("values and counts must align")
    if np.any(np.diff(values) < 0):
        raise ValueError("values must be sorted ascending")
    total = counts.sum()
    if total <= 0:
        return Cdf(np.zeros(0), np.zeros(0))
    return Cdf(values, np.cumsum(counts) / total)


def empirical_cdf(values: np.ndarray) -> Cdf:
    """Build the empirical CDF of ``values`` (NaNs dropped)."""
    values = np.asarray(values, dtype=np.float64)
    values = values[~np.isnan(values)]
    if values.size == 0:
        return Cdf(np.zeros(0), np.zeros(0))
    sorted_vals = np.sort(values)
    probs = np.arange(1, sorted_vals.size + 1, dtype=np.float64) / sorted_vals.size
    return Cdf(sorted_vals, probs)


def log_grid(lo: float, hi: float, n: int = 50) -> np.ndarray:
    """Logarithmically-spaced grid like the paper's log-x CDF axes."""
    if lo <= 0:
        raise ValueError("log grid needs lo > 0")
    if hi < lo:
        raise ValueError("hi must be >= lo")
    if hi == lo:
        return np.full(n, lo)
    return np.logspace(np.log10(lo), np.log10(hi), n)


def quantiles(values: np.ndarray, qs=(0.25, 0.5, 0.75)) -> dict[float, float]:
    """Named quantiles (violin-plot style summaries, Fig. 13)."""
    values = np.asarray(values, dtype=np.float64)
    values = values[~np.isnan(values)]
    if values.size == 0:
        return {float(q): float("nan") for q in qs}
    results = np.quantile(values, list(qs))
    return {float(q): float(v) for q, v in zip(qs, results)}
