"""Frozen pairwise Spearman matrix: the differential oracle for Fig. 12.

This is :func:`repro.core.correlations.correlations_from_series` as it was
before it ranked each series once: every upper-triangle pair is one
:func:`scipy.stats.spearmanr` call, which ranks both series again. It is
kept verbatim so the rank-once version can be checked byte for byte
against it. Do not optimise it.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from repro.core.correlations import CORRELATION_FIELDS, CorrelationMatrix


def correlations_oracle(series: dict[str, np.ndarray]) -> CorrelationMatrix:
    """Pairwise-``spearmanr`` Spearman matrix over per-minute series."""
    n_fields = len(CORRELATION_FIELDS)
    rho = np.eye(n_fields)
    pvalues = np.zeros((n_fields, n_fields))
    n_minutes = int(next(iter(series.values())).size) if series else 0
    if n_minutes < 3:
        return CorrelationMatrix(CORRELATION_FIELDS, rho, np.ones((n_fields, n_fields)), n_minutes)
    for i, field_a in enumerate(CORRELATION_FIELDS):
        for j, field_b in enumerate(CORRELATION_FIELDS):
            if j < i:
                rho[i, j] = rho[j, i]
                pvalues[i, j] = pvalues[j, i]
                continue
            if i == j:
                continue
            result = stats.spearmanr(series[field_a], series[field_b])
            rho[i, j] = float(result.statistic)
            pvalues[i, j] = float(result.pvalue)
    return CorrelationMatrix(CORRELATION_FIELDS, rho, pvalues, n_minutes)
