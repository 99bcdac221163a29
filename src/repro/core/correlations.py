"""Spearman correlations between cold-start components (paper Fig. 12).

The paper aggregates component times into per-minute means across all
functions of a region, adds the per-minute number of cold starts, and
reports the Spearman rank correlation matrix, starring cells with p < 0.05.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special, stats

#: Matrix row/column order, matching the paper's figure.
CORRELATION_FIELDS = (
    "cold_start_time",
    "deploy_code_time",
    "deploy_dep_time",
    "scheduling_time",
    "pod_alloc_time",
    "num_cold_starts",
)

#: Matrix field -> pod component column.
FIELD_TO_COLUMN = {
    "deploy_code_time": "deploy_code_us",
    "deploy_dep_time": "deploy_dep_us",
    "scheduling_time": "scheduling_us",
    "pod_alloc_time": "pod_alloc_us",
}
_FIELD_TO_COLUMN = FIELD_TO_COLUMN


@dataclass
class CorrelationMatrix:
    """Spearman rho and p-values over the six per-minute series."""

    fields: tuple[str, ...]
    rho: np.ndarray
    pvalues: np.ndarray
    n_minutes: int

    def get(self, field_a: str, field_b: str) -> float:
        return float(self.rho[self.fields.index(field_a), self.fields.index(field_b)])

    def significant(self, alpha: float = 0.05) -> np.ndarray:
        """Boolean mask of cells with p below ``alpha`` (the paper's stars)."""
        return self.pvalues < alpha

    def rows(self) -> list[dict[str, object]]:
        """Printable rows: one per field, starred like the paper."""
        out = []
        significant = self.significant()
        for i, field in enumerate(self.fields):
            row: dict[str, object] = {"field": field}
            for j, other in enumerate(self.fields):
                star = "*" if significant[i, j] else ""
                row[other] = f"{self.rho[i, j]:+.1f}{star}"
            out.append(row)
        return out


def correlations_from_series(series: dict[str, np.ndarray]) -> CorrelationMatrix:
    """Spearman matrix over already-binned per-minute series.

    The finalizer of :meth:`~repro.core.study.Study.fig12_correlations`
    over either region-data adapter's minute bins.
    ``series`` must cover :data:`CORRELATION_FIELDS`, restricted to active
    (non-empty) minutes.

    Each series is ranked once; every pair then repeats
    :func:`scipy.stats.spearmanr`'s own arithmetic on the two rank vectors,
    so each cell is bit-identical to a pairwise ``spearmanr`` call. A pair
    with a constant or NaN-bearing series goes to ``spearmanr`` itself,
    which keeps its warning and NaN result.
    """
    n_fields = len(CORRELATION_FIELDS)
    rho = np.eye(n_fields)
    pvalues = np.zeros((n_fields, n_fields))
    n_minutes = int(next(iter(series.values())).size) if series else 0
    if n_minutes < 3:
        return CorrelationMatrix(CORRELATION_FIELDS, rho, np.ones((n_fields, n_fields)), n_minutes)
    ranks = [_ranks_or_none(series[field]) for field in CORRELATION_FIELDS]
    for i, field_a in enumerate(CORRELATION_FIELDS):
        for j in range(i + 1, n_fields):
            if ranks[i] is None or ranks[j] is None:
                result = stats.spearmanr(series[field_a], series[CORRELATION_FIELDS[j]])
                r, p = float(result.statistic), float(result.pvalue)
            else:
                r, p = _spearman_from_ranks(ranks[i], ranks[j], n_minutes - 2)
            rho[i, j] = rho[j, i] = r
            pvalues[i, j] = pvalues[j, i] = p
    return CorrelationMatrix(CORRELATION_FIELDS, rho, pvalues, n_minutes)


def _ranks_or_none(values: np.ndarray) -> np.ndarray | None:
    """Average ranks of ``values`` as ``spearmanr`` computes them (on the
    float64 column it stacks), or None for a constant or NaN-bearing one."""
    values = np.asarray(values, dtype=np.float64)
    if (values[0] == values).all() or np.isnan(values).any():
        return None
    return stats.rankdata(values)


def _spearman_from_ranks(ranks_a: np.ndarray, ranks_b: np.ndarray, dof: int) -> tuple[float, float]:
    """``spearmanr``'s rho and two-sided p from two precomputed rank vectors."""
    rs = np.corrcoef(np.column_stack((ranks_a, ranks_b)), rowvar=False)
    with np.errstate(divide="ignore"):
        t = rs * np.sqrt((dof / ((rs + 1.0) * (1.0 - rs))).clip(0))
    p = 2 * special.stdtr(dof, -np.abs(t))
    return float(rs[1, 0]), float(p[1, 0])
