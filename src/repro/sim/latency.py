"""Cold-start component latency models.

A cold start in the paper's platform (Fig. 2) pays four measured components:

* **pod allocation** — a *staged* pool search: hit the local pool (fast),
  expand the search (slower), or create a pod from scratch (slowest). The
  stages produce the multimodal allocation distributions of Fig. 13b, and
  deeper stages are more likely for large pods and under congestion.
  Custom runtimes have no reserved pool, so they always pay from-scratch
  creation (paper §4.4: medians above 10 s); http runtimes additionally
  boot an HTTP server.
* **deploy code** — download/extract/deploy of the compressed function
  package; scales sublinearly with package size and is slower in large pods.
* **deploy dependencies** — zero for functions without layers; otherwise
  scales with layer size, slower in large pods (Fig. 13d).
* **scheduling** — networking/routing/scheduling overhead; on average the
  largest component for default runtimes (Fig. 15e) and the one most
  correlated with the number of concurrent cold starts (Fig. 12).

Congestion coupling: every component median can be scaled by
``1 + gain * congestion`` where ``congestion`` is the region-wide per-minute
cold-start intensity normalised to its mean. This reproduces both the
time-of-day oscillation of components (Fig. 11) and the positive Spearman
correlations with the number of cold starts (Fig. 12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.workload.catalog import Runtime

#: Reference sizes for the sublinear size scaling of the deploy components.
_REF_CODE_MB = 5.0
_REF_DEP_MB = 20.0
_SIZE_EXPONENT = 0.7


@dataclass(frozen=True)
class LatencyRegime:
    """Per-region cold-start latency regime.

    Medians are seconds for a small pod of a default runtime at zero
    congestion. ``deep_search_p2``/``p3`` are the probabilities that the
    staged pool search expands to stage 2 / stage 3 for small pods; large
    pods expand roughly twice as often (Fig. 13b: deeper stages for larger
    pools, consistently across regions).
    """

    alloc_median_s: float
    alloc_sigma: float
    deep_search_p2: float
    deep_search_p3: float
    stage2_median_s: float
    stage3_median_s: float
    code_median_s: float
    code_sigma: float
    dep_median_s: float
    dep_sigma: float
    sched_median_s: float
    sched_sigma: float
    congestion_gain_alloc: float = 0.0
    congestion_gain_code: float = 0.0
    congestion_gain_dep: float = 0.0
    congestion_gain_sched: float = 0.0
    large_pod_alloc_factor: float = 2.0
    large_pod_deploy_factor: float = 2.5
    large_pod_sched_factor: float = 1.3
    large_pod_stage_factor: float = 2.0
    custom_alloc_median_s: float = 12.0
    http_boot_median_s: float = 10.0

    def __post_init__(self) -> None:
        for name in (
            "alloc_median_s", "stage2_median_s", "stage3_median_s",
            "code_median_s", "dep_median_s", "sched_median_s",
            "custom_alloc_median_s", "http_boot_median_s",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 <= self.deep_search_p2 <= 1 or not 0 <= self.deep_search_p3 <= 1:
            raise ValueError("stage probabilities must be in [0, 1]")
        if self.deep_search_p2 + self.deep_search_p3 > 1:
            raise ValueError("stage probabilities must sum to <= 1")


#: Per-runtime multipliers (alloc, code, dep, sched) shaping Fig. 15:
#: Go pays heavy code+dependency deployment; Node.js is scheduling-bound;
#: Java's managed runtime inflates allocation and code deploy; Custom and
#: http are handled structurally (no pool / server boot) rather than here.
RUNTIME_FACTORS: dict[Runtime, tuple[float, float, float, float]] = {
    Runtime.CSHARP: (1.1, 1.2, 1.1, 1.0),
    Runtime.CUSTOM: (1.0, 0.8, 0.8, 0.9),
    Runtime.GO: (0.8, 4.2, 3.6, 0.55),
    Runtime.JAVA: (1.4, 1.6, 1.0, 1.1),
    Runtime.NODEJS: (0.9, 0.9, 1.0, 1.5),
    Runtime.PHP: (1.0, 1.0, 1.0, 1.0),
    Runtime.PYTHON2: (1.0, 1.0, 1.1, 0.95),
    Runtime.PYTHON3: (0.9, 0.9, 1.0, 0.9),
    Runtime.HTTP: (1.0, 1.0, 0.9, 1.0),
    Runtime.UNKNOWN: (1.0, 1.0, 1.0, 1.0),
}

#: Stable integer codes for vectorised runtime dispatch.
RUNTIME_CODES: dict[Runtime, int] = {rt: i for i, rt in enumerate(RUNTIME_FACTORS)}
_CODE_TO_RUNTIME: tuple[Runtime, ...] = tuple(RUNTIME_FACTORS)
_FACTOR_TABLE = np.array([RUNTIME_FACTORS[rt] for rt in _CODE_TO_RUNTIME])
_CUSTOM_CODE = RUNTIME_CODES[Runtime.CUSTOM]
_HTTP_CODE = RUNTIME_CODES[Runtime.HTTP]


def runtime_code(runtime: Runtime) -> int:
    """Integer code of a runtime for vectorised sampling."""
    return RUNTIME_CODES[runtime]


def _lognormal(
    rng: np.random.Generator, median: np.ndarray, sigma: float | np.ndarray, size: int
) -> np.ndarray:
    """Lognormal with the given median (exp(mu)) and log-space sigma."""
    return np.exp(rng.normal(np.log(median), sigma, size=size))


@dataclass
class ComponentParams:
    """Inputs describing one batch of cold starts to be priced."""

    runtime_codes: np.ndarray
    is_large: np.ndarray
    has_deps: np.ndarray
    code_size_mb: np.ndarray
    dep_size_mb: np.ndarray
    congestion: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.runtime_codes)
        for name in ("is_large", "has_deps", "code_size_mb", "dep_size_mb", "congestion"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length mismatch ({len(getattr(self, name))} != {n})")

    def __len__(self) -> int:
        return len(self.runtime_codes)


class LatencyModel:
    """Samples the four cold-start components for batches of cold starts."""

    def __init__(self, regime: LatencyRegime, rng: np.random.Generator):
        self.regime = regime
        self._rng = rng

    # -- individual components ----------------------------------------------

    def sample_pod_alloc(self, params: ComponentParams) -> np.ndarray:
        """Pod allocation time: staged pool search / from-scratch / boot."""
        regime = self.regime
        n = len(params)
        rng = self._rng
        alloc_factor = _FACTOR_TABLE[params.runtime_codes, 0]
        congest = 1.0 + regime.congestion_gain_alloc * params.congestion

        # Staged search for pool-backed runtimes. Escalation probabilities
        # are capped so that even a large pod cold-starting at peak
        # congestion keeps the *majority* of its allocations in stage 1 —
        # the paper's Fig. 13b shows deeper stages as a multimodal minority,
        # never the common case.
        stage_boost = np.where(params.is_large, regime.large_pod_stage_factor, 1.0)
        stage_boost = stage_boost * (1.0 + 0.5 * regime.congestion_gain_alloc * params.congestion)
        p3 = np.clip(regime.deep_search_p3 * stage_boost, 0.0, 0.18)
        p2 = np.clip(regime.deep_search_p2 * stage_boost, 0.0, 0.45 - p3)
        u = rng.random(n)
        stage3 = u < p3
        stage2 = (~stage3) & (u < p3 + p2)

        median = np.full(n, regime.alloc_median_s)
        median = np.where(stage2, regime.stage2_median_s, median)
        median = np.where(stage3, regime.stage3_median_s, median)
        median = median * np.where(params.is_large, regime.large_pod_alloc_factor, 1.0)
        median = median * alloc_factor * congest
        out = _lognormal(rng, median, regime.alloc_sigma, n)

        # Custom images: no reserved pool, always created from scratch. The
        # from-scratch path does not compete for pool capacity, so it is not
        # congestion-scaled (§4.4: pod allocation accounts for nearly the
        # entire cold start, independent of platform load).
        is_custom = params.runtime_codes == _CUSTOM_CODE
        if is_custom.any():
            out[is_custom] = _lognormal(
                rng,
                np.full(int(is_custom.sum()), regime.custom_alloc_median_s),
                0.5,
                int(is_custom.sum()),
            )
        # http runtimes boot an HTTP server inside the pod during allocation;
        # the boot is pod-local work, also independent of pool congestion.
        is_http = params.runtime_codes == _HTTP_CODE
        if is_http.any():
            out[is_http] = out[is_http] + _lognormal(
                rng,
                np.full(int(is_http.sum()), regime.http_boot_median_s),
                0.4,
                int(is_http.sum()),
            )
        return out

    def sample_deploy_code(self, params: ComponentParams) -> np.ndarray:
        """Code deployment time; sublinear in package size."""
        regime = self.regime
        size_scale = (np.maximum(params.code_size_mb, 0.1) / _REF_CODE_MB) ** _SIZE_EXPONENT
        median = regime.code_median_s * size_scale
        median = median * _FACTOR_TABLE[params.runtime_codes, 1]
        median = median * np.where(params.is_large, regime.large_pod_deploy_factor, 1.0)
        median = median * (1.0 + regime.congestion_gain_code * params.congestion)
        return _lognormal(self._rng, median, regime.code_sigma, len(params))

    def sample_deploy_dep(self, params: ComponentParams) -> np.ndarray:
        """Dependency deployment; exactly zero for functions without layers."""
        regime = self.regime
        n = len(params)
        size_scale = (np.maximum(params.dep_size_mb, 0.5) / _REF_DEP_MB) ** _SIZE_EXPONENT
        median = regime.dep_median_s * size_scale
        median = median * _FACTOR_TABLE[params.runtime_codes, 2]
        median = median * np.where(params.is_large, regime.large_pod_deploy_factor, 1.0)
        median = median * (1.0 + regime.congestion_gain_dep * params.congestion)
        out = _lognormal(self._rng, median, regime.dep_sigma, n)
        return np.where(params.has_deps, out, 0.0)

    def sample_scheduling(self, params: ComponentParams) -> np.ndarray:
        """Scheduling / routing / networking overhead."""
        regime = self.regime
        median = np.full(len(params), regime.sched_median_s)
        median = median * _FACTOR_TABLE[params.runtime_codes, 3]
        median = median * np.where(params.is_large, regime.large_pod_sched_factor, 1.0)
        median = median * (1.0 + regime.congestion_gain_sched * params.congestion)
        return _lognormal(self._rng, median, regime.sched_sigma, len(params))

    # -- full cold start -----------------------------------------------------

    def sample_components(self, params: ComponentParams) -> dict[str, np.ndarray]:
        """All four components plus the total, in seconds.

        The total includes a small unattributed residual (1–5 %), matching
        production logging where component times are measured independently
        and do not sum exactly to the total.
        """
        alloc = self.sample_pod_alloc(params)
        code = self.sample_deploy_code(params)
        dep = self.sample_deploy_dep(params)
        sched = self.sample_scheduling(params)
        parts = alloc + code + dep + sched
        residual = parts * self._rng.uniform(0.01, 0.05, size=len(params))
        return {
            "pod_alloc_s": alloc,
            "deploy_code_s": code,
            "deploy_dep_s": dep,
            "scheduling_s": sched,
            "total_s": parts + residual,
        }

    def sample_one(
        self,
        runtime: Runtime,
        is_large: bool,
        has_deps: bool,
        code_size_mb: float = _REF_CODE_MB,
        dep_size_mb: float = _REF_DEP_MB,
        congestion: float = 0.0,
    ) -> dict[str, float]:
        """Scalar convenience: one cold start's component durations."""
        params = ComponentParams(
            runtime_codes=np.array([runtime_code(runtime)]),
            is_large=np.array([is_large]),
            has_deps=np.array([has_deps]),
            code_size_mb=np.array([code_size_mb]),
            dep_size_mb=np.array([dep_size_mb]),
            congestion=np.array([float(congestion)]),
        )
        batch = self.sample_components(params)
        return {key: float(val[0]) for key, val in batch.items()}

    def function_sampler(
        self,
        runtime: Runtime,
        is_large: bool,
        has_deps: bool,
        code_size_mb: float,
        dep_size_mb: float,
        rng: np.random.Generator,
    ) -> "FunctionColdSampler":
        """A per-function cold-start sampler over a dedicated stream.

        See :class:`FunctionColdSampler`: this is how the replay engines
        decouple each function's latency draws from global replay order.
        """
        return FunctionColdSampler(
            self, runtime, is_large, has_deps, code_size_mb, dep_size_mb, rng
        )


class FunctionColdSampler:
    """Pre-drawn cold-start totals for *one* function, consumed in order.

    The replay engines (:mod:`repro.mitigation.evaluator`) price the k-th
    cold start of a function from this sampler's k-th draw. All random
    variates come from a dedicated per-function stream and are materialised
    in geometrically-growing blocks up front, so the sample a cold start
    receives depends only on ``(function stream, k, congestion)`` — never on
    how cold starts of *different* functions interleave in time. That is the
    property that lets the vectorized and the event-driven engine produce
    bit-identical metrics.

    Draw layout per block (fixed per function, so rewinding is exact):
    ``u_stage, z_alloc, [z_custom], [z_http], z_code, z_dep, z_sched,
    u_residual`` — the same variates :meth:`LatencyModel.sample_components`
    consumes, minus the ones a function's fixed attributes make dead. Each
    block is transformed once, vectorized, into the congestion-independent
    factors ``exp(log_median + sigma * z)`` per component (congestion
    scales a component's *median*, i.e. multiplies the lognormal value),
    so pricing draw ``k`` at a given congestion costs a handful of scalar
    multiplies.

    ``peek_totals`` prices draws *without* consuming them (the vector
    engine speculates on "every remaining arrival is cold" and accepts a
    prefix); ``advance``/``reset`` move the cursor. Every engine — whatever
    batch shape it asks in — runs the identical float operations per draw.
    """

    _FIRST_BLOCK = 64

    def __init__(
        self,
        model: "LatencyModel",
        runtime: Runtime,
        is_large: bool,
        has_deps: bool,
        code_size_mb: float,
        dep_size_mb: float,
        rng: np.random.Generator,
    ):
        regime = model.regime
        self._rng = rng
        self._cursor = 0
        self._capacity = 0
        code = runtime_code(runtime)
        self._is_custom = code == _CUSTOM_CODE
        self._is_http = code == _HTTP_CODE
        self._has_deps = bool(has_deps)
        af, cf, df, sf = (float(x) for x in _FACTOR_TABLE[code])

        large_alloc = regime.large_pod_alloc_factor if is_large else 1.0
        large_deploy = regime.large_pod_deploy_factor if is_large else 1.0
        large_sched = regime.large_pod_sched_factor if is_large else 1.0
        self._stage_boost = regime.large_pod_stage_factor if is_large else 1.0
        self._p2_base = regime.deep_search_p2
        self._p3_base = regime.deep_search_p3
        self._gain_alloc = regime.congestion_gain_alloc
        self._gain_code = regime.congestion_gain_code
        self._gain_dep = regime.congestion_gain_dep
        self._gain_sched = regime.congestion_gain_sched
        # Log-medians of the three allocation stages at zero congestion.
        base = math.log(af * large_alloc)
        self._log_m1 = math.log(regime.alloc_median_s) + base
        self._log_m2 = math.log(regime.stage2_median_s) + base
        self._log_m3 = math.log(regime.stage3_median_s) + base
        self._sig_a = regime.alloc_sigma
        self._log_custom = math.log(regime.custom_alloc_median_s)
        self._log_http = math.log(regime.http_boot_median_s)

        code_scale = (max(code_size_mb, 0.1) / _REF_CODE_MB) ** _SIZE_EXPONENT
        dep_scale = (max(dep_size_mb, 0.5) / _REF_DEP_MB) ** _SIZE_EXPONENT
        self._log_code = math.log(regime.code_median_s * code_scale * cf * large_deploy)
        self._sig_c = regime.code_sigma
        self._log_dep = math.log(regime.dep_median_s * dep_scale * df * large_deploy)
        self._sig_d = regime.dep_sigma
        self._log_sched = math.log(regime.sched_median_s * sf * large_sched)
        self._sig_s = regime.sched_sigma

        # Per-draw factors at zero congestion, kept twice: plain float
        # lists for the scalar one-at-a-time path and (lazily rebuilt)
        # numpy arrays for batch pricing. Allocation keeps one factor per
        # search stage because the stage choice is congestion-dependent.
        self._u_stage: list[float] = []
        self._alloc1: list[float] = []
        self._alloc2: list[float] = []
        self._alloc3: list[float] = []
        self._custom: list[float] = []
        self._http: list[float] = []
        self._code: list[float] = []
        self._dep: list[float] = []
        self._sched: list[float] = []
        self._res: list[float] = []
        self._np_cache: dict[str, np.ndarray] = {}

        # Zero-congestion stage thresholds (the common case).
        p3z = min(self._p3_base * self._stage_boost, 0.18)
        self._p3_zero = p3z
        self._p2_zero = min(self._p2_base * self._stage_boost, 0.45 - p3z)

    @property
    def cursor(self) -> int:
        """Index of the next unconsumed draw (== cold starts taken so far)."""
        return self._cursor

    def _ensure(self, n: int) -> None:
        while self._capacity < n:
            m = max(self._FIRST_BLOCK, self._capacity)
            rng = self._rng
            self._u_stage.extend(rng.random(m).tolist())
            z_alloc = rng.standard_normal(m)
            if self._is_custom:
                self._custom.extend(
                    np.exp(self._log_custom + 0.5 * rng.standard_normal(m)).tolist()
                )
            else:
                scaled = self._sig_a * z_alloc
                self._alloc1.extend(np.exp(self._log_m1 + scaled).tolist())
                self._alloc2.extend(np.exp(self._log_m2 + scaled).tolist())
                self._alloc3.extend(np.exp(self._log_m3 + scaled).tolist())
            if self._is_http:
                self._http.extend(
                    np.exp(self._log_http + 0.4 * rng.standard_normal(m)).tolist()
                )
            self._code.extend(
                np.exp(self._log_code + self._sig_c * rng.standard_normal(m)).tolist()
            )
            z_dep = rng.standard_normal(m)
            if self._has_deps:
                self._dep.extend(np.exp(self._log_dep + self._sig_d * z_dep).tolist())
            self._sched.extend(
                np.exp(self._log_sched + self._sig_s * rng.standard_normal(m)).tolist()
            )
            self._res.extend((1.0 + (0.01 + 0.04 * rng.random(m))).tolist())
            self._capacity += m
            self._np_cache.clear()

    def _np(self, name: str) -> np.ndarray:
        """Numpy view of a factor column (rebuilt after block growth)."""
        arr = self._np_cache.get(name)
        if arr is None:
            arr = self._np_cache[name] = np.asarray(
                getattr(self, name), dtype=np.float64
            )
        return arr

    def _total(self, k: int, congestion: float) -> float:
        """Total cold-start seconds of draw ``k`` at ``congestion``.

        Congestion scales each component's lognormal multiplicatively
        (it scales the median) and shifts the stage-escalation thresholds.
        """
        if congestion == 0.0:
            if self._is_custom:
                alloc = self._custom[k]
            else:
                u = self._u_stage[k]
                p3 = self._p3_zero
                if u < p3:
                    alloc = self._alloc3[k]
                elif u < p3 + self._p2_zero:
                    alloc = self._alloc2[k]
                else:
                    alloc = self._alloc1[k]
            if self._is_http:
                alloc += self._http[k]
            parts = alloc + self._code[k] + (
                self._dep[k] if self._has_deps else 0.0
            ) + self._sched[k]
            return parts * self._res[k]
        if self._is_custom:
            # From-scratch creation: no pool search, no congestion scaling.
            alloc = self._custom[k]
        else:
            ga = self._gain_alloc
            boost = self._stage_boost * (1.0 + 0.5 * ga * congestion)
            p3 = min(self._p3_base * boost, 0.18)
            p2 = min(self._p2_base * boost, 0.45 - p3)
            u = self._u_stage[k]
            if u < p3:
                alloc = self._alloc3[k]
            elif u < p3 + p2:
                alloc = self._alloc2[k]
            else:
                alloc = self._alloc1[k]
            alloc = alloc * (1.0 + ga * congestion)
        if self._is_http:
            alloc += self._http[k]
        code = self._code[k] * (1.0 + self._gain_code * congestion)
        dep = (
            self._dep[k] * (1.0 + self._gain_dep * congestion)
            if self._has_deps
            else 0.0
        )
        sched = self._sched[k] * (1.0 + self._gain_sched * congestion)
        parts = alloc + code + dep + sched
        return parts * self._res[k]

    def peek_totals(self, congestion: np.ndarray) -> np.ndarray:
        """Totals for the next ``len(congestion)`` draws; cursor unmoved.

        Vectorized, and bit-identical to pricing each draw through
        :meth:`_total`: with the lognormal factors precomputed per block,
        pricing is exact-rounded arithmetic only (picks, multiplies,
        adds), which numpy evaluates element-wise exactly like the scalar
        path.
        """
        c = np.asarray(congestion, dtype=np.float64)
        start = self._cursor
        self._ensure(start + c.size)
        sl = slice(start, start + c.size)
        if self._is_custom:
            alloc = self._np("_custom")[sl]
        else:
            ga = self._gain_alloc
            boost = self._stage_boost * (1.0 + 0.5 * ga * c)
            p3 = np.minimum(self._p3_base * boost, 0.18)
            p2 = np.minimum(self._p2_base * boost, 0.45 - p3)
            u = self._np("_u_stage")[sl]
            alloc = np.where(
                u < p3,
                self._np("_alloc3")[sl],
                np.where(u < p3 + p2, self._np("_alloc2")[sl], self._np("_alloc1")[sl]),
            )
            alloc = alloc * (1.0 + ga * c)
        if self._is_http:
            alloc = alloc + self._np("_http")[sl]
        parts = alloc + self._np("_code")[sl] * (1.0 + self._gain_code * c)
        if self._has_deps:
            parts = parts + self._np("_dep")[sl] * (1.0 + self._gain_dep * c)
        parts = parts + self._np("_sched")[sl] * (1.0 + self._gain_sched * c)
        return parts * self._np("_res")[sl]

    def zero_cols(self, n: int) -> tuple[list, np.ndarray]:
        """Zero-congestion totals for draws ``[0, capacity)``; cursor unmoved.

        Returns the same column twice — as a plain list (fast scalar
        indexing) and as the ndarray it came from (fast slicing) — grown
        to cover at least ``n`` draws. Zero congestion makes every draw's
        price independent of replay state, so the whole column can be
        materialised once per capacity block and indexed by cursor: the
        element-wise arithmetic mirrors :meth:`_total` operation for
        operation, hence bit-identical totals.
        """
        self._ensure(n)
        arr = self._np_cache.get("_ztot")
        if arr is None:
            if self._is_custom:
                alloc = self._np("_custom")
            else:
                u = self._np("_u_stage")
                p3 = self._p3_zero
                alloc = np.where(
                    u < p3,
                    self._np("_alloc3"),
                    np.where(
                        u < p3 + self._p2_zero,
                        self._np("_alloc2"),
                        self._np("_alloc1"),
                    ),
                )
            if self._is_http:
                alloc = alloc + self._np("_http")
            parts = alloc + self._np("_code")
            if self._has_deps:
                parts = parts + self._np("_dep")
            parts = parts + self._np("_sched")
            arr = self._np_cache["_ztot"] = parts * self._np("_res")
            self._np_cache["_ztot_list"] = arr.tolist()
        return self._np_cache["_ztot_list"], arr

    def advance(self, n: int) -> None:
        """Consume ``n`` draws (they were accepted by the caller)."""
        self._cursor += n

    def next_total(self, congestion: float) -> float:
        """Price and consume one cold start."""
        k = self._cursor
        if k >= self._capacity:
            self._ensure(k + 1)
        self._cursor = k + 1
        return self._total(k, congestion)

    def reset(self) -> None:
        """Rewind to draw 0 (already-materialised blocks replay verbatim)."""
        self._cursor = 0

