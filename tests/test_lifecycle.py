"""Keep-alive lifecycle reconstruction — the cold-start ground truth."""

import numpy as np
import pytest

from repro.cluster.lifecycle import (
    DEFAULT_KEEPALIVE_S,
    MAX_PODS_PER_FUNCTION,
    FixedKeepAlive,
    PodLifecycle,
    peak_inflight,
    reconstruct_function_pods,
)


class TestPeakInflight:
    def test_disjoint_requests(self):
        arrivals = np.array([0.0, 10.0, 20.0])
        execs = np.array([1.0, 1.0, 1.0])
        assert peak_inflight(arrivals, execs) == 1

    def test_full_overlap(self):
        arrivals = np.array([0.0, 0.1, 0.2])
        execs = np.array([10.0, 10.0, 10.0])
        assert peak_inflight(arrivals, execs) == 3

    def test_back_to_back_no_overlap(self):
        # Request ends exactly when the next starts: slot is reusable.
        arrivals = np.array([0.0, 1.0])
        execs = np.array([1.0, 1.0])
        assert peak_inflight(arrivals, execs) == 1

    def test_empty(self):
        assert peak_inflight(np.zeros(0), np.zeros(0)) == 0


class TestSequentialRegime:
    def test_single_request_single_pod(self):
        life = reconstruct_function_pods(np.array([5.0]), np.array([0.5]))
        assert life.n_pods == 1
        assert life.pod_start_ts[0] == 5.0
        assert life.pod_useful_s[0] == pytest.approx(0.5)
        assert life.request_pod.tolist() == [0]

    def test_gap_rule_exact(self):
        # Gaps: 30 (warm), 61 (cold), 59 (warm) with keepalive 60.
        arrivals = np.array([0.0, 30.0, 91.0, 150.0])
        execs = np.full(4, 0.01)
        life = reconstruct_function_pods(arrivals, execs, keepalive_s=60.0)
        assert life.n_pods == 2
        assert life.pod_n_requests.tolist() == [2, 2]
        assert life.request_pod.tolist() == [0, 0, 1, 1]

    def test_gap_exactly_keepalive_stays_warm(self):
        arrivals = np.array([0.0, 60.0])
        life = reconstruct_function_pods(arrivals, np.full(2, 0.01), keepalive_s=60.0)
        assert life.n_pods == 1

    def test_useful_lifetime_spans_requests(self):
        arrivals = np.array([0.0, 50.0])
        execs = np.array([1.0, 2.0])
        life = reconstruct_function_pods(arrivals, execs)
        assert life.pod_useful_s[0] == pytest.approx(52.0)

    def test_total_lifetime_adds_keepalive(self):
        life = reconstruct_function_pods(np.array([0.0]), np.array([1.0]))
        assert life.total_lifetime_s(60.0)[0] == pytest.approx(61.0)

    def test_timer_like_every_firing_cold(self):
        period = 120.0
        arrivals = np.arange(0, 3600, period)
        life = reconstruct_function_pods(arrivals, np.full(arrivals.size, 0.01))
        assert life.n_pods == arrivals.size  # period > keepalive

    def test_high_rate_single_pod(self):
        arrivals = np.arange(0, 600, 10.0)  # every 10 s, exec 10 ms
        life = reconstruct_function_pods(arrivals, np.full(arrivals.size, 0.01))
        assert life.n_pods == 1
        assert life.pod_n_requests[0] == arrivals.size


class TestAutoscaledRegime:
    def test_overlapping_requests_need_multiple_pods(self):
        # Five simultaneous long requests with concurrency 1.
        arrivals = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
        execs = np.full(5, 100.0)
        life = reconstruct_function_pods(arrivals, execs, concurrency=1)
        assert life.n_pods >= 2
        assert life.n_requests == 5

    def test_concurrency_absorbs_overlap(self):
        arrivals = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
        execs = np.full(5, 100.0)
        life = reconstruct_function_pods(arrivals, execs, concurrency=8)
        assert life.n_pods == 1

    def test_request_assignment_covers_all(self):
        rng = np.random.default_rng(3)
        arrivals = np.sort(rng.uniform(0, 1800, size=400))
        execs = rng.uniform(5.0, 30.0, size=400)
        life = reconstruct_function_pods(arrivals, execs, concurrency=2)
        assert life.request_pod.shape == arrivals.shape
        assert life.request_pod.min() >= 0
        assert life.request_pod.max() == life.n_pods - 1
        assert life.pod_n_requests.sum() == 400

    def test_pod_counts_match_bincount(self):
        rng = np.random.default_rng(4)
        arrivals = np.sort(rng.uniform(0, 3600, size=300))
        execs = np.full(300, 45.0)
        life = reconstruct_function_pods(arrivals, execs)
        counts = np.bincount(life.request_pod, minlength=life.n_pods)
        assert (counts == life.pod_n_requests).all()

    def test_scale_down_and_up_causes_new_pods(self):
        # Burst, then 10 minutes of silence, then another burst.
        burst1 = np.linspace(0, 30, 50)
        burst2 = np.linspace(900, 930, 50)
        arrivals = np.concatenate([burst1, burst2])
        execs = np.full(100, 20.0)
        life = reconstruct_function_pods(arrivals, execs)
        pods_in_burst2 = (life.pod_start_ts >= 890).sum()
        assert pods_in_burst2 >= 1  # silence killed the fleet

    def test_pod_starts_sorted(self):
        rng = np.random.default_rng(5)
        arrivals = np.sort(rng.uniform(0, 7200, size=500))
        execs = rng.uniform(10, 60, size=500)
        life = reconstruct_function_pods(arrivals, execs)
        assert (np.diff(life.pod_start_ts) >= 0).all()


class TestPodBound:
    @pytest.mark.parametrize("concurrency", [1, 2])
    def test_window_demand_clips_at_max_pods(self, concurrency):
        # Every request keeps a pod busy for the whole minute, so the window
        # asks for 100 more pods than the bound allows.
        n = (MAX_PODS_PER_FUNCTION + 100) * concurrency
        arrivals = np.linspace(0.0, 59.0, n)
        life = reconstruct_function_pods(
            arrivals, np.full(n, 60.0), concurrency=concurrency
        )
        assert life.n_pods == MAX_PODS_PER_FUNCTION
        assert life.pod_n_requests.sum() == n
        # Round-robin over the clipped slots: loads differ by at most one.
        assert np.ptp(life.pod_n_requests) <= 1
        assert (life.pod_start_ts == arrivals[:MAX_PODS_PER_FUNCTION]).all()


class TestValidation:
    def test_empty_input(self):
        life = reconstruct_function_pods(np.zeros(0), np.zeros(0))
        assert life.n_pods == 0
        assert life.n_requests == 0

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            reconstruct_function_pods(np.array([2.0, 1.0]), np.array([0.1, 0.1]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            reconstruct_function_pods(np.array([1.0]), np.array([0.1, 0.2]))

    def test_bad_keepalive_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_function_pods(np.array([1.0]), np.array([0.1]), keepalive_s=0)

    def test_bad_concurrency_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_function_pods(np.array([1.0]), np.array([0.1]), concurrency=0)

    def test_empty_lifecycle_factory(self):
        life = PodLifecycle.empty()
        assert life.n_pods == 0


class TestKeepAliveSensitivity:
    """Longer keep-alive => never more pods (monotonicity)."""

    def test_monotone_in_keepalive(self):
        rng = np.random.default_rng(11)
        arrivals = np.sort(rng.uniform(0, 86_400, size=500))
        execs = np.full(500, 0.05)
        pods = [
            reconstruct_function_pods(arrivals, execs, keepalive_s=ka).n_pods
            for ka in (10.0, 60.0, 300.0, 3600.0)
        ]
        assert pods == sorted(pods, reverse=True)


class TestFixedKeepAlive:
    def test_fixed_keepalive(self):
        policy = FixedKeepAlive(60.0)
        assert policy.keepalive_for(None, 0.0) == 60.0
        assert "60" in policy.describe()

    def test_default_is_platform_keepalive(self):
        assert FixedKeepAlive().keepalive_s == DEFAULT_KEEPALIVE_S

    def test_non_positive_keepalive_rejected(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive"):
                FixedKeepAlive(bad)
