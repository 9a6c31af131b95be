"""The deterministic backlog-aware router (repro.fleet.router).

The routing plan must be pure virtual-time arithmetic: same arrivals +
same solo estimates => same job->replica assignment, every time, on any
machine — worker processes only execute the plan, never influence it.
"""

import numpy as np
import pytest

from repro.core.arrivals import poisson_arrivals
from repro.core.framework import NdftFramework
from repro.errors import ConfigError
from repro.experiments.scale_serving import job_mix
from repro.fleet import route_jobs

SIZES = job_mix(64)


@pytest.fixture(scope="module")
def estimates():
    framework = NdftFramework()
    return framework.job_estimates(SIZES)


class TestRouteJobsDeterminism:
    def test_repeated_routing_is_identical(self, estimates):
        solo_times, lanes = estimates
        arrivals = poisson_arrivals(len(SIZES), 2.0, seed=0)
        first = route_jobs(4, arrivals, solo_times, lanes)
        second = route_jobs(4, arrivals, solo_times, lanes)
        assert first == second
        assert first.assignments == second.assignments
        assert first.predicted_completions == second.predicted_completions

    def test_deterministic_across_replica_counts(self, estimates):
        """Every fleet size yields a full, reproducible assignment —
        including the degenerate single-replica fleet."""
        solo_times, lanes = estimates
        for n_replicas in (1, 2, 4, 8):
            plan = route_jobs(n_replicas, None, solo_times, lanes)
            again = route_jobs(n_replicas, None, solo_times, lanes)
            assert plan.assignments == again.assignments
            assert sum(plan.replica_job_counts) == len(SIZES)
            assert all(0 <= r < n_replicas for r in plan.assignments)

    def test_single_replica_takes_everything(self, estimates):
        solo_times, lanes = estimates
        plan = route_jobs(1, None, solo_times, lanes)
        assert plan.assignments == (0,) * len(SIZES)
        assert plan.replica_job_counts == (len(SIZES),)

    def test_identical_jobs_split_evenly_when_counts_divide(self):
        """N identical closed-batch jobs over R | N replicas: the
        backlog model sees equal load everywhere, ties break by replica
        index, so the split is perfectly even and cyclic."""
        framework = NdftFramework()
        for n_replicas in (1, 2, 4):
            sizes = [64] * 16
            solo_times, lanes = framework.job_estimates(sizes)
            plan = route_jobs(n_replicas, None, solo_times, lanes)
            assert plan.replica_job_counts == (
                16 // n_replicas,
            ) * n_replicas
            # Cyclic: job i lands on replica i mod R.
            assert plan.assignments == tuple(
                i % n_replicas for i in range(16)
            )

    def test_closed_batch_ties_break_by_replica_index(self):
        framework = NdftFramework()
        solo_times, lanes = framework.job_estimates([64, 64, 64])
        plan = route_jobs(4, None, solo_times, lanes)
        # Three equal jobs, four empty replicas: lowest indices win.
        assert plan.assignments == (0, 1, 2)
        assert plan.replica_job_counts == (1, 1, 1, 0)

    def test_arrival_order_not_submission_order(self, estimates):
        """Routing visits jobs by (arrival, index) — the simulator's
        release order — so a permuted release stream routes the same
        physical job to the same replica."""
        solo_times, lanes = estimates
        arrivals = list(poisson_arrivals(len(SIZES), 2.0, seed=3))
        plan = route_jobs(2, arrivals, solo_times, lanes)
        # Reverse the submission stream: job j of the reversed call is
        # job n-1-j of the original, and must land on the same replica.
        n = len(SIZES)
        reversed_plan = route_jobs(
            2,
            arrivals[::-1],
            solo_times[::-1],
            tuple(lanes[::-1]),
        )
        assert reversed_plan.assignments == plan.assignments[::-1]

    def test_jobs_for_partitions_in_submission_order(self, estimates):
        solo_times, lanes = estimates
        plan = route_jobs(3, None, solo_times, lanes)
        seen = []
        for replica in range(3):
            indices = plan.jobs_for(replica)
            assert list(indices) == sorted(indices)
            seen.extend(indices)
        assert sorted(seen) == list(range(len(SIZES)))


class TestRouteJobsBalancing:
    def test_backlog_spreads_load(self, estimates):
        """A mixed 64-job batch over 4 replicas never piles onto one
        replica: predicted-backlog routing keeps every replica busy."""
        solo_times, lanes = estimates
        plan = route_jobs(4, None, solo_times, lanes)
        counts = plan.replica_job_counts
        assert min(counts) > 0
        assert max(counts) <= 2 * min(counts)
        # The balanced quantity is drain time, which is even too.
        backlogs = plan.predicted_backlogs
        assert max(backlogs) <= 1.5 * min(backlogs)

    def test_predicted_completions_cover_solo_times(self, estimates):
        solo_times, lanes = estimates
        plan = route_jobs(2, None, solo_times, lanes)
        for completion, solo in zip(plan.predicted_completions, solo_times):
            assert completion >= solo


class TestRouteJobsValidation:
    def test_rejects_nonpositive_replicas(self, estimates):
        solo_times, lanes = estimates
        with pytest.raises(ConfigError, match="n_replicas"):
            route_jobs(0, None, solo_times, lanes)

    @pytest.mark.parametrize("n_replicas", [True, 2.5, 2.0, "2", None])
    def test_rejects_bool_or_non_integer_replicas(self, estimates, n_replicas):
        solo_times, lanes = estimates
        with pytest.raises(ConfigError, match="n_replicas"):
            route_jobs(n_replicas, None, solo_times, lanes)

    def test_accepts_numpy_integer_replicas(self, estimates):
        solo_times, lanes = estimates
        assert route_jobs(np.int64(2), None, solo_times, lanes) == route_jobs(
            2, None, solo_times, lanes
        )

    def test_rejects_misaligned_inputs(self, estimates):
        solo_times, lanes = estimates
        with pytest.raises(ConfigError, match="align"):
            route_jobs(2, [0.0], solo_times, lanes)
        with pytest.raises(ConfigError, match="align"):
            route_jobs(2, None, solo_times, lanes[:-1])
