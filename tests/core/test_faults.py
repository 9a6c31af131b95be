"""Deterministic fault injection, retry/backoff, and degraded recovery.

The contracts pinned here:

- **empty-plan bit-identity** — a :class:`FaultPlan` with no events is
  contractually indistinguishable from passing no plan at all, on every
  simulation backend (the executor never enters the fault-aware path);
- **advance-knowledge outage semantics** — a task granted a lane inside
  an outage window waits it out; a window starting mid-service kills the
  whole job at the window start, and the retry re-enters the queue at
  ``fail_time + backoff(attempt)`` in virtual time;
- **degraded placement** — a permanent device death re-places affected
  jobs through the exact scheduling DP with the dead target excluded,
  reproducing exactly what ``scheduler.schedule(exclude=...)`` derives;
- **determinism** — the same plan and arrivals always produce the same
  failure set, retry schedule, and resilience report, byte for byte,
  regardless of backend routing;
- **one simulator for faulted batches** — ``dag_replay`` simulates a
  faulted batch bit-identically to the fault-aware engine, and
  ``vector_replay`` refuses it with a named reason instead of silently
  mis-simulating it.
"""

import random
from math import inf, nan

import pytest

from repro.core.backends import FAULT_PLAN_REASON
from repro.core.faults import (
    FaultPlan,
    ResilienceReport,
    RetryPolicy,
    poisson_fault_plan,
)
from repro.core.framework import NdftFramework
from repro.core.pipeline import Pipeline, build_kpoint_pipeline, build_pipeline
from repro.core.scheduler import Placement, SchedulingPolicy
from repro.dft.workload import problem_size
from repro.errors import ConfigError, SimulationError
from repro.hw.engine import resolve_degraded_service

#: Every served batch a test here builds must hold check_invariants.
pytestmark = pytest.mark.usefixtures("checked_results")

SIZES = [64, 128, 512, 1024]


def _jobs(framework, entries):
    jobs = []
    for n_atoms in entries:
        pipeline = framework._build_pipeline(problem_size(n_atoms), build_pipeline)
        schedule = framework._record_for(
            pipeline, framework.job_signature(pipeline)
        ).schedule
        jobs.append((pipeline, schedule))
    return jobs


def _identical_batches(a, b):
    """Bit-identity over everything the simulation derives."""
    return (
        a.makespan == b.makespan
        and a.job_reports == b.job_reports
        and a.lane_occupancy == b.lane_occupancy
        and a.arrivals == b.arrivals
    )


def _ndp_window(framework, sizes, width_fraction=0.2):
    """A transient ndp outage window guaranteed to start strictly inside
    an ndp service interval of the healthy batch — so at least one job
    is killed mid-service, deterministically."""
    healthy = framework.run_many(sizes)
    intervals = healthy.batch_report.lane_occupancy["ndp"]
    start, end = max(intervals, key=lambda span: span[1] - span[0])
    t0 = start + (end - start) * 0.5
    return healthy, t0, t0 + healthy.makespan * width_fraction


class TestResolveFaultyService:
    """The engine-level kernel without slowdowns: advance-knowledge,
    preemption-free, and the wall span is the nominal duration."""

    def test_healthy_lane_passes_through(self):
        assert resolve_degraded_service((), (), None, 3.0, 2.0) == (
            3.0, 2.0, None, None,
        )

    def test_grant_inside_window_waits_it_out(self):
        windows = ((1.0, 4.0),)
        assert resolve_degraded_service(windows, (), None, 2.0, 1.0) == (
            4.0, 1.0, None, None,
        )

    def test_window_start_mid_service_kills_at_window_start(self):
        windows = ((5.0, 6.0),)
        assert resolve_degraded_service(windows, (), None, 3.0, 4.0) == (
            3.0, 4.0, 5.0, "outage",
        )

    def test_service_ending_at_window_start_survives(self):
        # Half-open windows: finishing exactly when the outage starts
        # is a completed task.
        windows = ((5.0, 6.0),)
        assert resolve_degraded_service(windows, (), None, 3.0, 2.0) == (
            3.0, 2.0, None, None,
        )

    def test_chained_windows_resolve_in_order(self):
        # Waiting out the first window lands the task in front of the
        # second, which then kills it.
        windows = ((1.0, 4.0), (5.0, 7.0))
        assert resolve_degraded_service(windows, (), None, 2.0, 2.0) == (
            4.0, 2.0, 5.0, "outage",
        )

    def test_permanent_death_kills_overrunning_service(self):
        assert resolve_degraded_service((), (), 5.0, 3.0, 4.0) == (
            3.0, 4.0, 5.0, "permanent",
        )

    def test_grant_after_death_fails_at_grant(self):
        assert resolve_degraded_service((), (), 5.0, 8.0, 1.0) == (
            8.0, 1.0, 8.0, "permanent",
        )


class TestFaultPlanConstruction:
    def test_windows_sorted_merged_per_lane(self):
        plan = FaultPlan(
            outages=(("ndp", 1.5, 3.0), ("cpu", 0.5, 1.0), ("ndp", 1.0, 2.0))
        )
        assert plan.outages == (("cpu", 0.5, 1.0), ("ndp", 1.0, 3.0))
        assert plan.windows_for("ndp") == ((1.0, 3.0),)
        assert plan.lanes == frozenset({"cpu", "ndp"})
        assert plan.affects(["ndp", "gpu"])
        assert not plan.affects(["gpu", "link:cpu-ndp"])

    def test_windows_clamped_at_permanent_death(self):
        plan = FaultPlan(
            outages=(("ndp", 1.0, 5.0), ("ndp", 6.0, 7.0)),
            permanent=(("ndp", 4.0),),
        )
        assert plan.outages == (("ndp", 1.0, 4.0),)
        assert plan.dead_lanes() == {"ndp": 4.0}
        assert plan.event_times() == (1.0, 4.0)

    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigError, match="0 <= start < end"):
            FaultPlan(outages=(("ndp", 2.0, 2.0),))
        with pytest.raises(ConfigError, match="0 <= start < end"):
            FaultPlan(outages=(("ndp", -1.0, 2.0),))
        # A window that never ends would make every reading on the lane
        # infinite or nan; a nan bound compares false everywhere.
        for start, end in ((0.0, inf), (nan, 2.0), (0.0, nan), (inf, inf)):
            with pytest.raises(ConfigError, match="finite"):
                FaultPlan(outages=(("link:cpu-ndp", start, end),))

    def test_non_finite_death_rejected(self):
        """A death at nan never fires and one at inf never happens, yet
        both would count in the descriptor's ``n_permanent``."""
        for dead_at in (nan, inf, -1.0):
            with pytest.raises(ConfigError, match="finite and >= 0"):
                FaultPlan(permanent=(("ndp", dead_at),))

    def test_permanent_wire_failure_rejected(self):
        with pytest.raises(ConfigError, match="partitions the machine"):
            FaultPlan(permanent=(("link:cpu-ndp", 1.0),))

    def test_empty_plan_properties(self):
        plan = FaultPlan()
        assert plan.is_empty
        assert plan.lanes == frozenset()
        assert plan.event_times() == ()
        assert not plan.affects(["ndp", "cpu"])

    def test_digest_tracks_normalized_timeline(self):
        # Two constructions that normalize to the same timeline share a
        # digest; a different timeline gets a different one.
        a = FaultPlan(outages=(("ndp", 1.0, 2.0), ("ndp", 1.5, 3.0)))
        b = FaultPlan(outages=(("ndp", 1.0, 3.0),))
        c = FaultPlan(outages=(("ndp", 1.0, 3.5),))
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_poisson_plan_deterministic_and_order_independent(self):
        kwargs = dict(mtbf=5.0, mttr=0.5, horizon=60.0, seed=11)
        one = poisson_fault_plan(["ndp", "cpu"], **kwargs)
        two = poisson_fault_plan(["cpu", "ndp"], **kwargs)
        assert one == two
        assert one.digest() == two.digest()
        assert not one.is_empty
        other_seed = poisson_fault_plan(["ndp", "cpu"], **dict(kwargs, seed=12))
        assert one.digest() != other_seed.digest()

    def test_poisson_plan_validation(self):
        """Non-finite draw parameters are refused before the draw: an
        infinite horizon would never end it, and an infinite ``mtbf`` or
        ``mttr`` has no exponential clock."""
        base = dict(mtbf=5.0, mttr=0.5, horizon=60.0)
        for name in ("mtbf", "mttr", "horizon"):
            for value in (0.0, inf, nan):
                with pytest.raises(ConfigError, match=name):
                    poisson_fault_plan(["ndp"], **dict(base, **{name: value}))

    def test_poisson_permanent_after_validation(self):
        """``permanent_after`` is ``None`` or finite and >= 0.  ``nan``
        used to draw no death and a descriptor unequal to itself after
        a JSON round trip; a negative time drew the plan ``0.0`` draws."""
        base = dict(mtbf=5.0, mttr=1.0, horizon=60.0, seed=1)
        for value in (nan, -5.0, -inf, inf):
            with pytest.raises(ConfigError, match="permanent_after"):
                poisson_fault_plan(["ndp", "cpu"], permanent_after=value, **base)
        plan = poisson_fault_plan(["ndp"], permanent_after=0.0, **base)
        assert list(plan.dead_lanes()) == ["ndp"]

    def test_poisson_permanent_after_kills_device_lanes(self):
        plan = poisson_fault_plan(
            ["ndp"], mtbf=2.0, mttr=0.5, horizon=100.0, seed=3,
            permanent_after=10.0,
        )
        assert list(plan.dead_lanes()) == ["ndp"]
        (dead_at,) = plan.dead_lanes().values()
        assert dead_at >= 10.0
        assert all(end <= dead_at for _lane, _s, end in plan.outages)


class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        retry = RetryPolicy(max_attempts=4, backoff_base=0.1, backoff_factor=2.0)
        assert retry.backoff(1) == pytest.approx(0.1)
        assert retry.backoff(2) == pytest.approx(0.2)
        assert retry.backoff(3) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ConfigError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError, match="backoff_base"):
            RetryPolicy(backoff_base=0.0)
        with pytest.raises(ConfigError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigError, match="job_timeout"):
            RetryPolicy(job_timeout=0.0)
        # Non-finite backoffs would release retries at inf or nan.
        for value in (inf, nan):
            with pytest.raises(ConfigError, match="backoff_base"):
                RetryPolicy(backoff_base=value)
            with pytest.raises(ConfigError, match="backoff_factor"):
                RetryPolicy(backoff_factor=value)
        # An attempt count is an integer, and a bool is not one.
        for value in (nan, True, 2.5, "3"):
            with pytest.raises(ConfigError, match="max_attempts"):
                RetryPolicy(max_attempts=value)


class TestEmptyPlanBitIdentity:
    """An empty plan is *contractually* a no-op: the executor must keep
    every backend on its normal path and reproduce the exact floats."""

    @pytest.mark.parametrize(
        "backend", ["dag_replay", "vector_replay", "engine"]
    )
    def test_forced_backends_identical(self, framework, backend):
        # Single-signature coalesced chain batch: the one shard shape
        # every backend accepts.
        sizes = [64] * 12
        plain = framework.run_many(sizes, backend=backend)
        faulted = framework.run_many(sizes, backend=backend, faults=FaultPlan())
        assert _identical_batches(plain.batch_report, faulted.batch_report)
        assert plain.batch_report.backend_jobs == faulted.batch_report.backend_jobs
        assert faulted.resilience is not None
        assert faulted.resilience.availability == 1.0
        assert faulted.resilience.failed_attempts == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_open_queue_batches_identical(self, framework, seed):
        """Property flavor: random mixed batches with random arrivals
        under auto backend selection."""
        rng = random.Random(seed)
        sizes = [rng.choice(SIZES) for _ in range(rng.randint(5, 30))]
        arrivals = sorted(round(rng.random() * 2.0, 9) for _ in sizes)
        plain = framework.run_many(sizes, arrivals=arrivals)
        faulted = framework.run_many(sizes, arrivals=arrivals, faults=FaultPlan())
        assert _identical_batches(plain.batch_report, faulted.batch_report)
        assert plain.batch_report.backend_jobs == faulted.batch_report.backend_jobs

    def test_plan_on_untouched_lane_keeps_replay_backends(self, framework):
        """Fault events on a lane the batch never occupies leave every
        shard on its fast replay backend — engine routing only engages
        where the plan actually bites."""
        plan = FaultPlan(outages=(("gpu", 0.0, 1e9),))
        plain = framework.run_many(SIZES)
        faulted = framework.run_many(SIZES, faults=plan)
        assert _identical_batches(plain.batch_report, faulted.batch_report)
        assert "engine" not in faulted.batch_report.backend_jobs
        assert faulted.resilience.availability == 1.0

    def test_plan_on_an_occupied_lane_routes_the_whole_batch(self, framework):
        """All-CPU jobs next to all-NDP jobs share no lane, yet run as
        one simulation: an ndp outage that starts mid-service puts the
        whole batch under the plan on ``dag_replay``, with the results
        forcing the engine gives.  The all-CPU jobs never touch ndp, so
        they finish as in a healthy run."""
        pipeline = framework._build_pipeline(problem_size(64), build_pipeline)
        cpu_only = framework.scheduler.schedule(pipeline, SchedulingPolicy.ALL_CPU)
        ndp_only = framework.scheduler.schedule(pipeline, SchedulingPolicy.ALL_NDP)
        jobs = [(pipeline, cpu_only)] * 3 + [(pipeline, ndp_only)] * 3
        healthy = framework.executor.execute_many(jobs)
        start, end = healthy.lane_occupancy["ndp"][0]
        plan = FaultPlan(outages=(("ndp", (start + end) / 2, end + 1.0),))
        auto = framework.executor.execute_many(jobs, faults=plan)
        forced = framework.executor.execute_many(
            jobs, backend="engine", faults=plan
        )
        assert auto.backend_jobs == {"dag_replay": 6}
        assert auto.job_reports == forced.job_reports
        assert auto.lane_occupancy == forced.lane_occupancy
        assert auto.failures == forced.failures
        assert auto.failures  # the outage struck an ndp service
        assert auto.job_reports[:3] == healthy.job_reports[:3]
        assert auto.lane_occupancy["cpu"] == healthy.lane_occupancy["cpu"]


    def test_failures_name_their_batch_positions(self, framework):
        """A killed run is reported by its position in the submitted
        batch: only the interleaved all-NDP jobs can die."""
        pipeline = framework._build_pipeline(problem_size(64), build_pipeline)
        cpu_only = framework.scheduler.schedule(pipeline, SchedulingPolicy.ALL_CPU)
        ndp_only = framework.scheduler.schedule(pipeline, SchedulingPolicy.ALL_NDP)
        jobs = [(pipeline, cpu_only), (pipeline, ndp_only)] * 3
        healthy = framework.executor.execute_many(jobs)
        start, end = healthy.lane_occupancy["ndp"][0]
        plan = FaultPlan(outages=(("ndp", (start + end) / 2, end + 1.0),))
        report = framework.executor.execute_many(jobs, faults=plan)
        assert report.failures
        assert {failure.job for failure in report.failures} <= {1, 3, 5}
        assert {failure.lane for failure in report.failures} == {"ndp"}
        assert report.job_reports[0::2] == healthy.job_reports[0::2]


class TestFaultedEngineProgram:
    def test_faulted_batch_never_asks_for_predecessors(
        self, framework, monkeypatch
    ):
        """The fault-aware engine spawns every stage from the batch's
        compiled predecessor indices, so a faulted ``execute_many`` over
        branching k-point jobs never walks the pipeline's edges for a
        stage's predecessors."""
        jobs = []
        for n_atoms in (64, 512):
            for builder in (build_pipeline, build_kpoint_pipeline):
                pipeline = framework._build_pipeline(
                    problem_size(n_atoms), builder
                )
                schedule = framework._record_for(
                    pipeline, framework.job_signature(pipeline)
                ).schedule
                jobs.append((pipeline, schedule))
        jobs *= 3
        healthy = framework.executor.execute_many(jobs)
        start, end = healthy.lane_occupancy["ndp"][0]
        plan = FaultPlan(outages=(("ndp", (start + end) / 2, end + 1.0),))
        calls = []
        predecessors = Pipeline.predecessors

        def counting(self, name):
            calls.append(name)
            return predecessors(self, name)

        monkeypatch.setattr(Pipeline, "predecessors", counting)
        report = framework.executor.execute_many(
            jobs, backend="engine", faults=plan
        )
        assert report.backend_jobs == {"engine": len(jobs)}
        assert report.failures  # the outage struck an ndp service
        assert calls == []


class TestTransientOutageRetry:
    def test_mid_service_outage_fails_then_recovers_with_backoff(self, framework):
        healthy, t0, t1 = _ndp_window(framework, SIZES)
        plan = FaultPlan(outages=(("ndp", t0, t1),))
        retry = RetryPolicy(max_attempts=3, backoff_base=0.05)
        result = framework.run_many(SIZES, faults=plan, retry=retry)
        res = result.resilience
        assert res.failed_attempts >= 1
        assert res.recovered >= 1
        assert res.availability == 1.0  # every retry lands post-window

        by_job = {}
        for record in res.attempts:
            by_job.setdefault(record.job_index, []).append(record)
        failed_jobs = 0
        for job, records in by_job.items():
            records.sort(key=lambda r: r.attempt)
            for prev, nxt in zip(records, records[1:]):
                assert not prev.completed
                assert prev.failure_time == t0
                assert prev.failure_lane == "ndp"
                assert prev.failure_kind == "outage"
                # The retry re-enters the queue at exactly
                # fail_time + backoff(attempt), in virtual time.
                assert nxt.release == pytest.approx(
                    prev.failure_time + retry.backoff(prev.attempt)
                )
            assert records[-1].completed
            if len(records) > 1:
                failed_jobs += 1
                # End-to-end latency spans original arrival (t=0 for the
                # closed batch) to the *final* attempt's completion —
                # strictly worse than the healthy completion.
                latency = res.end_to_end_latencies[job]
                assert latency > healthy.batch_report.job_reports[job].total_time
                assert latency > t1 - t0  # waited out the window at least
        assert failed_jobs >= 1

    def test_goodput_below_throughput_when_attempts_fail(self, framework):
        _healthy, t0, t1 = _ndp_window(framework, SIZES)
        plan = FaultPlan(outages=(("ndp", t0, t1),))
        res = framework.run_many(SIZES, faults=plan).resilience
        assert res.total_attempts > res.completed
        assert res.goodput < res.throughput_all_attempts

    def test_busy_span_covers_the_failed_attempts(self, framework):
        """A retried job's surviving run releases after its failure, but
        the lanes were busy with the failed attempt first: the batch's
        busy span starts at the round's first release, so utilization
        stays within [0, 1] and throughput equals goodput."""
        solo = framework.run_many([128]).makespan
        plan = FaultPlan(outages=(("ndp", 0.5 * solo, 0.5 * solo + 0.005),))
        result = framework.run_many(
            [128], arrivals=[0.0], faults=plan, retry=RetryPolicy()
        )
        assert result.resilience.failed_attempts == 1
        assert result.arrivals[0] > 0.0  # the retry's release
        assert result.busy_span == result.makespan
        assert all(0.0 <= u <= 1.0 for u in result.lane_utilization.values())
        assert result.throughput == result.resilience.goodput


    def test_every_round_reports_its_simulation(self):
        """A retried call simulates its run list once per round: the
        result keeps one backend row per round, in round order, sums
        the rounds' jobs, and the framework's stats count every
        simulated run and its wall time."""
        framework = NdftFramework()
        solo = framework.run_many([128]).makespan
        plan = FaultPlan(outages=(("ndp", 0.5 * solo, 0.5 * solo + 0.005),))
        before = framework.backend_stats
        result = framework.run_many([128], faults=plan, retry=RetryPolicy())
        report = result.batch_report
        # Round one runs the job and loses it; round two runs it and its
        # retry, which completes.
        assert [(t.backend, t.n_jobs) for t in report.backend_timings] == [
            ("dag_replay", 1),
            ("dag_replay", 2),
        ]
        assert report.backend_jobs == {"dag_replay": 3}
        after = framework.backend_stats
        assert after["dag_replay"] - before["dag_replay"] == 3
        assert after["dag_replay_wall_seconds"] - before[
            "dag_replay_wall_seconds"
        ] == pytest.approx(sum(t.wall_seconds for t in report.backend_timings))


class TestDeterminism:
    def test_same_plan_same_report_across_calls(self, framework):
        _healthy, t0, t1 = _ndp_window(framework, SIZES)
        plan = FaultPlan(outages=(("ndp", t0, t1),))
        first = framework.run_many(SIZES, faults=plan)
        second = framework.run_many(SIZES, faults=plan)
        assert first.resilience.attempts == second.resilience.attempts
        assert (
            first.resilience.end_to_end_latencies
            == second.resilience.end_to_end_latencies
        )
        assert _identical_batches(first.batch_report, second.batch_report)

    def test_forced_engine_matches_auto_routing(self, framework):
        """Auto routing simulates faulted batches on ``dag_replay``;
        the backend choice must not leak into the resilience
        numbers."""
        _healthy, t0, t1 = _ndp_window(framework, SIZES)
        plan = FaultPlan(outages=(("ndp", t0, t1),))
        auto = framework.run_many(SIZES, faults=plan)
        forced = framework.run_many(SIZES, faults=plan, backend="engine")
        assert auto.resilience.attempts == forced.resilience.attempts
        assert _identical_batches(auto.batch_report, forced.batch_report)

    def test_fresh_framework_reproduces_report(self):
        plan = poisson_fault_plan(["ndp"], mtbf=0.5, mttr=0.1, horizon=10.0, seed=7)
        a = NdftFramework().run_many(SIZES, faults=plan).resilience
        b = NdftFramework().run_many(SIZES, faults=plan).resilience
        assert a.attempts == b.attempts
        assert a.end_to_end_latencies == b.end_to_end_latencies
        assert a.to_json_dict() == b.to_json_dict()


class TestPermanentDegradation:
    def test_dead_ndp_at_release_degrades_to_cpu(self, framework):
        """Every job released at/after the death re-places through the
        exact DP with NDP excluded — no failures, no NDP occupancy, and
        the degraded schedule is exactly scheduler.schedule(exclude=)."""
        plan = FaultPlan(permanent=(("ndp", 0.0),))
        result = framework.run_many(SIZES, faults=plan)
        res = result.resilience
        assert res.failed_attempts == 0
        assert res.availability == 1.0
        assert res.degraded_attempts == res.submitted
        assert "ndp" not in result.batch_report.lane_occupancy
        for run in result.jobs:
            placements = set(run.schedule.assignments.values())
            assert Placement.NDP not in placements
            pipeline = framework._build_pipeline(run.problem, build_pipeline)
            expected = framework.scheduler.schedule(
                pipeline, exclude=frozenset({Placement.NDP})
            )
            assert run.schedule.assignments == expected.assignments

    def test_mid_batch_death_fails_then_degrades(self, framework):
        healthy = framework.run_many(SIZES)
        dead_at = healthy.makespan * 0.5
        plan = FaultPlan(permanent=(("ndp", dead_at),))
        result = framework.run_many(SIZES, faults=plan)
        res = result.resilience
        failed = [r for r in res.attempts if not r.completed]
        assert failed
        assert all(r.failure_kind == "permanent" for r in failed)
        assert all(r.failure_time == dead_at for r in failed)
        # Retries release after the death, so they are degraded — and
        # a degraded attempt cannot fail again on the dead lane.
        retries = [r for r in res.attempts if r.attempt > 1]
        assert retries
        assert all(r.degraded and r.completed for r in retries)
        assert res.availability == 1.0
        assert result.makespan > healthy.makespan

    def test_every_target_excluded_is_refused(self, framework):
        plan = FaultPlan(permanent=(("cpu", 0.0), ("ndp", 0.0)))
        with pytest.raises(Exception, match="excluded"):
            framework.run_many(SIZES, faults=plan)


class TestAbandonment:
    def test_max_attempts_exhaustion_abandons(self, framework):
        _healthy, t0, _t1 = _ndp_window(framework, SIZES)
        # A window that never ends within any retry horizon: every
        # attempt of the affected jobs dies at t0 or inside the window.
        plan = FaultPlan(outages=(("ndp", t0, 1e9),))
        result = framework.run_many(
            SIZES, faults=plan, retry=RetryPolicy(max_attempts=1)
        )
        res = result.resilience
        assert res.abandoned >= 1
        assert res.availability < 1.0
        for job in res.abandoned_jobs:
            assert res.end_to_end_latencies[job] is None
        # The surfaced batch covers completed jobs only.
        assert result.n_jobs == res.completed

    def test_job_timeout_abandons_before_max_attempts(self, framework):
        _healthy, t0, t1 = _ndp_window(framework, SIZES)
        plan = FaultPlan(outages=(("ndp", t0, t1),))
        unlimited = framework.run_many(
            SIZES, faults=plan, retry=RetryPolicy(max_attempts=5)
        )
        assert unlimited.resilience.availability == 1.0
        # A timeout shorter than any failure time forbids every retry.
        tight = framework.run_many(
            SIZES,
            faults=plan,
            retry=RetryPolicy(max_attempts=5, job_timeout=t0 * 1e-6),
        )
        res = tight.resilience
        assert res.abandoned >= 1
        assert max(r.attempt for r in res.attempts) == 1


class TestGuards:
    def test_retry_without_faults_refused(self, framework):
        with pytest.raises(ConfigError, match="faults="):
            framework.run_many([64], retry=RetryPolicy())

    def test_permanent_failure_on_an_unknown_lane_refused(self):
        plan = FaultPlan(permanent=(("tpu", 1.0),))
        with pytest.raises(ConfigError, match="'tpu'"):
            NdftFramework().run_many([64, 128], faults=plan)

    def test_forced_replay_backend_declines_faulted_shard(self, framework):
        jobs = _jobs(framework, [64] * 4)
        plan = FaultPlan(outages=(("ndp", 0.0, 1.0),))
        replay = framework.executor.execute_many(
            jobs, backend="dag_replay", faults=plan
        )
        engine = framework.executor.execute_many(
            jobs, backend="engine", faults=plan
        )
        assert _identical_batches(replay, engine)
        assert replay.failures == engine.failures
        with pytest.raises(SimulationError) as excinfo:
            framework.executor.execute_many(
                jobs, backend="vector_replay", faults=plan
            )
        assert FAULT_PLAN_REASON in str(excinfo.value)

    def test_degenerate_report_degrades_gracefully(self):
        report = ResilienceReport(plan=FaultPlan(), retry=RetryPolicy())
        assert report.submitted == 0
        assert report.availability == 1.0
        assert report.goodput == 0.0
        assert report.post_fault_p99 == 0.0
        assert report.to_json_dict()["completed"] == 0
