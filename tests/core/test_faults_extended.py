"""Correlated shocks, partial degradation, and checkpoint/resume.

The contracts pinned here, on top of ``test_faults.py``'s foundation:

- **correlated shocks** — :func:`shock_fault_plan` draws fleet-level
  events on one shared clock: every lane of the struck group gets the
  *same* outage window, the draw is seeded-deterministic and independent
  of group/lane input order, and the plan composes with independent
  Poisson windows via :meth:`FaultPlan.merge` (digest and descriptor
  describe the composed timeline);
- **partial degradation** — :class:`SlowdownWindow` inflates service
  time piecewise instead of killing the job; the replay backends decline
  slowdown-affected shards with their own named reason
  (:data:`SLOWDOWN_SHARD_REASON`), and a plan whose slowdowns never
  overlap any service is bit-identical to no plan at all;
- **checkpoint/resume** — ``RetryPolicy(checkpoint=True)`` re-enters a
  failed job as the residual pipeline past its completed-stage frontier:
  ``work_saved_seconds > 0`` on a constructed mid-pipeline failure,
  bit-identical results when nothing fails, deterministic frontiers
  across frameworks and repeated calls;
- **backoff_max** — the exponential backoff clamps instead of growing
  (or overflowing) without bound;
- **poisson statistical sanity** — over a long horizon the drawn
  up/down times converge to MTBF/MTTR and windows never overlap.
"""

import argparse

import pytest

from repro.cli import _fault_setup
from repro.core.backends import FAULTED_SHARD_REASON, SLOWDOWN_SHARD_REASON
from repro.core.faults import (
    FaultPlan,
    RetryPolicy,
    SlowdownWindow,
    poisson_fault_plan,
    shock_fault_plan,
    slowdown_fault_plan,
)
from repro.core.framework import NdftFramework
from repro.core.pipeline import build_kpoint_pipeline, build_pipeline
from repro.dft.workload import problem_size
from repro.errors import ConfigError, SimulationError
from repro.hw.engine import inflate_service, resolve_degraded_service

SIZES = [64, 128, 512, 1024]
BACKENDS = ["dag_replay", "vector_replay", "engine"]


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
    return (
        a.makespan == b.makespan
        and a.job_reports == b.job_reports
        and a.lane_occupancy == b.lane_occupancy
        and a.arrivals == b.arrivals
    )


def _ndp_window(framework, sizes, width_fraction=0.2):
    """A window guaranteed to start strictly inside an ndp service
    interval of the healthy batch (mirrors test_faults.py)."""
    healthy = framework.run_many(sizes)
    intervals = healthy.batch_report.lane_occupancy["ndp"]
    start, end = max(intervals, key=lambda span: span[1] - span[0])
    t0 = start + (end - start) * 0.5
    return healthy, t0, t0 + healthy.makespan * width_fraction


class TestShockFaultPlan:
    def test_every_lane_of_struck_group_shares_the_window(self):
        plan = shock_fault_plan(
            [("ndp", "link:cpu-ndp")], rate=0.5, mttr=1.0, horizon=40.0, seed=3
        )
        assert not plan.is_empty
        ndp = plan.windows_for("ndp")
        wire = plan.windows_for("link:cpu-ndp")
        # One shared clock: the group's lanes carry identical windows —
        # same starts, same repair draws.  (Normalization may merge
        # overlapping shocks, but it merges both lanes identically.)
        assert ndp == wire
        assert ndp  # the draw actually produced shocks at this rate

    def test_deterministic_and_input_order_independent(self):
        kwargs = dict(rate=0.3, mttr=0.5, horizon=60.0, seed=11)
        one = shock_fault_plan([("ndp", "link:cpu-ndp"), "cpu"], **kwargs)
        two = shock_fault_plan(["cpu", ("link:cpu-ndp", "ndp")], **kwargs)
        assert one == two
        assert one.digest() == two.digest()
        assert one.shock_groups == (("cpu",), ("link:cpu-ndp", "ndp"))
        other = shock_fault_plan(
            [("ndp", "link:cpu-ndp"), "cpu"], **dict(kwargs, seed=12)
        )
        assert one.digest() != other.digest()

    def test_validation(self):
        with pytest.raises(ConfigError, match="rate"):
            shock_fault_plan(["ndp"], rate=0.0, mttr=1.0, horizon=10.0)
        with pytest.raises(ConfigError, match="mttr"):
            shock_fault_plan(["ndp"], rate=1.0, mttr=0.0, horizon=10.0)
        with pytest.raises(ConfigError, match="horizon"):
            shock_fault_plan(["ndp"], rate=1.0, mttr=1.0, horizon=0.0)
        with pytest.raises(ConfigError):
            shock_fault_plan([], rate=1.0, mttr=1.0, horizon=10.0)

    def test_merge_composes_with_poisson_noise(self):
        noise = poisson_fault_plan(
            ["ndp"], mtbf=5.0, mttr=0.5, horizon=60.0, seed=7
        )
        shocks = shock_fault_plan(
            [("ndp", "link:cpu-ndp")], rate=0.1, mttr=2.0, horizon=60.0, seed=7
        )
        merged = noise.merge(shocks)
        # The composed timeline covers both shapes, re-normalized.
        assert merged.lanes == noise.lanes | shocks.lanes
        assert merged.digest() != noise.digest()
        assert merged.digest() != shocks.digest()
        # Merge order does not matter: same normalized timeline.
        assert merged.digest() == shocks.merge(noise).digest()
        # Unambiguous metadata survives (same seed/mttr/horizon); the
        # shock provenance rides through untouched.
        assert merged.seed == 7
        assert merged.horizon == 60.0
        assert merged.shock_rate == 0.1
        assert merged.shock_groups == shocks.shock_groups
        descriptor = merged.to_json_dict()
        assert descriptor["shock_rate"] == 0.1
        assert descriptor["shock_groups"] == [["link:cpu-ndp", "ndp"]]
        assert descriptor["digest"] == merged.digest()

    def test_merge_drops_ambiguous_metadata(self):
        a = poisson_fault_plan(["ndp"], mtbf=5.0, mttr=0.5, horizon=60.0, seed=1)
        b = poisson_fault_plan(["cpu"], mtbf=9.0, mttr=0.5, horizon=60.0, seed=2)
        merged = a.merge(b)
        assert merged.seed is None
        assert merged.mtbf is None
        assert merged.mttr == 0.5

    def test_correlated_shock_kills_jobs_as_a_fleet_event(self, framework):
        """A shock window covering both the ndp device and its wire is
        survivable end to end: jobs killed at the shock instant retry
        and recover once the group is back."""
        _healthy, t0, t1 = _ndp_window(framework, SIZES)
        plan = FaultPlan(
            outages=(
                ("ndp", t0, t1),
                ("link:cpu-ndp", t0, t1),
            ),
            shock_rate=1.0,
            shock_groups=(("link:cpu-ndp", "ndp"),),
        )
        result = framework.run_many(SIZES, faults=plan)
        res = result.resilience
        assert res.failed_attempts >= 1
        assert res.availability == 1.0
        assert all(
            r.failure_time == t0 for r in res.attempts if not r.completed
        )


class TestSlowdownWindows:
    def test_validation(self):
        with pytest.raises(ConfigError, match="factor"):
            SlowdownWindow("ndp", 0.0, 1.0, 1.0)
        with pytest.raises(ConfigError, match="0 <= start < end"):
            SlowdownWindow("ndp", 2.0, 2.0, 1.5)
        with pytest.raises(ConfigError, match="overlap"):
            FaultPlan(
                slowdowns=(("ndp", 0.0, 2.0, 2.0), ("ndp", 1.0, 3.0, 4.0))
            )

    def test_plan_queries(self):
        plan = FaultPlan(
            slowdowns=(("ndp", 1.0, 2.0, 2.0), ("cpu", 0.0, 1.0, 1.5))
        )
        assert not plan.is_empty
        assert plan.lanes == frozenset({"ndp", "cpu"})
        assert plan.slowdown_lanes() == frozenset({"ndp", "cpu"})
        assert plan.slowdowns_for("ndp") == ((1.0, 2.0, 2.0),)
        assert plan.affects(["ndp"])
        assert not plan.affects_lethally(["ndp", "cpu"])
        # Slowdowns never kill, so they contribute no retry instants.
        assert plan.event_times() == ()

    def test_slowdown_fault_plan_deterministic(self):
        kwargs = dict(mtbf=5.0, mttr=0.5, horizon=60.0, factor=2.0, seed=4)
        one = slowdown_fault_plan(["ndp", "cpu"], **kwargs)
        two = slowdown_fault_plan(["cpu", "ndp"], **kwargs)
        assert one == two
        assert one.slowdowns
        assert all(w.factor == 2.0 for w in one.slowdowns)
        with pytest.raises(ConfigError, match="factor"):
            slowdown_fault_plan(["ndp"], mtbf=5.0, mttr=0.5, horizon=60.0,
                                factor=1.0)

    def test_digest_backward_stable_without_slowdowns(self):
        """A slowdown-free plan hashes exactly what it did before
        slowdowns existed — committed benchmark descriptors stay valid —
        while any slowdown moves the digest."""
        bare = FaultPlan(outages=(("ndp", 1.0, 2.0),))
        with_slow = FaultPlan(
            outages=(("ndp", 1.0, 2.0),),
            slowdowns=(("ndp", 3.0, 4.0, 2.0),),
        )
        assert bare.digest() != with_slow.digest()
        other_factor = FaultPlan(
            outages=(("ndp", 1.0, 2.0),),
            slowdowns=(("ndp", 3.0, 4.0, 2.5),),
        )
        assert with_slow.digest() != other_factor.digest()


class TestInflateServiceKernel:
    def test_no_overlap_returns_exact_duration(self):
        # Bit-identity contract: the accumulator never moves, so the
        # result is exactly `0.0 + duration` — the same float.
        assert inflate_service((), 3.0, 2.0) == 2.0
        assert inflate_service(((10.0, 20.0, 2.0),), 3.0, 2.0) == 2.0
        assert inflate_service(((0.0, 3.0, 2.0),), 3.0, 2.0) == 2.0

    def test_service_entirely_inside_window_scales_by_factor(self):
        assert inflate_service(((2.0, 6.0, 2.0),), 3.0, 1.0) == 2.0

    def test_service_spanning_window_boundary_is_piecewise(self):
        # 2s healthy, then the remaining 2s of work at factor 2 -> 4s.
        assert inflate_service(((2.0, 6.0, 2.0),), 0.0, 4.0) == 6.0

    def test_service_outlasting_window_resumes_full_speed(self):
        # 2s healthy + window (2,4) at factor 2 absorbs 1s of work over
        # 2s of wall + 7s full speed after the window.
        assert inflate_service(((2.0, 4.0, 2.0),), 0.0, 10.0) == 11.0

    def test_chained_windows_accumulate(self):
        slowdowns = ((1.0, 2.0, 2.0), (3.0, 4.0, 4.0))
        # 1s healthy, 0.5s work over the 1s window, 1s healthy, then
        # 0.25s of work over the second window, 0.25s remaining after.
        assert inflate_service(slowdowns, 0.0, 3.0) == pytest.approx(4.25)

    def test_slowdown_pushes_service_into_outage(self):
        """The kill check runs against the *inflated* span: a service
        that would clear the outage at full speed dies when a slowdown
        stretches it across the window start."""
        windows = ((5.0, 6.0),)
        slowdowns = ((0.0, 10.0, 2.0),)
        service, wall, fail, kind = resolve_degraded_service(
            windows, (), None, 3.0, 1.5
        )
        assert (service, wall, fail, kind) == (3.0, 1.5, None, None)
        service, wall, fail, kind = resolve_degraded_service(
            windows, slowdowns, None, 3.0, 1.5
        )
        assert (service, wall, fail, kind) == (3.0, 3.0, 5.0, "outage")

    def test_slowdown_counts_against_permanent_death(self):
        service, wall, fail, kind = resolve_degraded_service(
            (), ((0.0, 10.0, 2.0),), 5.0, 3.0, 1.5
        )
        assert (service, wall, fail, kind) == (3.0, 3.0, 5.0, "permanent")

    def test_inflation_starts_after_waited_out_outage(self):
        """Waiting out an outage moves the service start; the slowdown
        inflation must be computed from the post-wait start."""
        windows = ((1.0, 4.0),)
        slowdowns = ((4.0, 5.0, 2.0),)
        service, wall, fail, kind = resolve_degraded_service(
            windows, slowdowns, None, 2.0, 1.0
        )
        assert service == 4.0
        # 1s of wall inside the factor-2 window absorbs 0.5s of work;
        # the remaining 0.5s finishes at full speed after it.
        assert wall == 1.5
        assert fail is None and kind is None


class TestSlowdownEndToEnd:
    def test_slowdown_inflates_without_killing(self, framework):
        healthy, t0, t1 = _ndp_window(framework, SIZES)
        plan = FaultPlan(slowdowns=(("ndp", t0, t1, 3.0),))
        result = framework.run_many(SIZES, faults=plan)
        res = result.resilience
        assert res.failed_attempts == 0
        assert res.availability == 1.0
        assert res.total_attempts == res.submitted
        assert result.makespan > healthy.makespan
        # Only the fault-aware engine can simulate the inflation.
        assert set(result.batch_report.backend_jobs) == {"engine"}

    def test_replays_decline_slowdown_shards_with_named_reason(self, framework):
        jobs = _jobs(framework, [64] * 4)
        slow_only = FaultPlan(slowdowns=(("ndp", 0.0, 1.0, 2.0),))
        lethal_too = FaultPlan(
            outages=(("ndp", 0.0, 1.0),),
            slowdowns=(("ndp", 2.0, 3.0, 2.0),),
        )
        for backend in ("dag_replay", "vector_replay"):
            with pytest.raises(SimulationError) as excinfo:
                framework.executor.execute_many(
                    jobs, backend=backend, faults=slow_only
                )
            assert SLOWDOWN_SHARD_REASON in str(excinfo.value)
            # A shard with any job-killing event declines with the
            # original fault reason, not the slowdown one.
            with pytest.raises(SimulationError) as excinfo:
                framework.executor.execute_many(
                    jobs, backend=backend, faults=lethal_too
                )
            assert FAULTED_SHARD_REASON in str(excinfo.value)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_untouched_lane_slowdowns_bit_identical(self, framework, backend):
        """Slowdowns on a lane the batch never occupies leave every
        forced backend on its normal path with identical floats."""
        sizes = [64] * 12
        plan = FaultPlan(slowdowns=(("gpu", 0.0, 1e9, 4.0),))
        plain = framework.run_many(sizes, backend=backend)
        slowed = framework.run_many(sizes, backend=backend, faults=plan)
        assert _identical_batches(plain.batch_report, slowed.batch_report)
        assert slowed.resilience.availability == 1.0

    def test_non_overlapping_slowdowns_bit_identical_on_engine(self, framework):
        """A slowdown window that never overlaps any service must not
        move a single float, even though the shard routes through the
        fault-aware engine path (`0.0 + duration` is exactly
        `duration`)."""
        healthy = framework.run_many(SIZES)
        far_future = healthy.makespan * 1e3
        plan = FaultPlan(slowdowns=(("ndp", far_future, far_future + 1.0, 2.0),))
        slowed = framework.run_many(SIZES, faults=plan)
        assert _identical_batches(healthy.batch_report, slowed.batch_report)
        assert set(slowed.batch_report.backend_jobs) == {"engine"}

    def test_slowdown_determinism_across_frameworks(self):
        plan = slowdown_fault_plan(
            ["ndp"], mtbf=0.002, mttr=0.005, horizon=1.0, factor=2.0, seed=5
        )
        a = NdftFramework().run_many(SIZES, faults=plan)
        b = NdftFramework().run_many(SIZES, faults=plan)
        assert _identical_batches(a.batch_report, b.batch_report)
        assert a.resilience.to_json_dict() == b.resilience.to_json_dict()


class TestCheckpointResume:
    def test_resume_saves_work_on_mid_pipeline_failure(self, framework):
        _healthy, t0, t1 = _ndp_window(framework, SIZES)
        plan = FaultPlan(outages=(("ndp", t0, t1),))
        plain = framework.run_many(
            SIZES, faults=plan, retry=RetryPolicy(max_attempts=4)
        )
        resumed = framework.run_many(
            SIZES, faults=plan, retry=RetryPolicy(max_attempts=4, checkpoint=True)
        )
        assert plain.resilience.work_saved_seconds == 0.0
        assert plain.resilience.resumed_stages == 0
        res = resumed.resilience
        assert res.availability == 1.0
        assert res.resumed_attempts >= 1
        assert res.resumed_stages >= 1
        assert res.work_saved_seconds > 0.0
        # Each resumed attempt skipped exactly its frontier, valued at
        # the base schedule's stage times.
        for record in res.attempts:
            if record.frontier:
                assert record.attempt > 1
                assert record.work_saved > 0.0
            else:
                assert record.work_saved == 0.0
        descriptor = res.to_json_dict()
        assert descriptor["resumed_stages"] == res.resumed_stages
        assert descriptor["work_saved_seconds"] == res.work_saved_seconds

    def test_frontier_covers_stages_completed_before_failure(self, framework):
        """The recorded frontier is a downward-closed prefix of the
        chain: everything strictly upstream of the failing stage."""
        _healthy, t0, t1 = _ndp_window(framework, SIZES)
        plan = FaultPlan(outages=(("ndp", t0, t1),))
        res = framework.run_many(
            SIZES, faults=plan, retry=RetryPolicy(checkpoint=True)
        ).resilience
        resumed = [r for r in res.attempts if r.frontier]
        assert resumed
        for record in resumed:
            pipeline = build_pipeline(problem_size(SIZES[record.job_index]))
            order = pipeline.topological_order
            # Downward-closed in the chain: the frontier is exactly the
            # first len(frontier) stages of the topological order.
            assert set(record.frontier) == set(order[: len(record.frontier)])

    def test_no_failure_means_no_change(self, framework):
        """checkpoint=True must be invisible when nothing fails."""
        plan = FaultPlan(outages=(("gpu", 0.0, 1e9),))
        plain = framework.run_many(SIZES, faults=plan, retry=RetryPolicy())
        checkpointed = framework.run_many(
            SIZES, faults=plan, retry=RetryPolicy(checkpoint=True)
        )
        assert _identical_batches(
            plain.batch_report, checkpointed.batch_report
        )
        assert checkpointed.resilience.resumed_stages == 0
        assert checkpointed.resilience.work_saved_seconds == 0.0

    def test_resume_deterministic_across_frameworks_and_calls(self):
        plan = poisson_fault_plan(
            ["ndp"], mtbf=0.005, mttr=0.002, horizon=1.0, seed=9
        )
        retry = RetryPolicy(max_attempts=5, checkpoint=True)

        def frontiers(result):
            return [
                (r.job_index, r.attempt, r.frontier, r.work_saved)
                for r in result.resilience.attempts
            ]

        fresh_a = NdftFramework().run_many(SIZES, faults=plan, retry=retry)
        fresh_b = NdftFramework().run_many(SIZES, faults=plan, retry=retry)
        assert frontiers(fresh_a) == frontiers(fresh_b)
        assert _identical_batches(fresh_a.batch_report, fresh_b.batch_report)
        repeat = NdftFramework()
        first = repeat.run_many(SIZES, faults=plan, retry=retry)
        second = repeat.run_many(SIZES, faults=plan, retry=retry)
        assert frontiers(first) == frontiers(second)
        assert _identical_batches(first.batch_report, second.batch_report)

    def test_resume_on_branching_pipeline(self, framework):
        """Checkpoint/resume through the DAG (k-point) pipeline: the
        residual subgraph schedules and completes."""
        healthy = framework.run_many(
            [256] * 4, pipeline_builder=build_kpoint_pipeline
        )
        intervals = healthy.batch_report.lane_occupancy["ndp"]
        start, end = max(intervals, key=lambda span: span[1] - span[0])
        t0 = start + (end - start) * 0.5
        plan = FaultPlan(outages=(("ndp", t0, t0 + healthy.makespan),))
        result = framework.run_many(
            [256] * 4,
            pipeline_builder=build_kpoint_pipeline,
            faults=plan,
            retry=RetryPolicy(max_attempts=4, checkpoint=True),
        )
        res = result.resilience
        assert res.availability == 1.0
        assert res.work_saved_seconds > 0.0

    def test_residual_pipeline_builder(self):
        pipeline = build_pipeline(problem_size(64))
        order = pipeline.topological_order
        residual = pipeline.residual(order[:2])
        assert residual.topological_order == order[2:]
        assert all(
            e.src not in order[:2] and e.dst not in order[:2]
            for e in residual.edges
        )
        assert residual.structural_hash != pipeline.structural_hash
        # Empty frontier is the identity (same object, caches shared).
        assert pipeline.residual(()) is pipeline
        with pytest.raises(ConfigError, match="unknown stages"):
            pipeline.residual(("nonesuch",))
        with pytest.raises(ConfigError, match="nothing to resume"):
            pipeline.residual(order)


class TestBackoffMax:
    def test_backoff_clamps_at_cap(self):
        retry = RetryPolicy(
            max_attempts=6, backoff_base=0.1, backoff_factor=2.0, backoff_max=0.4
        )
        assert retry.backoff(1) == pytest.approx(0.1)
        assert retry.backoff(2) == pytest.approx(0.2)
        # Boundary: the cap itself is reachable, not overshot.
        assert retry.backoff(3) == 0.4
        assert retry.backoff(4) == 0.4
        assert retry.backoff(6) == 0.4

    def test_backoff_max_absorbs_overflow(self):
        retry = RetryPolicy(
            max_attempts=500, backoff_factor=10.0, backoff_max=5.0
        )
        # 0.1 * 10**499 overflows to inf without the clamp.
        assert retry.backoff(500) == 5.0

    def test_validation(self):
        with pytest.raises(ConfigError, match="backoff_max"):
            RetryPolicy(backoff_base=1.0, backoff_max=0.5)
        assert RetryPolicy(backoff_base=1.0, backoff_max=1.0).backoff(9) == 1.0

    def test_descriptor_roundtrip(self):
        retry = RetryPolicy(backoff_max=2.5, checkpoint=True)
        descriptor = retry.to_json_dict()
        assert descriptor["backoff_max"] == 2.5
        assert descriptor["checkpoint"] is True


class TestPoissonStatisticalSanity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_empirical_means_converge_to_mtbf_mttr(self, seed):
        mtbf, mttr = 4.0, 0.5
        plan = poisson_fault_plan(
            ["ndp"], mtbf=mtbf, mttr=mttr, horizon=50_000.0, seed=seed
        )
        spans = plan.windows_for("ndp")
        assert len(spans) > 1_000
        downs = [end - start for start, end in spans]
        ups = [
            spans[0][0],
            *(nxt[0] - prev[1] for prev, nxt in zip(spans, spans[1:])),
        ]
        mean_down = sum(downs) / len(downs)
        mean_up = sum(ups) / len(ups)
        # ~10k exponential draws: the sample mean sits within a few
        # percent of the parameter; 10% tolerance keeps this stable for
        # any seed while still catching a mis-parameterized draw.
        assert mean_up == pytest.approx(mtbf, rel=0.10)
        assert mean_down == pytest.approx(mttr, rel=0.10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_windows_never_overlap_post_normalization(self, seed):
        plan = poisson_fault_plan(
            ["ndp", "cpu"],
            mtbf=0.5,
            mttr=2.0,  # repairs longer than time-to-failure: dense draw
            horizon=5_000.0,
            seed=seed,
        )
        for lane in ("ndp", "cpu"):
            spans = plan.windows_for(lane)
            for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
                assert s0 < e0
                assert e0 <= s1  # sorted, disjoint


class TestCliFaultSetup:
    @staticmethod
    def _args(**overrides):
        defaults = dict(
            mtbf=None,
            mttr=1.0,
            fault_seed=0,
            fault_horizon=60.0,
            fault_lanes=["ndp"],
            shock_rate=None,
            shock_groups=None,
            slowdown_factor=None,
            checkpoint=False,
        )
        defaults.update(overrides)
        return argparse.Namespace(**defaults)

    def test_no_flags_means_no_plan(self, framework):
        assert _fault_setup(self._args(), framework) == (None, None)

    def test_unknown_fault_lane_rejected_with_valid_set(self, framework):
        with pytest.raises(ConfigError) as excinfo:
            _fault_setup(
                self._args(mtbf=10.0, fault_lanes=["ndp", "npu"]), framework
            )
        message = str(excinfo.value)
        assert "'npu'" in message
        for lane in framework.fault_lanes():
            assert lane in message

    def test_unknown_shock_group_lane_rejected(self, framework):
        with pytest.raises(ConfigError, match="nvlink"):
            _fault_setup(
                self._args(shock_rate=0.1, shock_groups=["ndp,nvlink"]),
                framework,
            )

    def test_composed_flags_build_merged_plan(self, framework):
        plan, retry = _fault_setup(
            self._args(
                mtbf=10.0,
                shock_rate=0.2,
                slowdown_factor=2.0,
                checkpoint=True,
            ),
            framework,
        )
        assert plan.windows_for("ndp")
        assert plan.shock_rate == 0.2
        assert plan.shock_groups == (framework.fault_lanes(),)
        assert plan.slowdowns
        assert retry.checkpoint is True

    def test_checkpoint_without_faults_rejected(self, framework):
        with pytest.raises(ConfigError, match="--checkpoint"):
            _fault_setup(self._args(checkpoint=True), framework)

    def test_fault_lanes_lists_targets_and_wires(self, framework):
        lanes = framework.fault_lanes()
        assert "cpu" in lanes and "ndp" in lanes
        assert "link:cpu-ndp" in lanes
        assert lanes == tuple(sorted(lanes))
