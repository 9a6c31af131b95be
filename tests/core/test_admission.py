"""Admission control and the open-queue latency-accounting fixes.

The admission layer (:mod:`repro.core.arrivals` ``AdmissionPolicy`` /
``plan_admission``, consumed by ``NdftFramework.run_many(admission=)``)
must be deterministic, must act only when asked (admission off is
bit-identical to the pre-admission behavior), and must actually bound
the post-shed tail on the serving mix.  This file also pins the
latency-accounting bugfixes that ride along: busy-span throughput and
batching speedup under an open queue, and graceful degenerate (empty /
fully shed) batches in both report classes.
"""

import heapq
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arrivals import (
    ADMISSION_MODES,
    AdmissionDecision,
    AdmissionPolicy,
    plan_admission,
    poisson_arrivals,
)
from repro.core.executor import BatchExecutionReport, PipelineExecutor
from repro.core.framework import NdftFramework
from repro.core.pipeline import build_kpoint_pipeline
from repro.errors import ConfigError
from repro.experiments.scale_serving import job_mix
from repro.fleet.router import route_jobs

#: Every served batch a test here builds must hold check_invariants.
pytestmark = pytest.mark.usefixtures("checked_results")

#: The serve-bench default mix, repeated into a batch.
MIX = (64, 128, 512, 1024)


def _mix(n):
    return [MIX[i % len(MIX)] for i in range(n)]


class TestAdmissionPolicyValidation:
    def test_needs_at_least_one_criterion(self):
        with pytest.raises(ConfigError):
            AdmissionPolicy()

    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigError):
            AdmissionPolicy(slo_p99=1.0, mode="drop")

    def test_rejects_nonpositive_bounds(self):
        with pytest.raises(ConfigError):
            AdmissionPolicy(slo_p99=0.0)
        with pytest.raises(ConfigError):
            AdmissionPolicy(max_queue_depth=0)
        # A bound that never acts, or acts as a value nobody wrote.
        for slo in (float("nan"), float("inf"), True):
            with pytest.raises(ConfigError, match="slo_p99"):
                AdmissionPolicy(slo_p99=slo)
        for depth in (float("nan"), True, 2.5):
            with pytest.raises(ConfigError, match="max_queue_depth"):
                AdmissionPolicy(max_queue_depth=depth)

    def test_json_roundtrip_shape(self):
        policy = AdmissionPolicy(slo_p99=2.0, max_queue_depth=8)
        assert policy.to_json_dict() == {
            "slo_p99": 2.0,
            "max_queue_depth": 8,
            "mode": "shed",
        }


class TestPlanAdmission:
    def test_misaligned_inputs_rejected(self):
        policy = AdmissionPolicy(slo_p99=1.0)
        with pytest.raises(ConfigError):
            plan_admission(policy, [0.0, 1.0], [1.0], [("cpu",)], ["a"])

    def test_slo_sheds_backlogged_lane(self):
        """Three unit jobs on one lane arriving together: the third's
        predicted latency (two queued solos + its own) breaches a 2.5 s
        SLO while the first two fit."""
        policy = AdmissionPolicy(slo_p99=2.5)
        decisions = plan_admission(
            policy,
            [0.0, 0.0, 0.0],
            [1.0, 1.0, 1.0],
            [("cpu",)] * 3,
            ["a", "b", "c"],
        ).decisions
        assert [d.admitted for d in decisions] == [True, True, False]
        assert decisions[2].reason == "slo_p99"
        assert decisions[2].predicted_latency == 3.0

    def test_disjoint_lanes_do_not_interfere(self):
        policy = AdmissionPolicy(slo_p99=1.5)
        decisions = plan_admission(
            policy,
            [0.0, 0.0],
            [1.0, 1.0],
            [("cpu",), ("ndp",)],
            ["a", "b"],
        ).decisions
        assert all(d.admitted for d in decisions)

    def test_queue_depth_bounds_in_flight(self):
        """With depth 1, the second simultaneous arrival is shed even
        though no SLO is set; once the first drains, later arrivals are
        admitted again."""
        policy = AdmissionPolicy(max_queue_depth=1)
        decisions = plan_admission(
            policy,
            [0.0, 0.0, 5.0],
            [1.0, 1.0, 1.0],
            [("cpu",)] * 3,
            ["a", "b", "c"],
        ).decisions
        assert [d.admitted for d in decisions] == [True, False, True]
        assert decisions[1].reason == "queue_depth"

    def test_deprioritize_defers_instead_of_shedding(self):
        policy = AdmissionPolicy(slo_p99=2.5, mode="deprioritize")
        decisions = plan_admission(
            policy,
            [0.0, 0.0, 0.0],
            [1.0, 1.0, 1.0],
            [("cpu",)] * 3,
            ["a", "b", "c"],
        ).decisions
        assert [d.deferred for d in decisions] == [False, False, True]
        # Deferred to the predicted lane drain (two admitted solos).
        assert decisions[2].release == 2.0

    def test_deprioritize_depth_violation_defers_past_a_completion(self):
        """A queue-depth violator whose lanes are idle must still be
        genuinely deferred — at least to the earliest in-flight
        completion — not re-released at its own arrival (which would
        make deprioritize a no-op for depth violations)."""
        policy = AdmissionPolicy(max_queue_depth=1, mode="deprioritize")
        decisions = plan_admission(
            policy,
            [0.0, 0.0],
            [1.0, 1.0],
            [("cpu",), ("ndp",)],  # disjoint lanes: no backlog signal
            ["a", "b"],
        ).decisions
        assert decisions[0].admitted and decisions[1].deferred
        assert decisions[1].reason == "queue_depth"
        assert decisions[1].release == 1.0  # job a's predicted completion

    def test_arrival_ties_break_by_submission_index(self):
        policy = AdmissionPolicy(max_queue_depth=1)
        decisions = plan_admission(
            policy,
            [1.0, 1.0],
            [1.0, 1.0],
            [("cpu",)] * 2,
            ["first", "second"],
        ).decisions
        assert decisions[0].admitted and not decisions[1].admitted

    def test_plan_is_deterministic(self):
        policy = AdmissionPolicy(slo_p99=1.7, max_queue_depth=5)
        arrivals = poisson_arrivals(64, 6.0, seed=3)
        solos = [0.1 + (i % 7) * 0.3 for i in range(64)]
        lanes = [("cpu", "ndp") if i % 2 else ("ndp",) for i in range(64)]
        labels = [f"job{i}" for i in range(64)]
        first = plan_admission(policy, arrivals, solos, lanes, labels)
        second = plan_admission(policy, arrivals, solos, lanes, labels)
        assert first == second


def _per_decision_plan(policy, arrivals, solo_times, lanes, labels):
    """The planner as it was when it built one AdmissionDecision per
    job in three branches: the reference the columnar plan reproduces
    field for field."""
    n = len(arrivals)
    lane_free: dict = {}
    in_flight: list[float] = []
    decisions = [None] * n
    for i in sorted(range(n), key=lambda j: (arrivals[j], j)):
        arrival = float(arrivals[i])
        while in_flight and in_flight[0] <= arrival:
            heapq.heappop(in_flight)
        start = arrival
        for lane in lanes[i]:
            free = lane_free.get(lane)
            if free is not None and free > start:
                start = free
        predicted_completion = start + solo_times[i]
        predicted_latency = predicted_completion - arrival
        reason = None
        if (
            policy.max_queue_depth is not None
            and len(in_flight) >= policy.max_queue_depth
        ):
            reason = "queue_depth"
        elif policy.slo_p99 is not None and predicted_latency > policy.slo_p99:
            reason = "slo_p99"
        if reason is None:
            for lane in lanes[i]:
                lane_free[lane] = predicted_completion
            heapq.heappush(in_flight, predicted_completion)
            decisions[i] = AdmissionDecision(
                i, labels[i], arrival, predicted_latency, True, False, arrival, None
            )
        elif policy.mode == "shed":
            decisions[i] = AdmissionDecision(
                i, labels[i], arrival, predicted_latency, False, False, arrival, reason
            )
        else:
            release = start
            if reason == "queue_depth" and in_flight and in_flight[0] > release:
                release = in_flight[0]
            completion = release + solo_times[i]
            for lane in lanes[i]:
                lane_free[lane] = completion
            decisions[i] = AdmissionDecision(
                i, labels[i], arrival, predicted_latency, False, True, release, reason
            )
    return tuple(decisions)


#: Device and wire lanes a generated job may occupy: jobs drawing
#: overlapping subsets share lanes, others are disjoint.
LANES = ("cpu", "ndp", "link:cpu-ndp")


@st.composite
def planner_inputs(draw):
    """A policy under one of three criterion settings and either mode,
    and a batch whose arrivals often tie (a coarse grid) and whose
    jobs' lanes are shared or disjoint."""
    n = draw(st.integers(1, 24))
    arrivals = draw(
        st.lists(
            st.one_of(
                st.sampled_from((0.0, 0.5, 1.0, 2.0)), st.floats(0.0, 4.0)
            ),
            min_size=n,
            max_size=n,
        )
    )
    solos = draw(st.lists(st.floats(0.01, 2.0), min_size=n, max_size=n))
    lanes = draw(
        st.lists(
            st.sets(st.sampled_from(LANES), min_size=1).map(sorted).map(tuple),
            min_size=n,
            max_size=n,
        )
    )
    criteria = draw(st.sampled_from(("slo", "depth", "both")))
    policy = AdmissionPolicy(
        slo_p99=None if criteria == "depth" else draw(st.floats(0.05, 4.0)),
        max_queue_depth=None if criteria == "slo" else draw(st.integers(1, 4)),
        mode=draw(st.sampled_from(ADMISSION_MODES)),
    )
    return policy, arrivals, solos, lanes, [f"job{i}" for i in range(n)]


def _assert_router_agrees(arrivals, solos, lanes):
    """With one replica and a policy that never binds, the router's
    predicted completion minus the arrival is the planner's predicted
    latency, to the last bit."""
    n = len(arrivals)
    result = plan_admission(
        AdmissionPolicy(max_queue_depth=n), arrivals, solos, lanes, ["j"] * n
    )
    assert result.admitted == n
    routed = route_jobs(1, arrivals, solos, lanes)
    assert result.predicted_latencies == tuple(
        completion - arrival
        for completion, arrival in zip(routed.predicted_completions, arrivals)
    )


class TestPlannerReferences:
    @given(case=planner_inputs())
    @settings(max_examples=200, deadline=None)
    def test_columns_match_the_per_decision_planner(self, case):
        result = plan_admission(*case)
        reference = _per_decision_plan(*case)
        assert result.decisions == reference
        shed = [d for d in reference if not d.admitted and not d.deferred]
        executed = [d for d in reference if d.admitted or d.deferred]
        assert result.n_submitted == len(reference)
        assert result.admitted == sum(d.admitted for d in reference)
        assert result.deferred == sum(d.deferred for d in reference)
        assert result.shed == len(shed)
        assert result.shed_labels == tuple(d.label for d in shed)
        assert result.counted_indices == tuple(
            position for position, d in enumerate(executed) if d.admitted
        )

    @given(case=planner_inputs())
    @settings(max_examples=100, deadline=None)
    def test_router_applies_the_admission_backlog_model(self, case):
        _policy, arrivals, solos, lanes, _labels = case
        _assert_router_agrees(arrivals, solos, lanes)

    @pytest.fixture(scope="class")
    def kpoint_estimates(self):
        sizes = job_mix(1024)
        return NdftFramework().job_estimates(sizes, build_kpoint_pipeline)

    @pytest.mark.parametrize("tied", [False, True], ids=["poisson", "tied"])
    def test_router_applies_the_admission_backlog_model_on_kpoint_jobs(
        self, kpoint_estimates, tied
    ):
        solos, lanes = kpoint_estimates
        arrivals = poisson_arrivals(len(solos), 3.0, seed=0)
        if tied:  # whole seconds: many jobs arrive together
            arrivals = [float(math.floor(a)) for a in arrivals]
        _assert_router_agrees(arrivals, solos, lanes)


class TestRunManyAdmission:
    @pytest.fixture(scope="class")
    def overload(self):
        """The default serve-bench mix offered well past its ~3.5 jobs/s
        saturation knee."""
        sizes = _mix(128)
        return sizes, poisson_arrivals(len(sizes), 5.0, seed=0)

    def test_admission_requires_arrivals(self):
        framework = NdftFramework()
        with pytest.raises(ConfigError):
            framework.run_many(
                [64, 128], admission=AdmissionPolicy(slo_p99=1.0)
            )
        # A non-finite offset predicts no backlog, so the controller
        # would admit a job that completes at nan or inf; a negative one
        # would pass admission and fail only in the executor.
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ConfigError, match="finite"):
                framework.run_many(
                    [64, 128, 512],
                    arrivals=[0.0, bad, 1.0],
                    admission=AdmissionPolicy(slo_p99=2.0),
                )

    def test_post_shed_p99_meets_the_slo(self, overload):
        """The acceptance criterion: past the knee, an SLO below the
        unshed p99 is actually met after shedding, and the shed set is
        visible (counts + labels)."""
        sizes, arrivals = overload
        framework = NdftFramework()
        unshed = framework.run_many(sizes, arrivals=arrivals)
        slo = 2.0
        assert unshed.p99_latency > slo  # the SLO genuinely binds
        shed = framework.run_many(
            sizes, arrivals=arrivals, admission=AdmissionPolicy(slo_p99=slo)
        )
        admission = shed.admission
        assert admission is not None
        assert admission.shed > 0
        assert admission.admitted + admission.shed == len(sizes)
        assert admission.shed_labels
        assert len(admission.shed_labels) == admission.shed
        assert shed.n_jobs == admission.admitted
        assert shed.p99_latency <= slo
        assert shed.slo_p99_latency == shed.p99_latency  # shed mode
        assert 0.0 < admission.shed_rate < 1.0

    def test_lane_utilization_identifies_the_saturated_lane(self, overload):
        """Past the knee the NDP units are the bottleneck of the default
        mix: their lane reads near-1.0 utilization and dominates every
        other lane; shedding visibly relieves it."""
        sizes, arrivals = overload
        framework = NdftFramework()
        unshed = framework.run_many(sizes, arrivals=arrivals)
        utilization = unshed.lane_utilization
        dominant = max(utilization, key=utilization.get)
        assert dominant == "ndp"
        assert utilization["ndp"] > 0.9
        assert all(
            utilization[lane] < utilization["ndp"]
            for lane in utilization
            if lane != "ndp"
        )
        shed = framework.run_many(
            sizes, arrivals=arrivals, admission=AdmissionPolicy(slo_p99=2.0)
        )
        assert shed.lane_utilization["ndp"] < utilization["ndp"]

    def test_same_seed_and_slo_shed_the_same_set(self, overload):
        """Admission-policy determinism: the shed set is a pure function
        of (arrivals, policy), across calls and across frameworks."""
        sizes, arrivals = overload
        policy = AdmissionPolicy(slo_p99=2.0)
        first = NdftFramework().run_many(
            sizes, arrivals=arrivals, admission=policy
        )
        second = NdftFramework().run_many(
            sizes, arrivals=arrivals, admission=policy
        )
        assert first.admission.decisions == second.admission.decisions
        assert first.admission.shed_labels == second.admission.shed_labels
        assert first.completion_latencies == second.completion_latencies

    def test_serving_builds_no_decision(self, overload, monkeypatch):
        """The record is columns: serving an admitted batch builds no
        AdmissionDecision, and reading ``decisions`` builds exactly one
        per submitted job."""
        built = []
        init = AdmissionDecision.__init__

        def counted(self, *args, **kwargs):
            built.append(None)
            init(self, *args, **kwargs)

        monkeypatch.setattr(AdmissionDecision, "__init__", counted)
        sizes, arrivals = overload
        result = NdftFramework().run_many(
            sizes, arrivals=arrivals, admission=AdmissionPolicy(slo_p99=2.0)
        )
        assert result.admission.shed > 0
        assert built == []
        decisions = result.admission.decisions
        assert len(built) == len(decisions) == result.admission.n_submitted

    def test_admission_off_is_bit_identical(self, overload):
        """run_many without admission= must reproduce the pre-admission
        behavior exactly: same reports, same backend selection, same
        latencies."""
        sizes, arrivals = overload
        plain = NdftFramework().run_many(sizes, arrivals=arrivals)
        explicit = NdftFramework().run_many(
            sizes, arrivals=arrivals, admission=None
        )
        assert explicit.admission is None
        assert explicit.makespan == plain.makespan
        assert explicit.solo_times == plain.solo_times
        assert (
            explicit.batch_report.job_reports == plain.batch_report.job_reports
        )
        assert explicit.batch_report.backend_jobs == plain.batch_report.backend_jobs
        assert explicit.slo_latencies == explicit.completion_latencies

    def test_deprioritize_executes_everything(self, overload):
        """deprioritize mode sheds nothing: every submitted job runs,
        deferred ones at their predicted drain, and only admitted jobs
        count toward the SLO percentiles."""
        sizes, arrivals = overload
        result = NdftFramework().run_many(
            sizes,
            arrivals=arrivals,
            admission=AdmissionPolicy(slo_p99=2.0, mode="deprioritize"),
        )
        admission = result.admission
        assert admission.shed == 0
        assert admission.deferred > 0
        assert result.n_jobs == len(sizes)
        assert len(result.slo_latencies) == admission.admitted
        # Deferred releases never precede the job's arrival.
        for decision in admission.decisions:
            assert decision.release >= decision.arrival

    def test_shedding_everything_degrades_gracefully(self):
        """An SLO below every solo time sheds the whole batch: the
        result is empty but every accessor still answers."""
        sizes = _mix(8)
        arrivals = poisson_arrivals(len(sizes), 2.0, seed=0)
        result = NdftFramework().run_many(
            sizes, arrivals=arrivals, admission=AdmissionPolicy(slo_p99=1e-9)
        )
        assert result.n_jobs == 0
        assert result.admission.shed == len(sizes)
        assert result.admission.shed_rate == 1.0
        assert result.completion_latencies == ()
        assert result.p50_latency == 0.0
        assert result.p99_latency == 0.0
        assert result.slo_p99_latency == 0.0
        assert result.mean_queueing_delay == 0.0
        assert result.throughput == 0.0
        assert result.makespan == 0.0
        assert result.batching_speedup == 1.0
        assert result.lane_utilization == {}


class TestBusySpanAccounting:
    """The open-queue throughput/speedup bugfix: shared-machine time is
    the busy span (first release -> last completion), not the makespan
    with its idle arrival ramp."""

    def test_open_queue_throughput_excludes_arrival_ramp(self):
        sizes = _mix(16)
        # A long idle ramp: nothing is released before t=100.
        arrivals = [100.0 + offset for offset in poisson_arrivals(16, 2.0)]
        result = NdftFramework().run_many(sizes, arrivals=arrivals)
        span = result.makespan - min(arrivals)
        assert result.busy_span == span
        assert result.throughput == len(sizes) / span
        assert result.batching_speedup == result.serial_time / span
        # The ramp would have more than halved the reported rate.
        assert result.throughput > 2 * len(sizes) / result.makespan

    def test_closed_batch_unchanged(self):
        """The t=0 batch is the documented special case: busy span ==
        makespan, so throughput and speedup are exactly the pre-fix
        values."""
        result = NdftFramework().run_many(_mix(8))
        assert result.busy_span == result.makespan
        assert result.throughput == result.n_jobs / result.makespan
        assert (
            result.batching_speedup == result.serial_time / result.makespan
        )

    def test_executor_report_agrees(self, framework):
        from repro.core.pipeline import build_pipeline
        from repro.dft.workload import problem_size

        pipeline = framework._build_pipeline(problem_size(64), build_pipeline)
        schedule = framework._record_for(
            pipeline, framework.job_signature(pipeline)
        ).schedule
        jobs = [(pipeline, schedule)] * 4
        arrivals = [3.0, 3.5, 4.0, 4.5]
        report = framework.executor.execute_many(jobs, arrivals=arrivals)
        assert report.first_release == 3.0
        assert report.busy_span == report.makespan - 3.0

    def test_empty_report_degrades_gracefully(self):
        report = BatchExecutionReport(completion_times=(), makespan=0.0, arrivals=())
        assert report.n_jobs == 0
        assert report.completion_latencies == ()
        assert report.first_release == 0.0
        assert report.busy_span == 0.0
        assert report.lane_busy_seconds == {}
        assert report.lane_utilization == {}


class TestScheduleLanes:
    def test_lanes_cover_devices_and_wires(self, framework):
        from repro.core.pipeline import build_pipeline
        from repro.dft.workload import problem_size

        pipeline = framework._build_pipeline(problem_size(512), build_pipeline)
        schedule = framework._record_for(
            pipeline, framework.job_signature(pipeline)
        ).schedule
        lanes = PipelineExecutor.schedule_lanes(schedule)
        assert set(lanes) == {"cpu", "ndp", "link:cpu-ndp"}
        # Deterministic (sorted) so admission plans are reproducible.
        assert list(lanes) == sorted(lanes)
