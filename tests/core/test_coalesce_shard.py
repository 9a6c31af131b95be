"""Scale-out batch DES: coalescing equivalence and arrivals.

The serving fast path (signature-coalesced super-jobs replayed FIFO) is
an optimization, never an approximation: every per-job report and the
makespan must match the uncollapsed generator DES bit for bit —
property-checked here over random chain/DAG batches, with and without
arrival processes.  Chains run on the DAG replay as one segment per
job, so the exact-time tie storms on hand-built chains below pin its
compacted stage boundaries.  Forcing ``backend="engine"`` runs the
uncollapsed DES, which is how the reference results are obtained.
"""

import random

import pytest

from repro.core.arrivals import AdmissionPolicy, percentile, poisson_arrivals
from repro.core.faults import FaultPlan
from repro.core.framework import NdftFramework, queueing_delays
from repro.core.pipeline import build_kpoint_pipeline, build_pipeline
from repro.core.scheduler import SchedulingPolicy
from repro.dft.workload import problem_size
from repro.errors import ConfigError, SimulationError

#: Every served batch a test here builds must hold check_invariants.
pytestmark = pytest.mark.usefixtures("checked_results")

SIZES = (16, 64, 128, 512, 1024)


def _jobs(framework, entries):
    """(pipeline, schedule) pairs resolved through the framework caches,
    so duplicate entries share objects — the coalescing precondition."""
    jobs = []
    for n_atoms, builder in entries:
        pipeline = framework._build_pipeline(problem_size(n_atoms), builder)
        schedule = framework._record_for(
            pipeline, framework.job_signature(pipeline)
        ).schedule
        jobs.append((pipeline, schedule))
    return jobs


def _random_entries(rng, n_jobs, dag_fraction=0.25):
    return [
        (
            rng.choice(SIZES),
            build_kpoint_pipeline
            if rng.random() < dag_fraction
            else build_pipeline,
        )
        for _ in range(n_jobs)
    ]


class TestCoalesceShardEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_batches_identical_on_vs_off(self, framework, seed):
        """Random mixed chain/DAG batches: fast path vs the forced
        engine — every float identical."""
        rng = random.Random(seed)
        jobs = _jobs(framework, _random_entries(rng, rng.randint(2, 32)))
        arrivals = None
        if seed % 2:
            arrivals = [round(rng.random() * 10, 3) for _ in jobs]
        fast = framework.executor.execute_many(jobs, arrivals=arrivals)
        slow = framework.executor.execute_many(
            jobs, arrivals=arrivals, backend="engine"
        )
        assert fast.makespan == slow.makespan
        assert fast.job_reports == slow.job_reports

    def test_pure_batch_is_one_superjob(self, framework):
        jobs = _jobs(framework, [(512, build_pipeline)] * 24)
        fast = framework.executor.execute_many(jobs)
        slow = framework.executor.execute_many(jobs, backend="engine")
        assert fast.n_superjobs == 1
        assert fast.job_reports == slow.job_reports
        assert fast.makespan == slow.makespan

    def test_dag_jobs_take_the_dag_replay_and_match(self, framework):
        jobs = _jobs(framework, [(256, build_kpoint_pipeline)] * 6)
        fast = framework.executor.execute_many(jobs)
        slow = framework.executor.execute_many(jobs, backend="engine")
        # Branching jobs no longer force the generator engine: the DAG
        # replay coalesces the identical replicas into one super-job.
        assert fast.backend_jobs == {"dag_replay": 6}
        assert fast.n_superjobs == 1
        assert slow.backend_jobs == {"engine": 6}
        assert fast.job_reports == slow.job_reports

    def test_run_many_toggles_identical(self):
        sizes = [64, 1024, 64, 512, 128, 64]
        fast = NdftFramework().run_many(sizes)
        slow = NdftFramework().run_many(sizes, backend="engine")
        assert fast.makespan == slow.makespan
        assert fast.solo_times == slow.solo_times
        assert (
            fast.batch_report.job_reports == slow.batch_report.job_reports
        )


def _toy_chain(label, stage_specs, edge_bytes):
    """A hand-built chain pipeline with exact round-number durations,
    for constructing same-instant event ties."""
    from repro.core.ir import function_from_workload
    from repro.core.pipeline import Edge, Pipeline, Stage
    from repro.model import KernelWorkload

    stages = []
    for i, _duration in enumerate(stage_specs):
        workload = KernelWorkload(
            name=f"{label}{i}", flops=1.0, bytes_read=1.0, bytes_written=1.0
        )
        stages.append(
            Stage(
                name=f"{label}{i}",
                workload=workload,
                function=function_from_workload(
                    workload, live_in_bytes=1.0, live_out_bytes=1.0
                ),
            )
        )
    edges = tuple(
        Edge(src=f"{label}{i}", dst=f"{label}{i + 1}", nbytes=nbytes)
        for i, nbytes in enumerate(edge_bytes)
    )
    return Pipeline(
        problem=problem_size(8), stages=tuple(stages), edges=edges
    )


def _toy_schedule(pipeline, placements, durations, cost_model):
    from repro.core.scheduler import Schedule, SchedulingPolicy
    from repro.hw.timing import PhaseTime

    assignments = {
        stage.name: placement
        for stage, placement in zip(pipeline.stages, placements)
    }
    crossing = [
        edge
        for edge in pipeline.edges
        if assignments[edge.src] is not assignments[edge.dst]
    ]
    overhead = sum(
        cost_model.boundary_cost(
            e.nbytes, (assignments[e.src], assignments[e.dst])
        )
        for e in crossing
    )
    stage_times = {
        stage.name: PhaseTime(
            name=stage.name, compute_time=duration, memory_time=duration
        )
        for stage, duration in zip(pipeline.stages, durations)
    }
    return Schedule(
        policy=SchedulingPolicy.COST_AWARE,
        assignments=assignments,
        stage_times=stage_times,
        crossing_bytes=tuple(e.nbytes for e in crossing),
        scheduling_overhead=overhead,
        predicted_total=sum(durations) + overhead,
        crossing_pairs=tuple(
            (assignments[e.src], assignments[e.dst]) for e in crossing
        ),
    )


class TestExactTimeTies:
    """Same-instant event collisions, constructed with round-number
    durations: the replay must resolve them grant-for-grant like the
    engine's seq cascade (a finishing stage reaches its next acquire two
    hops after its completion, a mid-stage transfer only one)."""

    def test_stage_end_vs_transfer_end_tie(self):
        from repro.core.cost_model import OffloadCostModel
        from repro.core.executor import PipelineExecutor
        from repro.core.scheduler import Placement
        from repro.hw.interconnect import HostLink

        cost_model = OffloadCostModel(
            host_link=HostLink(bandwidth=1.0, base_latency=0.0),
            context_switch=0.125,
        )
        executor = PipelineExecutor(cost_model=cost_model)
        # X: cpu 1.0s then cpu 5.0s (no crossing).  Y: ndp 0.5s, then an
        # NDP->CPU transfer of 0.375 bytes (0.375/1.0 + 0.125 = 0.5s),
        # then cpu 3.0s.  Y's transfer and X's first stage both end at
        # exactly t=1.0, and both next want the CPU: the engine grants Y
        # (one-hop mid-stage resume) before X (two-hop stage boundary).
        x = _toy_chain("x", (1.0, 5.0), (0.0,))
        x_schedule = _toy_schedule(
            x, (Placement.CPU, Placement.CPU), (1.0, 5.0), cost_model
        )
        y = _toy_chain("y", (0.5, 3.0), (0.375,))
        y_schedule = _toy_schedule(
            y, (Placement.NDP, Placement.CPU), (0.5, 3.0), cost_model
        )
        jobs = [(x, x_schedule), (y, y_schedule)]
        fast = executor.execute_many(jobs)
        slow = executor.execute_many(jobs, backend="engine")
        assert fast.job_reports == slow.job_reports
        assert fast.makespan == slow.makespan
        # And the tie genuinely resolved in Y's favor (engine semantics).
        assert slow.job_reports[1].total_time == 4.0
        assert slow.job_reports[0].total_time == 9.0

    @pytest.mark.parametrize("order", [0, 1])
    def test_round_number_tie_storms(self, order):
        """Many identical round-number jobs interleaved two ways: every
        completion collides with several others at integer instants."""
        from repro.core.cost_model import OffloadCostModel
        from repro.core.executor import PipelineExecutor
        from repro.core.scheduler import Placement
        from repro.hw.interconnect import HostLink

        cost_model = OffloadCostModel(
            host_link=HostLink(bandwidth=1.0, base_latency=0.0),
            context_switch=0.5,
        )
        executor = PipelineExecutor(cost_model=cost_model)
        a = _toy_chain("a", (1.0, 1.0, 1.0), (0.0, 0.0))
        a_schedule = _toy_schedule(
            a,
            (Placement.CPU, Placement.CPU, Placement.CPU),
            (1.0, 1.0, 1.0),
            cost_model,
        )
        b = _toy_chain("b", (1.0, 1.0), (0.5,))
        b_schedule = _toy_schedule(
            b, (Placement.NDP, Placement.CPU), (1.0, 1.0), cost_model
        )
        jobs = [(a, a_schedule), (b, b_schedule)] * 4
        if order:
            jobs = jobs[::-1]
        for arrivals in (None, [0.0, 1.0] * 4):
            fast = executor.execute_many(jobs, arrivals=arrivals)
            slow = executor.execute_many(
                jobs, arrivals=arrivals, backend="engine"
            )
            assert fast.job_reports == slow.job_reports
            assert fast.makespan == slow.makespan


class TestOneSimulationPerBatch:
    """Every ``execute_many`` call is one simulation by one backend,
    whatever lanes its jobs share."""

    @staticmethod
    def _split_jobs(framework):
        """All-CPU jobs interleaved with all-NDP jobs: the two halves
        occupy disjoint lanes."""
        pipeline = framework._build_pipeline(problem_size(64), build_pipeline)
        cpu_only = framework.scheduler.schedule(
            pipeline, SchedulingPolicy.ALL_CPU
        )
        ndp_only = framework.scheduler.schedule(
            pipeline, SchedulingPolicy.ALL_NDP
        )
        return [(pipeline, cpu_only), (pipeline, ndp_only)] * 3

    def test_disjoint_placements_run_as_one_simulation(self, framework):
        jobs = self._split_jobs(framework)
        fast = framework.executor.execute_many(jobs)
        slow = framework.executor.execute_many(jobs, backend="engine")
        assert [(t.backend, t.n_jobs, t.n_superjobs)
                for t in fast.backend_timings] == [("dag_replay", 6, 2)]
        assert fast.backend_jobs == {"dag_replay": 6}
        assert fast.job_reports == slow.job_reports
        assert fast.makespan == slow.makespan
        assert fast.lane_occupancy == slow.lane_occupancy

    def test_disjoint_placements_do_not_interact(self, framework):
        """Jobs on disjoint lanes finish at the same instants whether
        they run together or alone."""
        jobs = self._split_jobs(framework)
        together = framework.executor.execute_many(jobs)
        cpu_alone = framework.executor.execute_many(jobs[0::2])
        ndp_alone = framework.executor.execute_many(jobs[1::2])
        assert together.job_reports[0::2] == cpu_alone.job_reports
        assert together.job_reports[1::2] == ndp_alone.job_reports
        assert together.lane_occupancy == {
            **cpu_alone.lane_occupancy,
            **ndp_alone.lane_occupancy,
        }

    def test_cost_aware_mix_is_one_simulation(self, framework):
        """The default mix offloads every job across CPU+NDP+link: one
        simulation, one super-job per size."""
        jobs = _jobs(
            framework, [(n, build_pipeline) for n in (64, 128, 512, 1024)]
        )
        report = framework.executor.execute_many(jobs)
        assert [(t.n_jobs, t.n_superjobs) for t in report.backend_timings] == [
            (4, 4)
        ]
        assert report.n_superjobs == 4

    def test_forced_engine_runs_every_job_uncollapsed(self, framework):
        """The reference path spawns every job as engine processes of
        its own, from the batch's compiled super-job programs."""
        jobs = _jobs(framework, [(64, build_pipeline)] * 4)
        auto = framework.executor.execute_many(jobs)
        forced = framework.executor.execute_many(jobs, backend="engine")
        assert auto.n_superjobs == 1
        assert forced.n_superjobs == 1
        assert forced.backend_jobs == {"engine": 4}
        assert [(t.backend, t.n_superjobs)
                for t in forced.backend_timings] == [("engine", 1)]
        assert forced.job_reports == auto.job_reports


class TestArrivals:
    def test_poisson_arrivals_deterministic_and_monotone(self):
        a = poisson_arrivals(100, rate=2.0, seed=7)
        b = poisson_arrivals(100, rate=2.0, seed=7)
        assert a == b
        assert all(x <= y for x, y in zip(a, a[1:]))
        assert poisson_arrivals(100, rate=2.0, seed=8) != a
        with pytest.raises(ConfigError):
            poisson_arrivals(0, rate=1.0)
        with pytest.raises(ConfigError):
            poisson_arrivals(10, rate=0.0)

    def test_percentile(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == 2.5
        assert percentile([5.0], 99) == 5.0
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile(values, 101)

    def test_open_queue_latency_metrics(self, framework):
        sizes = [64, 128, 512, 1024] * 4
        arrivals = poisson_arrivals(len(sizes), rate=1.0, seed=3)
        batch = framework.run_many(sizes, arrivals=arrivals)
        assert batch.arrivals == arrivals
        assert len(batch.completion_latencies) == len(sizes)
        for latency, arrival, job in zip(
            batch.completion_latencies, arrivals, batch.jobs
        ):
            assert latency == job.report.total_time - arrival
            assert job.report.total_time >= arrival
        assert batch.p50_latency <= batch.p99_latency
        assert batch.p99_latency <= max(batch.completion_latencies)
        # Queueing delay is latency minus the unloaded solo time, and
        # exactly zero where that difference is float cancellation.
        for delay, latency, solo, arrival in zip(
            batch.queueing_delays,
            batch.completion_latencies,
            batch.solo_times,
            arrivals,
        ):
            slack = 1e-9 * max(1.0, solo) + 1e-12 * (arrival + latency)
            if abs(latency - solo) <= slack:
                assert delay == 0.0
            else:
                assert delay == latency - solo
            assert delay >= 0.0

    @pytest.mark.parametrize("start", [0.0, 1e7, 1.7e9])
    def test_spaced_arrivals_have_exactly_zero_queueing_delay(
        self, framework, start
    ):
        """Arrivals far apart leave every job uncontended, so each delay
        is exactly 0.0, not the residue of latency - solo: ~1e-12 s near
        t=0, and far from it an ulp of the absolute time per task end
        (~1e-9 s at 1e7 s, ~1e-7 s at an epoch timestamp), which must
        not raise either."""
        sizes = [64, 512, 1024, 128, 64, 512]
        arrivals = [start + i * 1e4 for i in range(len(sizes))]
        batch = framework.run_many(sizes, arrivals=arrivals)
        assert batch.queueing_delays == (0.0,) * len(sizes)
        assert batch.mean_queueing_delay == 0.0

    def test_job_faster_than_solo_raises(self):
        assert queueing_delays([1.0 - 1e-12, 2.5], [1.0, 2.0]) == (0.0, 0.5)
        assert queueing_delays([0.5 - 1e-7], [0.5], [1.7e9]) == (0.0,)
        with pytest.raises(SimulationError, match="less than its solo time"):
            queueing_delays([0.5], [1.0])
        with pytest.raises(SimulationError, match="less than its solo time"):
            queueing_delays([0.5 - 1e-7], [0.5], [1e3])

    def test_zero_arrivals_match_closed_batch(self):
        sizes = [64, 512, 64, 1024]
        closed = NdftFramework().run_many(sizes)
        open_q = NdftFramework().run_many(sizes, arrivals=[0.0] * len(sizes))
        assert closed.makespan == open_q.makespan
        assert (
            closed.batch_report.job_reports == open_q.batch_report.job_reports
        )

    def test_late_arrival_queues_behind_nobody(self, framework):
        """A job released after the batch drains runs at solo speed."""
        solo = framework.run(n_atoms=64).total_time
        batch = framework.run_many([64, 64], arrivals=[0.0, 1e6])
        late = batch.jobs[1].report.total_time
        assert late == pytest.approx(1e6 + solo, rel=1e-12)

    def test_arrival_validation(self, framework):
        # One check on every run_many path: plain, faulted and under
        # admission control raise the same ConfigError for the same list.
        paths = (
            {},
            {"faults": FaultPlan()},
            {"admission": AdmissionPolicy(slo_p99=1e9)},
        )
        for kwargs in paths:
            with pytest.raises(ConfigError, match="arrival offsets"):
                framework.run_many([64, 64], arrivals=[0.0], **kwargs)
            with pytest.raises(ConfigError, match="non-negative"):
                framework.run_many([64, 64], arrivals=[0.0, -1.0], **kwargs)
        # A non-finite offset would complete at nan or inf, and each
        # backend would report a different wrong number.
        for bad in (float("nan"), float("inf"), float("-inf")):
            for backend in (None, "engine"):
                with pytest.raises(ConfigError, match="finite"):
                    framework.run_many(
                        [64, 128, 512], arrivals=[0.0, bad, 1.0], backend=backend
                    )

    def test_placement_respects_arrival_order_not_submission(self, framework):
        """Arrival order wins FIFO: a later-submitted job arriving first
        is served first on the contended device."""
        batch = framework.run_many([512, 512], arrivals=[5.0, 0.0])
        first, second = (job.report.total_time for job in batch.jobs)
        assert second < first
