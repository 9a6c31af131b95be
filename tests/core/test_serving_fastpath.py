"""The executor's analytic chain fast path and DES fairness/determinism.

The fast path must be invisible: a single uncontended chain job computed
analytically has to match the full discrete-event simulation bit for bit
(the Fig. 7 totals ride on it).  The one-job batch forced onto the
generator engine is the full-DES reference.

The batch executor's contract at serving scale is fairness and
determinism: contended resources grant FIFO in submission order, and
repeated runs of the same batch are bit-identical.
"""

import pytest

from repro.core.executor import PipelineExecutor
from repro.core.framework import NdftFramework
from repro.core.pipeline import build_kpoint_pipeline, build_pipeline
from repro.core.scheduler import SchedulingPolicy
from repro.dft.workload import problem_size
from repro.hw.engine import Engine


def _engine_report(framework, pipeline, schedule):
    """The job's report from the full generator DES."""
    return framework.executor.execute_many(
        [(pipeline, schedule)], backend="engine"
    ).job_reports[0]


class TestAnalyticChainFastPath:
    @pytest.mark.parametrize("n_atoms", [16, 64, 512, 1024, 2048])
    def test_bit_identical_to_des(self, framework, n_atoms):
        pipeline = build_pipeline(problem_size(n_atoms))
        schedule = framework.scheduler.schedule(pipeline)
        fast = framework.executor.execute(pipeline, schedule)
        des = _engine_report(framework, pipeline, schedule)
        assert fast.total_time == des.total_time  # exact, no tolerance
        assert fast.scheduling_overhead == des.scheduling_overhead
        assert fast.phase_seconds == des.phase_seconds

    @pytest.mark.parametrize(
        "policy",
        [
            SchedulingPolicy.COST_AWARE,
            SchedulingPolicy.NAIVE,
            SchedulingPolicy.ALL_CPU,
            SchedulingPolicy.ALL_NDP,
        ],
    )
    def test_every_policy_matches(self, framework, policy):
        pipeline = build_pipeline(problem_size(256))
        schedule = framework.scheduler.schedule(pipeline, policy)
        fast = framework.executor.execute(pipeline, schedule)
        des = _engine_report(framework, pipeline, schedule)
        assert fast.total_time == des.total_time

    def test_branching_dag_not_eligible(self, framework):
        """A k-point DAG overlaps branches — the analytic serialization
        would overestimate, so it must go through the DES either way."""
        pipeline = build_kpoint_pipeline(problem_size(256), n_kpoints=2)
        assert not PipelineExecutor._is_single_chain(pipeline)
        schedule = framework.scheduler.schedule(pipeline)
        plain = framework.executor.execute(pipeline, schedule)
        observed = _engine_report(framework, pipeline, schedule)
        assert plain.total_time == observed.total_time

    def test_chain_forest_not_eligible(self, framework):
        """``is_chain`` alone admits disjoint chains, which genuinely
        overlap on distinct devices; only a single connected chain takes
        the fast path."""
        chain = build_pipeline(problem_size(64))
        assert PipelineExecutor._is_single_chain(chain)
        assert chain.is_chain and len(chain.entry_stages) == 1


class TestResourceFairness:
    def test_fifo_grant_order_under_contention(self):
        """Waiters are granted strictly in arrival order, never last-in."""
        engine = Engine()
        device = engine.resource(1, "device")
        grants = []

        def job(name, arrival):
            yield engine.timeout(arrival)
            yield device.acquire()
            grants.append(name)
            yield engine.timeout(10.0)
            yield device.release()

        for i, arrival in enumerate([0.0, 1.0, 2.0, 3.0]):
            engine.spawn(job(f"j{i}", arrival))
        engine.run()
        assert grants == ["j0", "j1", "j2", "j3"]

    def test_same_time_requests_grant_in_spawn_order(self):
        engine = Engine()
        device = engine.resource(1, "device")
        grants = []

        def job(name):
            yield device.acquire()
            grants.append(name)
            yield engine.timeout(1.0)
            yield device.release()

        for i in range(5):
            engine.spawn(job(f"j{i}"))
        engine.run()
        assert grants == [f"j{i}" for i in range(5)]

    def test_two_identical_jobs_finish_in_submission_order(self, framework):
        """Two jobs contending for the same devices and wire: the first
        submitted acquires first and therefore finishes no later."""
        batch = framework.run_many([512, 512])
        first, second = (job.report.total_time for job in batch.jobs)
        assert first <= second
        assert batch.makespan == second


class TestBatchDeterminism:
    def test_repeated_execute_many_bit_identical(self):
        """Same batch, fresh frameworks: every reported float matches
        exactly — scheduling, DES arbitration and caching are all
        deterministic."""
        sizes = [64, 1024, 64, 512, 128]
        first = NdftFramework().run_many(sizes)
        second = NdftFramework().run_many(sizes)
        assert first.makespan == second.makespan
        assert first.solo_times == second.solo_times
        assert first.batch_report.job_reports == second.batch_report.job_reports

    def test_repeat_on_same_framework_bit_identical(self, framework):
        sizes = [64, 512, 64]
        first = framework.run_many(sizes)
        second = framework.run_many(sizes)
        assert first.makespan == second.makespan
        assert first.batch_report.job_reports == second.batch_report.job_reports
