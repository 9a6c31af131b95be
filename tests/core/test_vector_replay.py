"""The vectorized wave-replay backend and per-batch backend timings.

``vector_replay`` (:mod:`repro.hw.vector_replay`, registered in
:mod:`repro.core.backends`) computes a single-signature coalesced
batch's whole FIFO timetable as numpy recurrences over the (replica,
stage-occupancy) grid.  The backend contract pinned here is the one
PRs 3-5 established for the event-driven replays: bit-identical
completion floats *and* bit-identical ``lane_occupancy`` intervals
versus every other backend on any batch it accepts, a reasoned decline
(never a silent approximation) on any batch it cannot prove, and a
forced-unsupported error that names *why*.  The second half covers
the wall timing on the batch report and the static batch-shape rule
(:func:`repro.core.backends.selection_order`) that picks which backend
an unforced batch tries first.
"""

import random

import pytest

from tests.core.dag_helpers import random_pipeline
from repro.core.backends import (
    _ZERO_DURATION_REASON,
    FAULT_PLAN_REASON,
    UNPROVABLE_TIE_REASON,
    VECTOR_MIN_JOBS,
    DagReplayBackend,
    VectorReplayBackend,
    backend_names,
    get_backend,
)
from repro.core.executor import PipelineExecutor, ShardTiming
from repro.core.arrivals import AdmissionPolicy, poisson_arrivals
from repro.core.faults import FaultPlan, RetryPolicy, poisson_fault_plan
from repro.core.framework import NdftFramework
from repro.core.pipeline import build_kpoint_pipeline, build_pipeline
from repro.dft.workload import problem_size
from repro.errors import SimulationError

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


def _kpoint_builder(n_kpoints):
    def build(problem):
        return build_kpoint_pipeline(problem, n_kpoints)

    return build


def _zero_duration_toy_jobs(count):
    """An executor and ``count`` replicas of a toy fan-out DAG whose
    middle stage has zero duration, which every replay declines."""
    from tests.core.test_dag_replay import (
        _round_cost_model,
        _toy_dag,
        _toy_schedule,
    )
    from repro.core.scheduler import Placement

    cost_model = _round_cost_model()
    pipeline = _toy_dag(
        "z", ("a", "b", "c"), (("a", "b", 0.0), ("a", "c", 0.0))
    )
    schedule = _toy_schedule(
        pipeline,
        (Placement.CPU, Placement.CPU, Placement.NDP),
        (1.0, 0.0, 1.0),
        cost_model,
    )
    return PipelineExecutor(cost_model=cost_model), [(pipeline, schedule)] * count


def _identical(a, b):
    return (
        a.makespan == b.makespan
        and a.job_reports == b.job_reports
        and a.lane_occupancy == b.lane_occupancy
    )


class TestVectorReplayEquivalence:
    """Bit-identity versus all three existing backends on supported
    shards: closed t=0 batches and ultra-tight arrival jitter, chain
    and k-point templates, across replica counts."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_chain_batches_identical_all_backends(
        self, framework, seed
    ):
        rng = random.Random(seed)
        count = rng.randint(20, 200)
        jobs = _jobs(framework, [(rng.choice(SIZES), build_pipeline)] * count)
        arrivals = None
        if seed % 2:
            # Jitter far inside the first stage wave: supported.
            arrivals = [round(rng.random() * 1e-7, 12) for _ in jobs]
        vector = framework.executor.execute_many(
            jobs, arrivals=arrivals, backend="vector_replay"
        )
        assert vector.backend_jobs == {"vector_replay": count}
        assert vector.n_superjobs == 1
        for other in ("dag_replay", "engine"):
            reference = framework.executor.execute_many(
                jobs, arrivals=arrivals, backend=other
            )
            assert _identical(vector, reference)
        assert vector.lane_occupancy  # the accounting is actually on

    @pytest.mark.parametrize("seed", [10, 11, 12, 13, 14])
    def test_random_kpoint_batches_identical(self, framework, seed):
        rng = random.Random(seed)
        count = rng.randint(20, 200)
        builder = _kpoint_builder(rng.choice((2, 3, 4)))
        jobs = _jobs(framework, [(rng.choice(SIZES), builder)] * count)
        arrivals = None
        if seed % 2:
            arrivals = [round(rng.random() * 1e-7, 12) for _ in jobs]
        vector = framework.executor.execute_many(
            jobs, arrivals=arrivals, backend="vector_replay"
        )
        assert vector.backend_jobs == {"vector_replay": count}
        for other in ("dag_replay", "engine"):
            reference = framework.executor.execute_many(
                jobs, arrivals=arrivals, backend=other
            )
            assert _identical(vector, reference)

    def test_equal_arrival_tie_storm_identical(self, framework):
        """Every replica released at the same instant: every wave is
        wall-to-wall same-instant boundary ties, granted in the
        engine's replica order."""
        jobs = _jobs(framework, [(64, build_pipeline)] * 300)
        arrivals = [0.0] * 300
        vector = framework.executor.execute_many(
            jobs, arrivals=arrivals, backend="vector_replay"
        )
        engine = framework.executor.execute_many(
            jobs, arrivals=arrivals, backend="engine"
        )
        assert _identical(vector, engine)

    def test_wide_arrivals_decline_and_auto_falls_back(self, framework):
        """Arrival spread past the first wave makes later replicas'
        entry requests interleave with earlier replicas' downstream
        waves — not a wave order.  Forcing raises the reasoned error;
        auto selection falls back bit-identically."""
        jobs = _jobs(framework, [(64, build_pipeline)] * 60)
        arrivals = [round(i * 0.01, 4) for i in range(60)]
        with pytest.raises(SimulationError, match="same-instant tie"):
            framework.executor.execute_many(
                jobs, arrivals=arrivals, backend="vector_replay"
            )
        auto = framework.executor.execute_many(jobs, arrivals=arrivals)
        engine = framework.executor.execute_many(
            jobs, arrivals=arrivals, backend="engine"
        )
        assert _identical(auto, engine)

    def test_clustered_arrival_ties_decline_identically(self, framework):
        """Two equal-arrival clusters: the second cluster's entry
        requests land mid-backlog, which the wave verification
        refuses; the fallback path must still be exact."""
        jobs = _jobs(framework, [(128, build_pipeline)] * 80)
        arrivals = [0.0] * 40 + [1.0] * 40
        auto = framework.executor.execute_many(jobs, arrivals=arrivals)
        engine = framework.executor.execute_many(
            jobs, arrivals=arrivals, backend="engine"
        )
        assert _identical(auto, engine)


class TestForcedUnsupportedReasons:
    """``execute_many(backend=...)`` on an unsupported shard must say
    *why* — each decline class has its own message."""

    def test_cross_signature_interleaving_reason(self, framework):
        jobs = _jobs(
            framework, [(64, build_pipeline)] * 3 + [(128, build_pipeline)] * 3
        )
        with pytest.raises(
            SimulationError,
            match=r"cross-signature interleaving.*2 super-jobs",
        ):
            framework.executor.execute_many(jobs, backend="vector_replay")

    def test_zero_duration_reason(self):
        executor, jobs = _zero_duration_toy_jobs(3)
        with pytest.raises(
            SimulationError, match="non-positive duration"
        ):
            executor.execute_many(jobs, backend="vector_replay")
        with pytest.raises(
            SimulationError, match="non-positive duration"
        ):
            executor.execute_many(jobs, backend="dag_replay")

    def test_tie_interleaving_reason(self, framework):
        jobs = _jobs(framework, [(64, build_pipeline)] * 40)
        arrivals = [round(i * 0.01, 4) for i in range(40)]
        with pytest.raises(
            SimulationError, match="same-instant tie"
        ):
            framework.executor.execute_many(
                jobs, arrivals=arrivals, backend="vector_replay"
            )


class TestLateDeclineLeavesNoTrace:
    """A decline is a bare ``None`` from ``simulate``: a backend only
    returns results, so the fallback backend starts from a clean
    slate."""

    def test_direct_simulate_decline_returns_none(self, framework):
        jobs = _jobs(framework, [(64, build_pipeline)] * 30)
        arrivals = [round(i * 0.01, 4) for i in range(30)]
        backend = get_backend("vector_replay")
        result = backend.simulate(
            framework.executor.compile_batch(jobs), arrivals
        )
        assert result is None

    def test_direct_simulate_mixed_signature_decline(self, framework):
        jobs = _jobs(
            framework, [(64, build_pipeline), (128, build_pipeline)]
        )
        backend = get_backend("vector_replay")
        assert (
            backend.simulate(framework.executor.compile_batch(jobs), None)
            is None
        )


class TestBackendTimings:
    """Wall observability: the batch's ``backend_timings`` row with
    its features and the per-backend ``backend_wall_seconds`` rollup."""

    def test_execute_many_records_shard_timings(self, framework):
        jobs = _jobs(framework, [(64, build_pipeline)] * 5)
        report = framework.executor.execute_many(jobs)
        assert len(report.backend_timings) == 1
        timing = report.backend_timings[0]
        assert isinstance(timing, ShardTiming)
        assert timing.backend == "dag_replay"
        assert timing.wall_seconds > 0.0
        assert timing.n_jobs == 5
        assert timing.n_superjobs == 1

    def test_backend_wall_seconds_rolls_up_by_backend(self, framework):
        jobs = _jobs(framework, [(64, build_kpoint_pipeline)] * 4)
        report = framework.executor.execute_many(jobs)
        wall = report.backend_wall_seconds
        assert set(wall) == {"dag_replay"}
        assert wall["dag_replay"] == sum(
            t.wall_seconds
            for t in report.backend_timings
            if t.backend == "dag_replay"
        )

    def test_observer_path_reports_engine_timing(self, framework):
        """The uncollapsed engine path reports its wall time like any
        other backend."""
        jobs = _jobs(framework, [(64, build_pipeline)] * 3)
        report = framework.executor.execute_many(jobs, backend="engine")
        assert [t.backend for t in report.backend_timings] == ["engine"]
        assert report.backend_wall_seconds["engine"] > 0.0

    def test_every_path_reports_one_row_per_call(self, framework):
        """Whichever backend times the batch — including a batch under
        a fault plan — the call reports exactly one row covering all of
        it."""
        mixed = _jobs(
            framework, [(n, build_pipeline) for n in (64, 128, 512)] * 2
        )
        single = _jobs(framework, [(64, build_pipeline)] * VECTOR_MIN_JOBS)
        ndp = framework.executor.execute_many(mixed).lane_occupancy["ndp"]
        start, end = ndp[0]
        outage = FaultPlan(outages=(("ndp", (start + end) / 2, end),))
        cases = (
            (mixed, {}, "dag_replay", 3),
            (single, {}, "vector_replay", 1),
            (mixed, {"backend": "engine"}, "engine", 3),
            (mixed, {"faults": outage}, "dag_replay", 3),
        )
        for jobs, kwargs, backend, n_superjobs in cases:
            report = framework.executor.execute_many(jobs, **kwargs)
            assert [
                (t.backend, t.n_jobs, t.n_superjobs)
                for t in report.backend_timings
            ] == [(backend, len(jobs), n_superjobs)]
            assert report.backend_jobs == {backend: len(jobs)}

    def test_framework_backend_stats_include_wall_seconds(self):
        framework = NdftFramework()
        stats = framework.backend_stats
        for name in backend_names():
            assert stats[f"{name}_wall_seconds"] == 0.0
        framework.run_many([64, 128, 512])
        stats = framework.backend_stats
        assert stats["dag_replay_wall_seconds"] > 0.0
        assert stats["engine_wall_seconds"] == 0.0


class TestSelectionRule:
    """The static shard-shape rule
    (:func:`repro.core.backends.selection_order`): only closed
    single-signature shards of at least ``VECTOR_MIN_JOBS`` jobs try
    ``vector_replay`` first; every other shard walks the registry
    order, so an open queue never pays for ``vector_replay``'s
    decline."""

    @staticmethod
    def _count_vector_attempts(monkeypatch):
        """Record every ``VectorReplayBackend.simulate`` result."""
        attempts = []
        simulate = VectorReplayBackend.simulate

        def counting(self, *args):
            result = simulate(self, *args)
            attempts.append(result)
            return result

        monkeypatch.setattr(VectorReplayBackend, "simulate", counting)
        return attempts

    @pytest.mark.parametrize(
        "builder", [build_pipeline, build_kpoint_pipeline]
    )
    def test_open_single_size_queue_never_tries_vector_replay(
        self, monkeypatch, builder
    ):
        attempts = self._count_vector_attempts(monkeypatch)
        framework = NdftFramework()
        arrivals = poisson_arrivals(1024, 3.0, seed=11)
        for _ in range(5):
            result = framework.run_many(
                [512] * 1024, pipeline_builder=builder, arrivals=arrivals
            )
            assert "vector_replay" not in result.batch_report.backend_jobs
        assert attempts == []

    @pytest.mark.parametrize(
        "builder", [build_pipeline, build_kpoint_pipeline]
    )
    def test_closed_batch_threshold(self, builder):
        framework = NdftFramework()
        below = framework.run_many(
            [512] * (VECTOR_MIN_JOBS - 1), pipeline_builder=builder
        )
        assert below.batch_report.backend_jobs == {
            "dag_replay": VECTOR_MIN_JOBS - 1
        }
        at = framework.run_many([512] * VECTOR_MIN_JOBS, pipeline_builder=builder)
        assert at.batch_report.backend_jobs == {"vector_replay": VECTOR_MIN_JOBS}

    def test_late_decline_falls_through_to_engine(self, monkeypatch):
        """``VECTOR_MIN_JOBS`` replicas of a zero-duration toy DAG:
        ``vector_replay`` is tried first and declines late, then
        ``dag_replay`` declines, so the engine simulates it —
        bit-identically to the uncollapsed path."""
        attempts = self._count_vector_attempts(monkeypatch)
        executor, jobs = _zero_duration_toy_jobs(VECTOR_MIN_JOBS)
        auto = executor.execute_many(jobs)
        assert attempts == [None]
        assert auto.backend_jobs == {"engine": VECTOR_MIN_JOBS}
        assert _identical(auto, executor.execute_many(jobs, backend="engine"))


class TestDeclines:
    """An auto walk records each backend that declined the batch before
    one accepted it, with the reason a forced run would quote."""

    def test_zero_duration_batch_records_both_replays(self):
        executor, jobs = _zero_duration_toy_jobs(4)
        report = executor.execute_many(jobs)
        assert report.backend_jobs == {"engine": 4}
        assert report.declines == (
            ("dag_replay", _ZERO_DURATION_REASON),
            ("vector_replay", _ZERO_DURATION_REASON),
        )

    def test_unprovable_waves_record_one_vector_decline(self, framework):
        pipeline = random_pipeline(random.Random(0), 4)
        jobs = [(pipeline, framework.scheduler.schedule(pipeline))]
        report = framework.executor.execute_many(jobs * VECTOR_MIN_JOBS)
        assert report.backend_jobs == {"dag_replay": VECTOR_MIN_JOBS}
        assert report.declines == (("vector_replay", UNPROVABLE_TIE_REASON),)

    def test_resilient_rounds_concatenate_in_order(self, monkeypatch):
        """With ``dag_replay`` declining, every round of a faulted retry
        walks to the engine; the result lists each round's declines."""
        monkeypatch.setattr(DagReplayBackend, "simulate", lambda *args: None)
        sizes = [64, 128, 512, 1024] * 2
        result = NdftFramework().run_many(
            sizes,
            faults=FaultPlan(outages=(("ndp", 0.01, 0.02),)),
            retry=RetryPolicy(),
        )
        assert result.resilience.failed_attempts > 0  # two rounds ran
        per_round = (
            ("dag_replay", _ZERO_DURATION_REASON),
            ("vector_replay", FAULT_PLAN_REASON),
        )
        assert result.batch_report.declines == per_round * 2

    def test_benchmark_batch_shapes_record_none(self):
        sizes = [64, 128, 512, 1024] * 64
        arrivals = poisson_arrivals(len(sizes), 3.0, seed=1)
        horizon = arrivals[-1]
        plan = poisson_fault_plan(
            ["ndp", "link:cpu-ndp"],
            mtbf=10.0,
            mttr=1.0,
            horizon=horizon,
            seed=2,
            permanent_after=0.8 * horizon,
        )
        framework = NdftFramework()
        results = [
            framework.run_many(sizes),
            framework.run_many(
                [512] * len(sizes), pipeline_builder=build_kpoint_pipeline
            ),
            framework.run_many(
                sizes,
                pipeline_builder=build_kpoint_pipeline,
                arrivals=arrivals,
                admission=AdmissionPolicy(slo_p99=2.0),
            ),
            framework.run_many(
                sizes,
                arrivals=arrivals,
                faults=plan,
                retry=RetryPolicy(checkpoint=True, backoff_base=2.0 * horizon),
            ),
            framework.run_many(sizes, arrivals=arrivals),
        ]
        assert results[1].batch_report.backend_jobs == {"vector_replay": 256}
        assert results[3].resilience.failed_attempts > 0
        for result in results:
            assert result.batch_report.declines == ()


class TestOneCompilePerCall:
    def test_declined_batch_is_not_recompiled(self, framework, monkeypatch):
        """``vector_replay`` tries this closed single-signature batch
        first and declines it; ``dag_replay`` then simulates the same
        compiled batch, so its one super-job compiles exactly once per
        call."""
        attempts = TestSelectionRule._count_vector_attempts(monkeypatch)
        compiled = []
        compile_job = PipelineExecutor._compile_job

        def counting(self, pipeline, schedule, resource_ids):
            compiled.append(pipeline)
            return compile_job(self, pipeline, schedule, resource_ids)

        monkeypatch.setattr(PipelineExecutor, "_compile_job", counting)
        pipeline = random_pipeline(random.Random(0), 4)
        jobs = [(pipeline, framework.scheduler.schedule(pipeline))]
        for call in (1, 2):
            report = framework.executor.execute_many(jobs * VECTOR_MIN_JOBS)
            assert attempts == [None] * call
            assert report.backend_jobs == {"dag_replay": VECTOR_MIN_JOBS}
            assert compiled == [pipeline] * call


class TestRegistryOrder:
    def test_vector_replay_registered_after_dag_replay(self):
        assert backend_names() == ("dag_replay", "vector_replay", "engine")
