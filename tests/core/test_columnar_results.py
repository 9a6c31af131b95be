"""Columnar batch results: the per-job views, what they build, and
``check_invariants``.

``NdftBatchResult.jobs`` and ``BatchExecutionReport.job_reports`` are
read-only views over columns (one completion time per job, one row per
template, each job's template index); a job's ``NdftRunResult`` or
``ExecutionReport`` is built only when a caller reads it.  The guards
here count constructions through a patched ``__init__``, and objects
the collector tracks through ``gc.get_count()``, rather than timing
anything: a warm ``run_many`` builds one report template per super-job
and no per-job object on any path, keeps no object per lane occupancy,
and every aggregate reads the columns.  The view tests pin the
sequence protocol the callers rely on, and the invariant tests trigger
each of ``check_invariants``' rules on a hand-built bad result.
"""

import dataclasses
import gc
import math
import pickle
from collections import Counter

import pytest

from repro.core.arrivals import AdmissionPolicy, poisson_arrivals
from repro.core.backends import backend_names, get_backend
from repro.core.executor import ExecutionReport, LaneView, PipelineExecutor
from repro.core.faults import AttemptRecord, RetryPolicy, poisson_fault_plan
from repro.core.framework import NdftFramework, NdftRunResult, check_invariants
from repro.core.pipeline import build_kpoint_pipeline, build_pipeline
from repro.dft.workload import problem_size
from repro.errors import SimulationError
from repro.experiments.scale_serving import job_mix


@pytest.fixture
def constructions(monkeypatch):
    """Counts of ``ExecutionReport``, ``NdftRunResult`` and
    ``AttemptRecord`` objects constructed while the test runs, plus the
    super-jobs every ``execute_many`` call simulated (``"superjobs"``)."""
    counts: Counter = Counter()
    for cls in (ExecutionReport, NdftRunResult, AttemptRecord):
        init = cls.__init__

        def counting(self, *args, _init=init, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    execute_many = PipelineExecutor.execute_many

    def counted(self, *args, **kwargs):
        report = execute_many(self, *args, **kwargs)
        counts["superjobs"] += len(report.templates)
        return report

    monkeypatch.setattr(PipelineExecutor, "execute_many", counted)
    return counts


def _closed(framework):
    return framework.run_many(job_mix(4096))


def _open_admission(framework):
    sizes = job_mix(512)
    return framework.run_many(
        sizes,
        pipeline_builder=build_kpoint_pipeline,
        arrivals=poisson_arrivals(len(sizes), 3.0, seed=1),
        admission=AdmissionPolicy(slo_p99=2.0),
    )


def _faulted_retry(framework):
    """Outages and a late NDP death: kills, resumed retries and degraded
    placements, in two rounds."""
    sizes = job_mix(256)
    arrivals = poisson_arrivals(len(sizes), 2.0, seed=3)
    horizon = arrivals[-1]
    plan = poisson_fault_plan(
        ["ndp", "link:cpu-ndp"],
        mtbf=10.0,
        mttr=1.0,
        horizon=horizon,
        seed=3,
        permanent_after=0.8 * horizon,
    )
    return framework.run_many(
        sizes,
        arrivals=arrivals,
        faults=plan,
        retry=RetryPolicy(checkpoint=True, backoff_base=2.0 * horizon),
    )


class TestAllocationGuard:
    @pytest.mark.parametrize(
        "serve", [_closed, _open_admission, _faulted_retry], ids=lambda f: f.__name__
    )
    def test_warm_call_builds_no_per_job_object(self, constructions, serve):
        framework = NdftFramework()
        serve(framework)  # warm: placements, solo reports, SCA verdicts
        constructions.clear()
        # With the collector off, generation 0's count rises by the
        # tracked objects the call allocates and does not free: the
        # lanes keep float columns, so it stays below one per occupancy
        # (a tuple per interval would exceed it).
        gc.collect()
        gc.disable()
        try:
            tracked = gc.get_count()[0]
            result = serve(framework)
            tracked = gc.get_count()[0] - tracked
        finally:
            gc.enable()
        occupancies = sum(map(len, result.batch_report.lane_occupancy.values()))
        assert tracked < occupancies
        assert result.n_jobs > constructions["superjobs"] > 0
        assert constructions["ExecutionReport"] <= constructions["superjobs"]
        assert constructions["NdftRunResult"] == 0
        assert constructions["AttemptRecord"] == 0
        if serve is _faulted_retry:
            resilience = result.resilience
            assert resilience.failed_attempts > 0
            assert resilience.resumed_attempts > 0
            assert resilience.degraded_attempts > 0

        # Every aggregate reads the columns.
        built = Counter(constructions)
        result.completion_latencies
        result.queueing_delays
        result.p50_latency
        result.p99_latency
        result.slo_p99_latency
        result.job_completion_times()
        result.lane_utilization
        result.throughput
        check_invariants(result)
        assert constructions == built

        # Reading one job builds exactly that job's objects.
        constructions.clear()
        result.jobs[result.n_jobs // 2]
        assert constructions == {"ExecutionReport": 1, "NdftRunResult": 1}
        constructions.clear()
        result.batch_report.job_reports[-1]
        assert constructions == {"ExecutionReport": 1}
        if serve is _faulted_retry:
            # Reading the attempts builds one record per attempt, and
            # every count is the same count over those records.
            constructions.clear()
            records = resilience.attempts
            assert constructions == {"AttemptRecord": resilience.total_attempts}
            assert resilience.failed_attempts == sum(
                not record.completed for record in records
            )
            assert resilience.recovered == sum(
                record.completed and record.attempt > 1 for record in records
            )
            assert resilience.degraded_attempts == sum(
                record.degraded for record in records
            )
            assert resilience.resumed_attempts == sum(
                bool(record.frontier) for record in records
            )
            assert resilience.resumed_stages == sum(
                len(record.frontier) for record in records
            )
            assert resilience.work_saved_seconds == sum(
                record.work_saved for record in records
            )


@pytest.fixture(scope="module")
def served():
    """Two equal closed results from separate frameworks and one open
    result, small enough to materialize."""
    sizes = job_mix(12)
    first = NdftFramework().run_many(sizes)
    second = NdftFramework().run_many(sizes)
    open_ = NdftFramework().run_many(
        sizes, arrivals=poisson_arrivals(len(sizes), 3.0, seed=2)
    )
    return first, second, open_


class TestViewSemantics:
    def test_length_indexing_and_slices(self, served):
        result, _second, _open = served
        for view in (result.jobs, result.batch_report.job_reports):
            eager = tuple(view)
            assert len(view) == len(eager) == 12
            assert view[0] == eager[0]
            assert view[-1] == eager[-1] == eager[11]
            assert view[-12] == eager[0]
            for position in (12, -13):
                with pytest.raises(IndexError):
                    view[position]
            for part in (slice(2, 5), slice(None, None, -1), slice(3, 3), slice(-4, None, 2)):
                assert type(view[part]) is tuple
                assert view[part] == eager[part]
            assert list(reversed(view)) == list(reversed(eager))
            assert view.index(eager[4]) == 4
            assert eager[5] in view

    def test_equality_from_either_side(self, served):
        first, second, open_ = served
        for view, other, different in (
            (first.jobs, second.jobs, open_.jobs),
            (
                first.batch_report.job_reports,
                second.batch_report.job_reports,
                open_.batch_report.job_reports,
            ),
        ):
            eager = tuple(view)
            assert view == eager and eager == view
            assert not (view != eager) and not (eager != view)
            assert view == other and other == view  # another view
            assert view != different and different != view
            assert view != tuple(different) and tuple(different) != view
            moved = eager[:3] + eager[4:5] + eager[3:4] + eager[5:]
            assert view != moved and moved != view
            assert view != eager[:-1] and eager[:-1] != view
            assert view != list(eager)  # a list is not a tuple

    def test_pickle_round_trip(self, served):
        for result in served:
            copy = pickle.loads(pickle.dumps(result))
            assert type(copy.jobs) is type(result.jobs)
            assert copy.jobs == result.jobs
            assert copy.batch_report == result.batch_report
            assert copy.completion_latencies == result.completion_latencies
            assert copy.job_completion_times() == result.job_completion_times()

    def test_replace_with_a_tuple(self, served):
        result = served[2]
        eager = tuple(result.jobs)
        spliced = dataclasses.replace(result, jobs=eager)
        assert spliced.jobs is eager
        assert spliced.jobs == result.jobs
        assert spliced.n_jobs == result.n_jobs
        assert spliced.job_completion_times() == result.job_completion_times()
        assert spliced.p99_latency == result.p99_latency


def _executor_jobs(framework, sizes, builder):
    """(pipeline, schedule) pairs through the framework's caches, so
    duplicate sizes share objects and coalesce into one super-job."""
    jobs = []
    for n_atoms in sizes:
        pipeline = framework._build_pipeline(problem_size(n_atoms), builder)
        record = framework._record_for(pipeline, framework.job_signature(pipeline))
        jobs.append((pipeline, record.schedule))
    return jobs


def _chain_mix(framework):
    return _executor_jobs(framework, job_mix(48), build_pipeline), None, None


def _kpoint_replicas(framework):
    return _executor_jobs(framework, [64] * 128, build_kpoint_pipeline), None, None


def _faulted_chain_mix(framework):
    sizes = job_mix(16)
    arrivals = [i * 0.5 for i in range(len(sizes))]
    plan = poisson_fault_plan(["ndp"], mtbf=1.0, mttr=0.2, horizon=8.0, seed=1)
    return _executor_jobs(framework, sizes, build_pipeline), arrivals, plan


class TestLaneView:
    """Every backend returns each resource's occupancy as a ``(starts,
    ends)`` pair of float columns, and the batch report files them as
    one :class:`LaneView` per occupied lane, which behaves like the
    tuple of its ``(start, end)`` pairs."""

    @pytest.mark.parametrize(
        "batch_of, forced",
        [
            (_chain_mix, "dag_replay"),
            (_kpoint_replicas, "vector_replay"),
            (_chain_mix, "engine"),
            (_faulted_chain_mix, "dag_replay"),
        ],
        ids=["chain-mix", "kpoint-replicas", "chain-mix-engine", "faulted"],
    )
    def test_column_contract(self, batch_of, forced):
        """Each case's raw columns from every accepting backend, the
        views the report files, and the view's sequence protocol."""
        framework = NdftFramework()
        jobs, arrivals, plan = batch_of(framework)
        executor = framework.executor
        batch = executor.compile_batch(jobs, plan)
        assert (batch.faults is not None) == (plan is not None)
        reports = {}
        for backend in backend_names():
            raw = get_backend(backend).simulate(batch, arrivals)
            if raw is None:  # declined
                continue
            occupancy = raw[2]
            assert len(occupancy) == len(batch.lanes)
            for starts, ends in occupancy:
                assert type(starts) is list and type(ends) is list
                assert len(starts) == len(ends)
                assert all(type(value) is float for value in starts + ends)
            report = executor.execute_many(
                jobs, arrivals=arrivals, backend=backend, faults=plan
            )
            # Lanes with no occupancy are dropped.
            filed = {
                lane: (starts, ends)
                for lane, (starts, ends) in zip(batch.lanes, occupancy)
                if starts
            }
            assert report.lane_occupancy.keys() == filed.keys()
            for lane, (starts, ends) in filed.items():
                view = report.lane_occupancy[lane]
                assert view.starts == starts and view.ends == ends
            reports[backend] = report
        assert forced in reports and len(reports) >= 2
        report = reports[forced]
        assert report.backend_jobs == {forced: len(jobs)}
        if plan is not None:
            assert report.failures
        assert report.lane_occupancy
        for lane, view in report.lane_occupancy.items():
            assert type(view) is LaneView
            eager = tuple(view)
            assert view == eager and eager == view
            assert not (view != eager) and not (eager != view)
            for other in reports.values():
                assert other.lane_occupancy[lane] == view
                assert eager == other.lane_occupancy[lane]
            assert view != eager[:-1] and eager[:-1] != view
            assert view != LaneView(view.starts, [end * 2.0 for end in view.ends])
            assert view != list(eager)  # a list is not a tuple
            assert len(view) == len(eager) > 0
            for position in (0, len(eager) // 2, -1):
                assert type(view[position]) is tuple
                assert view[position] == eager[position]
            for part in (slice(1, 4), slice(None, None, -1), slice(-3, None, 2)):
                assert type(view[part]) is tuple
                assert view[part] == eager[part]
            copy = pickle.loads(pickle.dumps(view))
            assert type(copy) is LaneView and copy == view and copy == eager
            assert report.lane_busy_seconds[lane] == sum(
                end - start for start, end in view
            )


@pytest.fixture(scope="module")
def open_result():
    sizes = job_mix(16)
    return NdftFramework().run_many(
        sizes, arrivals=poisson_arrivals(len(sizes), 3.0, seed=4)
    )


@pytest.fixture(scope="module")
def shed_result():
    sizes = job_mix(32)
    result = NdftFramework().run_many(
        sizes,
        arrivals=poisson_arrivals(len(sizes), 3.0, seed=1),
        admission=AdmissionPolicy(slo_p99=1.0),
    )
    assert result.admission.shed > 0
    return result


@pytest.fixture(scope="module")
def faulted_result():
    sizes = job_mix(16)
    result = NdftFramework().run_many(
        sizes,
        arrivals=[i * 0.5 for i in range(len(sizes))],
        faults=poisson_fault_plan(["ndp"], mtbf=1.0, mttr=0.2, horizon=8.0, seed=1),
        retry=RetryPolicy(max_attempts=1),
    )
    assert result.resilience.abandoned > 0
    return result


def _with_completion(result, position, completion):
    report = result.batch_report
    times = list(report.completion_times)
    times[position] = completion
    return dataclasses.replace(
        result,
        batch_report=dataclasses.replace(report, completion_times=tuple(times)),
    )


class TestCheckInvariants:
    def test_served_results_hold(self, open_result, shed_result, faulted_result):
        for result in (open_result, shed_result, faulted_result):
            check_invariants(result)

    def test_negative_latency(self, open_result):
        bad = _with_completion(open_result, 3, open_result.arrivals[3] - 1.0)
        with pytest.raises(SimulationError, match="completion latencies"):
            check_invariants(bad)

    def test_non_finite_latency(self, open_result):
        bad = _with_completion(open_result, 0, math.nan)
        with pytest.raises(SimulationError, match="not finite"):
            check_invariants(bad)

    def test_negative_queueing_delay(self, open_result):
        early = open_result.arrivals[5] + open_result.solo_times[5] / 2
        bad = _with_completion(open_result, 5, early)
        with pytest.raises(SimulationError, match="queueing delay") as caught:
            check_invariants(bad)
        assert "completion latencies" not in str(caught.value)

    def test_utilization_residue_above_one_holds(self):
        """A lane busy from release to completion sums its interval
        lengths to a hair over the span: float residue, not a fault."""
        result = NdftFramework().run_many([16], arrivals=[0.0058381400018659565])
        assert result.lane_utilization["cpu"] > 1.0
        check_invariants(result)

    def test_lane_utilization_above_one(self, open_result):
        report = open_result.batch_report
        occupancy = dict(report.lane_occupancy)
        occupancy["cpu"] = LaneView([0.0], [2.0 * report.makespan])
        bad = dataclasses.replace(
            open_result,
            batch_report=dataclasses.replace(report, lane_occupancy=occupancy),
        )
        with pytest.raises(SimulationError, match="lane cpu utilization"):
            check_invariants(bad)

    def test_submitted_is_admitted_deferred_and_shed(self, shed_result):
        admission = shed_result.admission
        reasons = list(admission.reasons)
        # One shed job's reason goes missing: the columns no longer
        # align, so the counts fall one short of the submissions while
        # admitted + deferred still equals the executed jobs.
        del reasons[next(i for i, r in enumerate(reasons) if r is not None)]
        bad = dataclasses.replace(
            shed_result,
            admission=dataclasses.replace(admission, reasons=tuple(reasons)),
        )
        with pytest.raises(SimulationError, match="submitted") as caught:
            check_invariants(bad)
        assert "executed" not in str(caught.value)

    def test_executed_is_admitted_and_deferred(self, shed_result):
        admission = shed_result.admission
        # One more admitted job in every column, but none more executed.
        bad = dataclasses.replace(
            shed_result,
            admission=dataclasses.replace(
                admission,
                labels=(*admission.labels, "Si_64"),
                arrivals=(*admission.arrivals, 0.0),
                predicted_latencies=(*admission.predicted_latencies, 0.0),
                releases=(*admission.releases, 0.0),
                reasons=(*admission.reasons, None),
            ),
        )
        with pytest.raises(SimulationError, match="executed") as caught:
            check_invariants(bad)
        assert "submitted" not in str(caught.value)

    def test_completed_and_abandoned_are_executed(self, faulted_result):
        resilience = faulted_result.resilience
        bad = dataclasses.replace(
            faulted_result,
            resilience=dataclasses.replace(
                resilience,
                abandoned_jobs=(*resilience.abandoned_jobs, resilience.submitted),
            ),
        )
        with pytest.raises(SimulationError, match="abandoned") as caught:
            check_invariants(bad)
        assert "job results" not in str(caught.value)

    def test_result_holds_the_completed_jobs(self, faulted_result):
        bad = dataclasses.replace(
            faulted_result, jobs=tuple(faulted_result.jobs)[:-1]
        )
        with pytest.raises(SimulationError, match="job results") as caught:
            check_invariants(bad)
        assert "abandoned" not in str(caught.value)
