"""The columnar batch front end agrees with per-job resolution.

``NdftFramework.run_many`` resolves each distinct batch entry once into a
per-call table, and the executor groups, partitions and builds reports
once per (pipeline, schedule) template.  ``NdftFramework(memoize=False)``
makes every job its own entry — the per-job path — so the two must agree
on every virtual-time output for any batch: atom counts, ``ProblemSize``
records and prebuilt pipelines mixed, the same object repeated,
equal-content distinct objects, and ``64`` next to ``problem_size(64)``.
The memoized paths through the entry store must agree as well: a
``cache_size=1`` framework that evicts on every lookup, and a fresh
framework warmed from a snapshot, which must then derive nothing.  Under
lethal faults, degraded and residual-pipeline records go through the
store too.  The executor's super-job grouping is checked against a
per-job reference, and its results against the forced engine.

The results are columnar, so every accessor of a served batch is
checked against the same quantity computed the eager way, from the
per-job objects the views build, with exact floats in the same order.
"""

import dataclasses
import functools
import tempfile
from array import array
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.arrivals import AdmissionPolicy, percentile, poisson_arrivals
from repro.core.faults import FaultPlan, RetryPolicy
from repro.core.framework import NdftFramework, check_invariants, queueing_delays
from repro.core.pipeline import Pipeline, build_kpoint_pipeline, build_pipeline
from repro.core.scheduler import SchedulingPolicy
from repro.dft.workload import ProblemSize, problem_size
from repro.experiments.scale_serving import job_mix
from repro.fleet import WorkerPool

SIZES = (16, 64, 128)
BUILDERS = {"chain": build_pipeline, "kpoint": build_kpoint_pipeline}
MODES = ("closed", "open", "shed", "deprioritize", "empty-faults", "lethal-faults")


def reference_superjobs(jobs) -> int:
    """Distinct (pipeline, schedule) object pairs in the batch."""
    return len({(id(pipeline), id(schedule)) for pipeline, schedule in jobs})


@st.composite
def batches(draw):
    """A mixed batch plus the builder and serving mode to run it under.
    Objects are drawn from per-(kind, size) slots: a repeated slot is
    the same object repeated, two slots are equal-content twins."""
    builder = draw(st.sampled_from(sorted(BUILDERS)))
    slots: dict = {}

    def realize(kind, size, slot):
        key = (kind, size, slot)
        if key not in slots:
            if kind == "problem":
                slots[key] = problem_size(size)
            else:
                pipeline_builder = BUILDERS[draw(st.sampled_from(sorted(BUILDERS)))]
                slots[key] = pipeline_builder(problem_size(size))
        return slots[key]

    specs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("int", "problem", "pipeline")),
                st.sampled_from(SIZES),
                st.integers(0, 1),
            ),
            min_size=1,
            max_size=20,
        )
    )
    batch = [
        size if kind == "int" else realize(kind, size, slot)
        for kind, size, slot in specs
    ]
    mode = draw(st.sampled_from(MODES))
    arrivals = None
    if mode != "closed":
        arrivals = draw(
            st.lists(
                st.floats(0.0, 0.1, allow_nan=False),
                min_size=len(batch),
                max_size=len(batch),
            )
        )
    faults = None
    if mode == "empty-faults":
        faults = FaultPlan()
        if draw(st.booleans()):
            arrivals = None
    elif mode == "lethal-faults":
        # An NDP outage and a permanent NDP death among the arrivals:
        # kills, retries, degraded re-placements and resumes.
        start = draw(st.floats(0.0, 0.09))
        faults = FaultPlan(
            outages=(("ndp", start, start + draw(st.floats(0.001, 0.01))),),
            permanent=(("ndp", draw(st.floats(0.0, 0.1))),),
        )
    slo = draw(st.floats(0.01, 0.15))
    return batch, BUILDERS[builder], mode, arrivals, slo, faults


def lethal_case(builder, outage, death):
    """A 12-job open batch over ``SIZES`` under an NDP outage and death:
    several degraded and several resumed attempts for either builder."""
    plan = FaultPlan(outages=(("ndp", *outage),), permanent=(("ndp", death),))
    arrivals = [i * 0.1 / 12 for i in range(12)]
    return list(SIZES) * 4, builder, "lethal-faults", arrivals, 0.1, plan


def serve(framework, batch, builder, mode, arrivals, slo, faults):
    kwargs = {"pipeline_builder": builder, "arrivals": arrivals, "faults": faults}
    if mode in ("shed", "deprioritize"):
        kwargs["admission"] = AdmissionPolicy(slo_p99=slo, mode=mode)
    if mode == "lethal-faults":
        kwargs["retry"] = RetryPolicy(checkpoint=True)
    return framework.run_many(batch, **kwargs)


def assert_same_results(got, want):
    """Every virtual-time output of two served batches agrees."""
    assert len(got.jobs) == len(want.jobs)
    for job_g, job_w in zip(got.jobs, want.jobs):
        assert job_g.problem == job_w.problem
        assert job_g.report == job_w.report
        assert job_g.schedule == job_w.schedule
        assert job_g.sca_reports == job_w.sca_reports
        assert job_g.memory_footprint_gb == job_w.memory_footprint_gb
        assert job_g.replicated_footprint_gb == job_w.replicated_footprint_gb
    assert got.solo_times == want.solo_times
    assert got.makespan == want.makespan
    assert got.arrivals == want.arrivals
    assert got.batch_report.lane_occupancy == want.batch_report.lane_occupancy
    assert (got.admission is None) == (want.admission is None)
    if got.admission is not None:
        assert got.admission.decisions == want.admission.decisions
        assert got.admission.counted_indices == want.admission.counted_indices
    assert (got.resilience is None) == (want.resilience is None)
    if got.resilience is not None:
        assert got.resilience.attempts == want.resilience.attempts


def resolved_pipelines(framework, batch, builder):
    """The pipeline object each job ran, as the memoized framework
    resolved it (sizes through its pipeline cache)."""
    pipelines = []
    for entry in batch:
        if isinstance(entry, Pipeline):
            pipelines.append(entry)
            continue
        problem = entry if isinstance(entry, ProblemSize) else problem_size(entry)
        pipelines.append(framework._build_pipeline(problem, builder))
    return pipelines


class TestColumnarMatchesPerJob:
    @given(case=batches())
    @example(case=lethal_case(build_pipeline, (0.02, 0.03), 0.09))
    @example(case=lethal_case(build_kpoint_pipeline, (0.05, 0.06), 0.09))
    @settings(max_examples=60, deadline=None)
    def test_cached_and_per_job_paths_agree(self, case):
        batch, builder, mode, *_rest = case
        per_job_framework = NdftFramework(memoize=False)
        per_job = serve(per_job_framework, *case)
        cached_framework = NdftFramework()
        cached = serve(cached_framework, *case)
        evicting = serve(NdftFramework(cache_size=1), *case)
        loaded_framework = NdftFramework()
        with tempfile.TemporaryDirectory() as tmp:
            snapshot = cached_framework.save_caches(Path(tmp) / "snapshot.pkl")
            loaded_framework.load_caches(snapshot)
        loaded = serve(loaded_framework, *case)
        assert loaded_framework.cache_stats["entry_misses"] == 0

        for result in (per_job, cached, evicting, loaded):
            check_invariants(result)
        for result in (cached, evicting, loaded):
            assert_same_results(result, per_job)
        assert cached_framework.job_estimates(
            batch, builder
        ) == per_job_framework.job_estimates(batch, builder)

        if mode in ("shed", "deprioritize", "lethal-faults") or not cached.jobs:
            return
        # Every job executed: check the super-jobs the executor formed
        # against the per-job reference.
        pipelines = resolved_pipelines(cached_framework, batch, builder)
        jobs = [
            (pipeline, job.schedule)
            for pipeline, job in zip(pipelines, cached.jobs)
        ]
        timings = cached.batch_report.backend_timings
        assert [timing.n_jobs for timing in timings] == [len(jobs)]
        assert cached.batch_report.n_superjobs == reference_superjobs(jobs)
        per_job_timings = per_job.batch_report.backend_timings
        assert [t.n_jobs for t in per_job_timings] == [len(jobs)]
        assert per_job.batch_report.n_superjobs == len(batch)


def same_floats(got, want):
    """Exact equality of two float sequences, bit for bit and in order."""
    return array("d", got).tobytes() == array("d", want).tobytes()


def eager_percentile(latencies, q):
    return percentile(latencies, q) if latencies else 0.0


def assert_accessors_match_eager_objects(result, submitted_arrivals):
    """Every accessor of ``result`` equals what the parent's eager
    formulas give over per-job objects built here: by iteration, by
    index and by slice, all three agreeing."""
    n = len(result.jobs)
    jobs = tuple(result.jobs)
    reports = tuple(result.batch_report.job_reports)
    assert len(jobs) == len(reports) == n == result.n_jobs
    assert tuple(result.jobs[i] for i in range(n)) == jobs == result.jobs[:]
    assert tuple(result.batch_report.job_reports[i] for i in range(n)) == reports
    assert tuple(job.report for job in jobs) == reports
    assert result.jobs == jobs and jobs == result.jobs
    assert result.batch_report.job_reports == reports
    for job in jobs:  # each view-built report is its own job's
        assert job.report.assignments == job.schedule.assignments
        assert job.report.phase_times == job.schedule.stage_times

    arrivals = result.arrivals
    if arrivals is None:
        latencies = tuple(report.total_time for report in reports)
    else:
        latencies = tuple(
            report.total_time - arrival
            for report, arrival in zip(reports, arrivals)
        )
    assert same_floats(result.completion_latencies, latencies)
    assert same_floats(
        result.queueing_delays,
        queueing_delays(latencies, result.solo_times, arrivals),
    )
    for q in (50.0, 99.0):
        assert same_floats(
            [result.latency_percentile(q)], [eager_percentile(latencies, q)]
        )
    assert same_floats(
        [result.p50_latency, result.p99_latency],
        [eager_percentile(latencies, 50.0), eager_percentile(latencies, 99.0)],
    )
    slo = latencies
    if result.admission is not None:
        slo = tuple(latencies[i] for i in result.admission.counted_indices)
    assert same_floats(result.slo_latencies, slo)
    assert same_floats(
        [result.slo_p50_latency, result.slo_p99_latency],
        [eager_percentile(slo, 50.0), eager_percentile(slo, 99.0)],
    )
    eager_times = tuple(
        (job.problem.label, job.report.total_time) for job in jobs
    )
    assert result.job_completion_times() == eager_times
    assert same_floats(
        [time for _label, time in result.job_completion_times()],
        [time for _label, time in eager_times],
    )
    occupancy = result.batch_report.lane_occupancy
    busy = {
        lane: sum(end - start for start, end in intervals)
        for lane, intervals in occupancy.items()
    }
    assert result.lane_busy_seconds == busy
    span = result.busy_span
    assert result.lane_utilization == (
        {lane: seconds / span for lane, seconds in busy.items()}
        if span > 0
        else {lane: 0.0 for lane in occupancy}
    )
    if result.resilience is not None:
        abandoned = set(result.resilience.abandoned_jobs)
        submitted = result.resilience.submitted
        releases = submitted_arrivals or [0.0] * submitted
        completed = [i for i in range(submitted) if i not in abandoned]
        end_to_end = [None] * submitted
        for job, i in zip(jobs, completed):
            end_to_end[i] = job.report.total_time - releases[i]
        got = result.resilience.end_to_end_latencies
        assert [latency is None for latency in got] == [
            latency is None for latency in end_to_end
        ]
        assert same_floats(
            [latency for latency in got if latency is not None],
            [latency for latency in end_to_end if latency is not None],
        )
    # A plain tuple of the same results reads the same everywhere.
    spliced = dataclasses.replace(result, jobs=jobs)
    assert spliced.jobs == result.jobs
    assert spliced.job_completion_times() == result.job_completion_times()
    assert spliced.n_jobs == result.n_jobs


class TestColumnarAccessors:
    @given(case=batches())
    @example(case=lethal_case(build_pipeline, (0.02, 0.03), 0.09))
    @example(case=lethal_case(build_kpoint_pipeline, (0.05, 0.06), 0.09))
    @settings(max_examples=40, deadline=None)
    def test_accessors_match_eager_objects(self, case):
        _batch, _builder, mode, arrivals, _slo, _faults = case
        result = serve(NdftFramework(), *case)
        check_invariants(result)
        if mode == "lethal-faults":
            assert result.resilience is not None
        assert_accessors_match_eager_objects(result, arrivals)

    def test_fleet_completions_match_eager_objects(self):
        """An inline two-replica pool: each replica's completions equal
        the eager per-job reports of a plain ``run_many`` of its jobs."""
        sizes = job_mix(32)
        arrivals = poisson_arrivals(len(sizes), 3.0, seed=1)
        for offsets in (None, arrivals):
            with WorkerPool(2, inline=True) as pool:
                fleet = pool.serve(sizes, arrivals=offsets)
            assert len(fleet.replicas) == 2
            for replica in fleet.replicas:
                indices = replica.job_indices
                result = NdftFramework().run_many(
                    [sizes[i] for i in indices],
                    arrivals=None if offsets is None else [offsets[i] for i in indices],
                )
                eager = [job.report.total_time for job in tuple(result.jobs)]
                assert same_floats(replica.completion_times, eager)


@functools.cache
def executor_templates():
    """A framework plus (pipeline, schedule) templates whose placements
    occupy different lane sets — all-CPU, all-NDP and cost-aware
    schedules of chain and k-point pipelines — each with an
    equal-content twin schedule object."""
    framework = NdftFramework()
    templates = []
    for size in SIZES[:2]:
        for builder in BUILDERS.values():
            pipeline = framework._build_pipeline(problem_size(size), builder)
            for policy in (
                SchedulingPolicy.ALL_CPU,
                SchedulingPolicy.ALL_NDP,
                SchedulingPolicy.COST_AWARE,
            ):
                schedule = framework.scheduler.schedule(pipeline, policy)
                twin = framework.scheduler.schedule(pipeline, policy)
                assert twin == schedule and twin is not schedule
                templates.append(((pipeline, schedule), (pipeline, twin)))
    return framework, templates


@st.composite
def executor_batches(draw):
    """Jobs over the templates: one shared pair object per template, a
    fresh tuple of the same objects, or the twin schedule.  Half the
    batches leave out the cost-aware templates (every third): all-CPU
    next to all-NDP jobs share no lane, yet still run as one
    simulation."""
    framework, templates = executor_templates()
    split = draw(st.booleans())
    pool = [t for t in range(len(templates)) if not (split and t % 3 == 2)]
    picks = draw(
        st.lists(
            st.tuples(st.sampled_from(pool), st.sampled_from("sft")),
            min_size=1,
            max_size=24,
        )
    )
    jobs = []
    for t, how in picks:
        shared, twin = templates[t]
        if how == "s":
            jobs.append(shared)
        elif how == "f":
            jobs.append((shared[0], shared[1]))
        else:
            jobs.append(twin)
    return framework, jobs


class TestExecutorPartition:
    @given(case=executor_batches())
    @settings(max_examples=60, deadline=None)
    def test_partition_and_superjobs_match_per_job_reference(self, case):
        framework, jobs = case
        fast = framework.executor.execute_many(jobs)
        slow = framework.executor.execute_many(jobs, backend="engine")
        assert [t.n_jobs for t in fast.backend_timings] == [len(jobs)]
        assert fast.n_superjobs == reference_superjobs(jobs)
        assert fast.job_reports == slow.job_reports
        assert fast.makespan == slow.makespan
        assert fast.lane_occupancy == slow.lane_occupancy
