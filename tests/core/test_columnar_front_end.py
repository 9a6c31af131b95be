"""The columnar batch front end agrees with per-job resolution.

``NdftFramework.run_many`` resolves each distinct batch entry once into a
per-call table, and the executor groups, partitions and builds reports
once per (pipeline, schedule) template.  ``NdftFramework(memoize=False)``
makes every job its own entry — the per-job path — so the two must agree
on every virtual-time output for any batch: atom counts, ``ProblemSize``
records and prebuilt pipelines mixed, the same object repeated,
equal-content distinct objects, and ``64`` next to ``problem_size(64)``.
The shard partition, the order of jobs within each shard and the
super-job count are checked against a per-job union-find reference.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arrivals import AdmissionPolicy
from repro.core.backends import superjob_groups
from repro.core.executor import PipelineExecutor
from repro.core.faults import FaultPlan
from repro.core.framework import NdftFramework
from repro.core.pipeline import Pipeline, build_kpoint_pipeline, build_pipeline
from repro.core.scheduler import SchedulingPolicy
from repro.dft.workload import ProblemSize, problem_size

SIZES = (16, 64, 128)
BUILDERS = {"chain": build_pipeline, "kpoint": build_kpoint_pipeline}
MODES = ("closed", "open", "shed", "deprioritize", "empty-faults")


def reference_shards(jobs) -> list[list[int]]:
    """The per-job contention partition: union-find over every job's
    devices and wires, shards ordered by their first job."""
    parent = list(range(len(jobs)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    owner = {}
    for i, (_pipeline, schedule) in enumerate(jobs):
        keys = set(schedule.assignments.values())
        keys.update(frozenset(pair) for pair in schedule.crossing_pairs)
        for key in keys:
            if key in owner:
                parent[find(i)] = find(owner[key])
            else:
                owner[key] = i
    shards: dict[int, list[int]] = {}
    for i in range(len(jobs)):
        shards.setdefault(find(i), []).append(i)
    return list(shards.values())


def reference_superjobs(jobs, shards) -> int:
    """Distinct (pipeline, schedule) objects per shard, summed."""
    return sum(
        len({(id(jobs[i][0]), id(jobs[i][1])) for i in shard})
        for shard in shards
    )


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
    if mode == "empty-faults" and draw(st.booleans()):
        arrivals = None
    slo = draw(st.floats(0.01, 0.15))
    return batch, BUILDERS[builder], mode, arrivals, slo


def serve(framework, batch, builder, mode, arrivals, slo):
    kwargs = {"pipeline_builder": builder, "arrivals": arrivals}
    if mode in ("shed", "deprioritize"):
        kwargs["admission"] = AdmissionPolicy(slo_p99=slo, mode=mode)
    if mode == "empty-faults":
        kwargs["faults"] = FaultPlan()
    return framework.run_many(batch, **kwargs)


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
    @settings(max_examples=60, deadline=None)
    def test_cached_and_per_job_paths_agree(self, case):
        batch, builder, mode, arrivals, slo = case
        cached_framework = NdftFramework()
        per_job_framework = NdftFramework(memoize=False)
        cached = serve(cached_framework, batch, builder, mode, arrivals, slo)
        per_job = serve(per_job_framework, batch, builder, mode, arrivals, slo)

        assert len(cached.jobs) == len(per_job.jobs)
        for job_c, job_p in zip(cached.jobs, per_job.jobs):
            assert job_c.problem == job_p.problem
            assert job_c.report == job_p.report
            assert job_c.schedule == job_p.schedule
            assert job_c.sca_reports == job_p.sca_reports
            assert job_c.memory_footprint_gb == job_p.memory_footprint_gb
            assert job_c.replicated_footprint_gb == job_p.replicated_footprint_gb
        assert cached.solo_times == per_job.solo_times
        assert cached.makespan == per_job.makespan
        assert cached.arrivals == per_job.arrivals
        assert (
            cached.batch_report.lane_occupancy
            == per_job.batch_report.lane_occupancy
        )
        assert (cached.admission is None) == (per_job.admission is None)
        if cached.admission is not None:
            assert cached.admission.decisions == per_job.admission.decisions
            assert (
                cached.admission.counted_indices
                == per_job.admission.counted_indices
            )
        assert cached_framework.job_estimates(
            batch, builder
        ) == per_job_framework.job_estimates(batch, builder)

        if mode in ("shed", "deprioritize") or not cached.jobs:
            return
        # Every job executed: check the partition and super-jobs the
        # executor formed against the per-job reference.
        pipelines = resolved_pipelines(cached_framework, batch, builder)
        jobs = [
            (pipeline, job.schedule)
            for pipeline, job in zip(pipelines, cached.jobs)
        ]
        shards = reference_shards(jobs)
        timings = cached.batch_report.backend_timings
        assert [timing.n_jobs for timing in timings] == [
            len(shard) for shard in shards
        ]
        assert cached.batch_report.n_superjobs == reference_superjobs(
            jobs, shards
        )
        per_job_timings = per_job.batch_report.backend_timings
        assert [t.n_jobs for t in per_job_timings] == [len(s) for s in shards]
        assert per_job.batch_report.n_superjobs == len(batch)


@functools.cache
def executor_templates():
    """A framework plus (pipeline, schedule) templates whose placements
    split into several contention shards — all-CPU, all-NDP and
    cost-aware schedules of chain and k-point pipelines — each with an
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
    next to all-NDP jobs share no lane, so they form several shards."""
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
        shards = reference_shards(jobs)
        partition = PipelineExecutor._contention_shards(*superjob_groups(jobs))
        assert [list(indices) for _templates, indices in partition] == shards

        fast = framework.executor.execute_many(jobs)
        slow = framework.executor.execute_many(
            jobs, coalesce=False, shard=False
        )
        assert fast.n_shards == len(shards)
        assert [t.n_jobs for t in fast.backend_timings] == [
            len(shard) for shard in shards
        ]
        assert fast.n_superjobs == reference_superjobs(jobs, shards)
        assert fast.job_reports == slow.job_reports
        assert fast.makespan == slow.makespan
        assert fast.lane_occupancy == slow.lane_occupancy
