"""The DAG-replay backend and the simulation-backend layer.

The DAG replay (:func:`repro.hw.engine.replay_dag_batch`, selected by
the ``dag_replay`` backend) must reproduce the generator engine's floats
bit for bit on *branching* pipelines — k-point DAGs, random synthetic
DAGs, constructed exact-time tie storms on fan-in joins and on compacted
single-predecessor segments, with and without a fault plan — as
``tests/core/test_coalesce_shard.py`` pins it on chains.  Its
calendar heap holds at most one pending event per lane, and its sorted
entry releases merge with that heap in the engine's order.  This file
also covers the backend registry semantics: selection order, forced
backends, the zero-duration fallback, and the framework's
``backend_stats`` counters.
"""

import heapq
import random
from collections import Counter

import pytest

from tests.core.dag_helpers import random_pipeline
from repro.core.arrivals import poisson_arrivals
from repro.core.backends import backend_names, get_backend
from repro.core.cost_model import OffloadCostModel
from repro.core.executor import PipelineExecutor
from repro.core.faults import (
    FaultPlan,
    poisson_fault_plan,
    shock_fault_plan,
    slowdown_fault_plan,
)
from repro.core.framework import NdftFramework
from repro.core.ir import function_from_workload
from repro.core.pipeline import Edge, Pipeline, Stage, build_kpoint_pipeline, build_pipeline
from repro.core.scheduler import Placement, Schedule, SchedulingPolicy
from repro.dft.workload import problem_size
from repro.errors import SimulationError
from repro.hw.engine import Engine, replay_dag_batch, run_engine_batch
from repro.hw.interconnect import HostLink
from repro.hw.timing import PhaseTime
from repro.model import KernelWorkload

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


class TestDagReplayEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_random_kpoint_batches_identical(self, framework, seed):
        """Random k-point batches (mixed fan widths and sizes, sometimes
        an open queue): replay vs the uncollapsed engine — every float
        identical."""
        rng = random.Random(seed)
        entries = [
            (rng.choice(SIZES), _kpoint_builder(rng.choice((2, 3, 4))))
            for _ in range(rng.randint(2, 24))
        ]
        jobs = _jobs(framework, entries)
        arrivals = None
        if seed % 2:
            arrivals = [round(rng.random() * 10, 3) for _ in jobs]
        fast = framework.executor.execute_many(jobs, arrivals=arrivals)
        slow = framework.executor.execute_many(
            jobs, arrivals=arrivals, backend="engine"
        )
        assert fast.makespan == slow.makespan
        assert fast.job_reports == slow.job_reports
        # Branching jobs ran the slim replay, not the engine.
        assert fast.backend_jobs == {"dag_replay": len(jobs)}

    @pytest.mark.parametrize("seed", [10, 11, 12, 13])
    def test_random_synthetic_dag_batches_identical(self, framework, seed):
        """Random connected DAGs (1-3 predecessors per stage — much
        denser fan-in than the k-point shape): replay vs engine."""
        rng = random.Random(seed)
        jobs = []
        for _ in range(rng.randint(2, 8)):
            pipeline = random_pipeline(rng, rng.randint(3, 9))
            schedule = framework.scheduler.schedule(
                pipeline, SchedulingPolicy.COST_AWARE
            )
            jobs.append((pipeline, schedule))
        arrivals = None
        if seed % 2:
            arrivals = [round(rng.random() * 2, 3) for _ in jobs]
        fast = framework.executor.execute_many(jobs, arrivals=arrivals)
        slow = framework.executor.execute_many(
            jobs, arrivals=arrivals, backend="engine"
        )
        assert fast.makespan == slow.makespan
        assert fast.job_reports == slow.job_reports

    def test_mixed_chain_and_dag_shard_takes_dag_replay(self, framework):
        """A batch mixing chains with one DAG runs on the DAG replay,
        not the engine."""
        jobs = _jobs(
            framework,
            [(64, build_pipeline), (64, build_kpoint_pipeline)] * 3,
        )
        fast = framework.executor.execute_many(jobs)
        slow = framework.executor.execute_many(jobs, backend="engine")
        assert fast.backend_jobs == {"dag_replay": len(jobs)}
        assert fast.n_superjobs == 2
        assert fast.job_reports == slow.job_reports

    def test_run_many_kpoint_toggles_identical(self):
        sizes = [64, 1024, 64, 512, 128, 64]
        fast = NdftFramework().run_many(
            sizes, pipeline_builder=build_kpoint_pipeline
        )
        slow = NdftFramework().run_many(
            sizes,
            pipeline_builder=build_kpoint_pipeline,
            backend="engine",
        )
        assert fast.makespan == slow.makespan
        assert fast.solo_times == slow.solo_times
        assert (
            fast.batch_report.job_reports == slow.batch_report.job_reports
        )


# ---------------------------------------------------------------------------
# Hand-built DAG jobs with exact round-number durations
# ---------------------------------------------------------------------------


def _toy_dag(label, stage_names, edge_spec):
    """A hand-built DAG pipeline with unit workloads, for constructing
    same-instant event ties; ``edge_spec`` is (src, dst, nbytes)."""
    stages = []
    for name in stage_names:
        workload = KernelWorkload(
            name=f"{label}{name}", flops=1.0, bytes_read=1.0, bytes_written=1.0
        )
        stages.append(
            Stage(
                name=f"{label}{name}",
                workload=workload,
                function=function_from_workload(
                    workload, live_in_bytes=1.0, live_out_bytes=1.0
                ),
            )
        )
    edges = tuple(
        Edge(src=f"{label}{src}", dst=f"{label}{dst}", nbytes=nbytes)
        for src, dst, nbytes in edge_spec
    )
    return Pipeline(
        problem=problem_size(8), stages=tuple(stages), edges=edges
    )


def _toy_schedule(pipeline, placements, durations, cost_model):
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


def _round_cost_model(context_switch=0.25):
    return OffloadCostModel(
        host_link=HostLink(bandwidth=1.0, base_latency=0.0),
        context_switch=context_switch,
    )


def _diamond_tie_job(label, cost_model):
    """a -> (b, c) -> d where both branches complete at exactly t=3.0:
    b stays on the CPU (1.0 + 2.0), c crosses to the NDP (transfer
    0.25/1.0 + 0.25 CXT = 0.5, then 1.5) — an exact-time tie on d's
    fan-in join, resolved by the engine's cascade order."""
    pipeline = _toy_dag(
        label,
        ("a", "b", "c", "d"),
        (("a", "b", 0.0), ("a", "c", 0.25), ("b", "d", 0.0), ("c", "d", 0.25)),
    )
    schedule = _toy_schedule(
        pipeline,
        (Placement.CPU, Placement.CPU, Placement.NDP, Placement.CPU),
        (1.0, 2.0, 1.5, 1.0),
        cost_model,
    )
    return pipeline, schedule


class TestExactTimeTiesOnFanIn:
    def test_fan_in_join_tie_matches_engine(self):
        cost_model = _round_cost_model()
        executor = PipelineExecutor(cost_model=cost_model)
        jobs = [_diamond_tie_job("y", cost_model)]
        fast = executor.execute_many(jobs)
        slow = executor.execute_many(jobs, backend="engine")
        assert fast.backend_jobs == {"dag_replay": 1}
        assert fast.job_reports == slow.job_reports
        assert fast.makespan == slow.makespan
        # The tie is real: both branches hand d their data at t=3.0, and
        # d's transfer (0.25/1.0 + 0.25) plus 1.0 compute lands at 4.5.
        assert slow.job_reports[0].total_time == 4.5

    @pytest.mark.parametrize("order", [0, 1])
    def test_fan_in_tie_storms_across_replicas(self, order):
        """Several identical diamonds plus a round-number chain, two
        interleavings, with and without arrivals: every completion
        collides with others at integer instants, including on fan-in
        joins — the replay must grant, wake and re-request in exactly
        the engine's cascade order."""
        cost_model = _round_cost_model(context_switch=0.5)
        executor = PipelineExecutor(cost_model=cost_model)
        diamond = _diamond_tie_job("y", cost_model)
        chain = _toy_dag("x", ("0", "1", "2"), (("0", "1", 0.0), ("1", "2", 0.0)))
        chain_schedule = _toy_schedule(
            chain,
            (Placement.CPU, Placement.CPU, Placement.CPU),
            (1.0, 1.0, 1.0),
            cost_model,
        )
        jobs = [diamond, (chain, chain_schedule)] * 4
        if order:
            jobs = jobs[::-1]
        for arrivals in (None, [0.0, 1.0] * 4, [0.5] * 8):
            fast = executor.execute_many(jobs, arrivals=arrivals)
            slow = executor.execute_many(
                jobs, arrivals=arrivals, backend="engine"
            )
            assert fast.job_reports == slow.job_reports
            assert fast.makespan == slow.makespan

    def test_wide_fan_in_with_skipped_predecessors(self):
        """A stage joining three predecessors that finish at different
        (and partly identical) instants exercises the finished-
        predecessor skip hops of the wait loop."""
        cost_model = _round_cost_model()
        executor = PipelineExecutor(cost_model=cost_model)
        pipeline = _toy_dag(
            "w",
            ("a", "b", "c", "d", "e"),
            (
                ("a", "b", 0.0),
                ("a", "c", 0.25),
                ("a", "d", 0.25),
                ("b", "e", 0.0),
                ("c", "e", 0.25),
                ("d", "e", 0.25),
            ),
        )
        schedule = _toy_schedule(
            pipeline,
            (
                Placement.CPU,
                Placement.CPU,
                Placement.NDP,
                Placement.NDP,
                Placement.CPU,
            ),
            (1.0, 2.0, 1.5, 1.0, 1.0),
            cost_model,
        )
        jobs = [(pipeline, schedule)] * 6
        for arrivals in (None, [0.0, 1.0, 2.0] * 2):
            fast = executor.execute_many(jobs, arrivals=arrivals)
            slow = executor.execute_many(
                jobs, arrivals=arrivals, backend="engine"
            )
            assert fast.job_reports == slow.job_reports
            assert fast.makespan == slow.makespan


def _random_toy_job(rng, label, cost_model):
    """A random toy chain or DAG with round-number durations and edge
    bytes and random CPU/NDP placements: single-predecessor runs compact
    into replay segments, and a placement change on one of their
    boundaries puts a wire transfer at the head of the compacted stage.
    DAG stages draw 0-2 predecessors (0 adds an entry stage)."""
    n_stages = rng.randint(2, 6)
    if rng.random() < 0.5:
        edge_spec = [(i - 1, i) for i in range(1, n_stages)]
    else:
        edge_spec = [
            (p, i)
            for i in range(1, n_stages)
            for p in rng.sample(range(i), min(i, rng.choice((0, 1, 1, 2))))
        ]
    pipeline = _toy_dag(
        label,
        tuple(str(i) for i in range(n_stages)),
        tuple(
            (str(src), str(dst), rng.choice((0.0, 0.25, 0.5)))
            for src, dst in edge_spec
        ),
    )
    schedule = _toy_schedule(
        pipeline,
        [rng.choice((Placement.CPU, Placement.NDP)) for _ in range(n_stages)],
        [rng.choice((0.5, 1.0, 1.5, 2.0)) for _ in range(n_stages)],
        cost_model,
    )
    return pipeline, schedule


def _fault_timelines(batch):
    """The per-lane fault timelines ``replay_dag_batch`` takes."""
    if batch.faults is None:
        return None
    return list(map(batch.faults.timeline, batch.lanes))


def _assert_backends_agree(executor, jobs, arrivals, plan=None):
    """``dag_replay`` and the engine report the same batch, and so do
    the two raw simulators."""
    fast = executor.execute_many(
        jobs, arrivals=arrivals, backend="dag_replay", faults=plan
    )
    engine = executor.execute_many(
        jobs, arrivals=arrivals, backend="engine", faults=plan
    )
    assert fast.job_reports == engine.job_reports
    assert fast.makespan == engine.makespan
    assert fast.lane_occupancy == engine.lane_occupancy
    assert fast.failures == engine.failures
    _assert_simulators_agree(executor, jobs, arrivals, plan)
    return fast


def _assert_simulators_agree(executor, jobs, arrivals, plan=None):
    """``run_engine_batch`` and ``replay_dag_batch`` on the executor's
    compiled batch return equal raw four-tuples, and the engine's
    observer sees exactly the occupancy it returns — each resource's
    start and end columns, paired — in grant order per resource, each
    occupancy named by the job, stage and task that compiled onto that
    resource."""
    batch = executor.compile_batch(jobs, plan)
    timelines = _fault_timelines(batch)
    seen = [[] for _ in batch.lanes]

    def observe(resource, job, stage, task, start, end):
        stage_tasks = batch.programs[batch.member_group[job]][0]
        assert stage_tasks[stage][task][0] == resource
        seen[resource].append((start, end))

    engine = run_engine_batch(
        batch.programs,
        batch.member_group,
        arrivals,
        len(batch.lanes),
        timelines,
        observer=observe,
    )
    replay = replay_dag_batch(
        batch.programs,
        batch.member_group,
        [0.0] * len(jobs) if arrivals is None else arrivals,
        len(batch.lanes),
        timelines,
    )
    assert engine == replay
    assert seen == [list(zip(starts, ends)) for starts, ends in engine[2]]


class TestCompactedSegmentTieStorms:
    """The DAG replay runs each single-successor -> single-predecessor
    run of stages as one segment.  Round-number durations make almost
    every completion collide with others, so a compacted boundary's
    re-request must land in exactly the band the engine's StopIteration
    and wake-up would put it in."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_tie_storm_shards_match_engine(self, seed):
        rng = random.Random(seed)
        cost_model = _round_cost_model()
        executor = PipelineExecutor(cost_model=cost_model)
        for shard in range(20):
            templates = [
                _random_toy_job(rng, f"t{shard}_{k}_", cost_model)
                for k in range(rng.randint(1, 4))
            ]
            jobs = [
                job for job in templates for _ in range(rng.randint(1, 6))
            ]
            rng.shuffle(jobs)
            round_arrivals = [rng.choice((0.0, 0.5, 1.0, 2.0)) for _ in jobs]
            for arrivals in (None, round_arrivals):
                _assert_backends_agree(executor, jobs, arrivals)


def _random_fault_plans(rng):
    """One plan of each shape on a half-second grid, so fault instants
    collide with the round-number completions: an outage on one lane, a
    shock on cpu+ndp (sometimes with the wire), a permanent death (kills
    at the grant and ghosts), and a slowdown at factor 1.5, 2 or 4."""
    lanes = ("cpu", "ndp", "link:cpu-ndp")

    def grid(low, high):
        return rng.randint(low, high) * 0.5

    start = grid(0, 16)
    outage = FaultPlan(
        outages=((rng.choice(lanes), start, start + grid(1, 6)),)
    )
    start, span = grid(0, 16), grid(1, 4)
    struck = lanes if rng.random() < 0.5 else lanes[:2]
    shock = FaultPlan(
        outages=tuple((lane, start, start + span) for lane in struck)
    )
    death = FaultPlan(permanent=((rng.choice(lanes[:2]), grid(0, 16)),))
    start = grid(0, 16)
    slowdown = FaultPlan(
        slowdowns=(
            (
                rng.choice(lanes),
                start,
                start + grid(1, 6),
                rng.choice((1.5, 2.0, 4.0)),
            ),
        )
    )
    return outage, shock, death, slowdown


class TestFaultTieStorms:
    """Under a fault plan ``dag_replay`` follows the fault-aware engine
    command for command: outage wait-outs, kills after and at the grant,
    ghosts of killed jobs and slowed services, on round-number chains
    and DAGs whose completions collide with the fault instants."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_faulted_batches_match_engine(self, seed):
        rng = random.Random(seed)
        cost_model = _round_cost_model()
        executor = PipelineExecutor(cost_model=cost_model)
        kills_after_grant = kills_at_grant = 0
        for shard in range(8):
            templates = [
                _random_toy_job(rng, f"t{shard}_{k}_", cost_model)
                for k in range(rng.randint(1, 4))
            ]
            jobs = [
                job for job in templates for _ in range(rng.randint(1, 6))
            ]
            rng.shuffle(jobs)
            round_arrivals = [rng.choice((0.0, 0.5, 1.0, 2.0)) for _ in jobs]
            for plan in _random_fault_plans(rng):
                for arrivals in (None, round_arrivals):
                    report = _assert_backends_agree(
                        executor, jobs, arrivals, plan
                    )
                    for failure in report.failures:
                        dead_at = plan.dead_lanes().get(failure.lane)
                        if dead_at is not None and failure.time > dead_at:
                            kills_at_grant += 1
                        else:
                            kills_after_grant += 1
        # The storm reaches both kinds of kill.
        assert kills_after_grant and kills_at_grant


class _HeapProbe:
    """Stands in for :mod:`heapq` in :mod:`repro.hw.engine` and records
    the largest heap it sees, at every push *and* pop: a calendar that
    starts full shows only at its pops."""

    def __init__(self):
        self.peak = 0

    def heappush(self, heap, item):
        heapq.heappush(heap, item)
        self.peak = max(self.peak, len(heap))

    def heappop(self, heap):
        self.peak = max(self.peak, len(heap))
        return heapq.heappop(heap)


class TestCalendarBound:
    """The replay's heap holds only in-flight events — one occupancy,
    outage wait-out or kill per busy lane — while the entry releases
    wait in a sorted list, so the heap never holds more events than the
    batch has lanes, however many jobs are still to be released."""

    @staticmethod
    def _peak(monkeypatch, batch, arrivals):
        probe = _HeapProbe()
        monkeypatch.setattr("repro.hw.engine.heapq", probe)
        replay_dag_batch(
            batch.programs,
            batch.member_group,
            arrivals,
            len(batch.lanes),
            _fault_timelines(batch),
        )
        return probe.peak

    @pytest.mark.parametrize("seed", range(4))
    def test_tie_storms_hold_one_event_per_lane(self, monkeypatch, seed):
        rng = random.Random(seed)
        cost_model = _round_cost_model()
        executor = PipelineExecutor(cost_model=cost_model)
        for shard in range(4):
            templates = [
                _random_toy_job(rng, f"t{shard}_{k}_", cost_model)
                for k in range(rng.randint(1, 4))
            ]
            jobs = [
                job for job in templates for _ in range(rng.randint(1, 6))
            ]
            rng.shuffle(jobs)
            round_arrivals = [rng.choice((0.0, 0.5, 1.0, 2.0)) for _ in jobs]
            for plan in (None, *_random_fault_plans(rng)):
                batch = executor.compile_batch(jobs, plan)
                for arrivals in ([0.0] * len(jobs), round_arrivals):
                    peak = self._peak(monkeypatch, batch, arrivals)
                    assert 0 < peak <= len(batch.lanes)

    def test_open_chain_mix_holds_one_event_per_lane(
        self, monkeypatch, framework
    ):
        rng = random.Random(0)
        sizes = [rng.choice(SIZES) for _ in range(2048)]
        batch = framework.executor.compile_batch(
            _jobs(framework, [(n_atoms, build_pipeline) for n_atoms in sizes])
        )
        arrivals = poisson_arrivals(len(sizes), 2.0, seed=0)
        peak = self._peak(monkeypatch, batch, arrivals)
        assert 0 < peak <= len(batch.lanes)


def _faults_retry_plan(seed, horizon):
    """A plan shaped like the faults-retry benchmark's, scaled to
    ``horizon`` so a short batch meets every kind of fault: Poisson
    outages on the NDP and its wire with a permanent NDP death past
    80 % of the horizon, shocks on cpu+ndp and factor-2 CPU slowdowns."""
    outage_seed, shock_seed, slow_seed = random.Random(seed).sample(range(2**32), 3)
    outages = poisson_fault_plan(
        ["ndp", "link:cpu-ndp"],
        mtbf=horizon / 8,
        mttr=horizon / 100,
        horizon=horizon,
        seed=outage_seed,
        permanent_after=0.8 * horizon,
    )
    shocks = shock_fault_plan(
        [("cpu", "ndp")], rate=8 / horizon, mttr=horizon / 100,
        horizon=horizon, seed=shock_seed,
    )
    slowdowns = slowdown_fault_plan(
        ["cpu"], mtbf=horizon / 4, mttr=horizon / 20, horizon=horizon,
        factor=2.0, seed=slow_seed,
    )
    return outages.merge(shocks).merge(slowdowns)


class TestTieFreeFaultedBatches:
    """Real-float chain and k-point mixes under faults-retry-shaped
    plans: almost every instant is tie-free, so the replay resolves it
    inline — past each lane's quiet horizon only through the resolver,
    and after a failure or a death only when it grants no ghost — and
    must still match the engine bit for bit."""

    @staticmethod
    def _mix(framework, seed, n_jobs, rate):
        rng = random.Random(seed)
        entries = [
            (
                rng.choice(SIZES),
                build_pipeline
                if rng.random() < 0.7
                else _kpoint_builder(rng.choice((2, 3, 4))),
            )
            for _ in range(n_jobs)
        ]
        return _jobs(framework, entries), poisson_arrivals(n_jobs, rate, seed=seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_mixes_match_engine(self, framework, seed):
        kinds = Counter()
        for k, rate in enumerate((2.0, 10.0)):
            jobs, arrivals = self._mix(framework, seed, 128, rate)
            for draw in (4 * seed + 2 * k, 4 * seed + 2 * k + 1):
                plan = _faults_retry_plan(draw, arrivals[-1])
                dead = plan.dead_lanes()
                parts = (
                    plan,
                    FaultPlan(outages=plan.outages, permanent=plan.permanent),
                    FaultPlan(slowdowns=plan.slowdowns),
                )
                for part in parts:
                    report = _assert_backends_agree(
                        framework.executor, jobs, arrivals, part
                    )
                    for failure in report.failures:
                        dead_at = dead.get(failure.lane)
                        at_grant = dead_at is not None and failure.time > dead_at
                        kinds["at grant" if at_grant else failure.kind] += 1
        # Outage kills, permanent kills mid-service and kills at the grant.
        assert kinds["outage"] and kinds["permanent"] and kinds["at grant"]

    def test_faults_starting_at_a_grant_end(self, framework):
        """An outage, a slowdown or a death starting exactly at a healthy
        grant's end float.  ``grant + duration`` can round down onto the
        span's start while ``start - grant`` rounds below the duration,
        so a slowdown there inflates the grant: the horizon test is
        strict, and the resolver decides every such boundary."""
        jobs, arrivals = self._mix(framework, 7, 64, 4.0)
        batch = framework.executor.compile_batch(jobs)
        lanes = batch.lanes
        healthy = replay_dag_batch(
            batch.programs, batch.member_group, arrivals, len(lanes)
        )[2]
        grants = [
            (resource, k)
            for resource, (starts, _ends) in enumerate(healthy)
            for k in range(len(starts))
        ]
        inflated = 0
        for resource, k in random.Random(7).sample(grants, 40):
            lane, end = lanes[resource], healthy[resource][1][k]
            plans = [
                FaultPlan(outages=((lane, end, end + 1.0),)),
                FaultPlan(slowdowns=((lane, end, end + 1.0, 64.0),)),
            ]
            if not lane.startswith("link:"):
                plans.append(FaultPlan(permanent=((lane, end),)))
            for plan in plans:
                args = (
                    batch.programs,
                    batch.member_group,
                    arrivals,
                    len(lanes),
                    [plan.timeline(name) for name in lanes],
                )
                replay = replay_dag_batch(*args)
                assert replay == run_engine_batch(*args)
                inflated += replay[2][resource][1][k] != end
        # Some boundary slowdowns do inflate the grant ending at them.
        assert inflated

    def test_heap_holds_one_event_per_lane(self, monkeypatch, framework):
        jobs, arrivals = self._mix(framework, 0, 256, 10.0)
        plan = _faults_retry_plan(0, arrivals[-1])
        batch = framework.executor.compile_batch(jobs, plan)
        assert batch.faults is not None
        peak = TestCalendarBound._peak(monkeypatch, batch, arrivals)
        assert 0 < peak <= len(batch.lanes)


class TestReleaseEdges:
    """Where the sorted releases meet the heap: a release at the very
    instant of a completion (the release goes first, as its engine seq
    is older), a heap that empties while releases remain, and a batch
    with no release at all."""

    @pytest.mark.parametrize("seed", range(4))
    def test_second_wave_released_on_completion_instants(self, seed):
        rng = random.Random(seed)
        cost_model = _round_cost_model()
        executor = PipelineExecutor(cost_model=cost_model)
        templates = [
            _random_toy_job(rng, f"w{k}_", cost_model) for k in range(3)
        ]
        wave = [job for job in templates for _ in range(rng.randint(1, 4))]
        rng.shuffle(wave)
        for plan in (None, *_random_fault_plans(rng)):
            batch = executor.compile_batch(wave, plan)
            occupancy = replay_dag_batch(
                batch.programs,
                batch.member_group,
                [0.0] * len(wave),
                len(batch.lanes),
                _fault_timelines(batch),
            )[2]
            # The first wave alone ends occupancies at these instants;
            # the second wave is released on them, so at least the
            # earliest collides with a completion in the joint batch.
            ends = sorted(
                {end for _starts, lane_ends in occupancy for end in lane_ends}
            )
            second = [ends[i % len(ends)] for i in range(len(wave))]
            report = _assert_backends_agree(
                executor, wave + wave, [0.0] * len(wave) + second, plan
            )
            assert ends[0] in {
                end
                for lane in report.lane_occupancy.values()
                for _start, end in lane
            }

    @pytest.mark.parametrize("seed", range(2))
    def test_heap_empties_while_releases_remain(self, seed):
        """Each job is released half a second after every earlier one
        has finished, so the calendar drains between releases."""
        rng = random.Random(seed)
        cost_model = _round_cost_model()
        executor = PipelineExecutor(cost_model=cost_model)
        jobs = [_random_toy_job(rng, f"s{k}_", cost_model) for k in range(6)]
        for plan in (None, *_random_fault_plans(rng)):
            arrivals = [0.0]
            for k in range(1, len(jobs)):
                previous = executor.execute_many(
                    jobs[:k], arrivals=arrivals, backend="engine", faults=plan
                )
                arrivals.append(previous.makespan + 0.5)
            report = _assert_backends_agree(executor, jobs, arrivals, plan)
            assert all(
                done < release
                for done, release in zip(report.completion_times, arrivals[1:])
            )

    def test_empty_batch(self):
        empty = ([], 0.0, [([], [])] * 3, [])
        assert run_engine_batch([], [], [], 3) == empty
        assert replay_dag_batch([], [], [], 3) == empty
        assert replay_dag_batch([], [], [], 3, [None] * 3) == empty


class TestLaneOccupancyEquivalence:
    """Per-lane busy accounting is part of the backend contract: every
    backend must record the *same* occupancy intervals — the engine's
    exact floats, in grant order — so ``lane_utilization`` is safe to
    trend whichever simulator ran."""

    @pytest.mark.parametrize("seed", [20, 21, 22, 23])
    def test_chain_batches_identical_across_all_backends(self, framework, seed):
        """Random mixed-size chain batches: auto mode runs them on the
        DAG replay (one segment per job), and the engine must record
        the same intervals."""
        rng = random.Random(seed)
        entries = [
            (rng.choice(SIZES), build_pipeline)
            for _ in range(rng.randint(2, 16))
        ]
        jobs = _jobs(framework, entries)
        arrivals = None
        if seed % 2:
            arrivals = [round(rng.random() * 5, 3) for _ in jobs]
        dag = framework.executor.execute_many(jobs, arrivals=arrivals)
        engine = framework.executor.execute_many(
            jobs, arrivals=arrivals, backend="engine"
        )
        assert dag.backend_jobs == {"dag_replay": len(jobs)}
        assert dag.lane_occupancy == engine.lane_occupancy
        assert dag.lane_occupancy  # the accounting is actually on

    @pytest.mark.parametrize("seed", [30, 31, 32, 33])
    def test_kpoint_batches_identical_dag_vs_engine(self, framework, seed):
        rng = random.Random(seed)
        entries = [
            (rng.choice(SIZES), _kpoint_builder(rng.choice((2, 3, 4))))
            for _ in range(rng.randint(2, 12))
        ]
        jobs = _jobs(framework, entries)
        arrivals = None
        if seed % 2:
            arrivals = [round(rng.random() * 8, 3) for _ in jobs]
        fast = framework.executor.execute_many(jobs, arrivals=arrivals)
        slow = framework.executor.execute_many(
            jobs, arrivals=arrivals, backend="engine"
        )
        assert fast.backend_jobs == {"dag_replay": len(jobs)}
        assert fast.lane_occupancy == slow.lane_occupancy

    def test_tie_storms_record_identical_lanes(self):
        """Constructed same-instant collisions (the banded-cascade
        cases) must grant — and therefore account — identically."""
        cost_model = _round_cost_model(context_switch=0.5)
        executor = PipelineExecutor(cost_model=cost_model)
        diamond = _diamond_tie_job("y", cost_model)
        chain = _toy_dag(
            "x", ("0", "1", "2"), (("0", "1", 0.0), ("1", "2", 0.0))
        )
        chain_schedule = _toy_schedule(
            chain,
            (Placement.CPU, Placement.CPU, Placement.CPU),
            (1.0, 1.0, 1.0),
            cost_model,
        )
        jobs = [diamond, (chain, chain_schedule)] * 4
        for arrivals in (None, [0.0, 1.0] * 4, [0.5] * 8):
            fast = executor.execute_many(jobs, arrivals=arrivals)
            slow = executor.execute_many(
                jobs, arrivals=arrivals, backend="engine"
            )
            assert fast.lane_occupancy == slow.lane_occupancy

    def test_engine_path_also_accounts_lanes(self, framework):
        jobs = _jobs(framework, [(64, build_kpoint_pipeline)] * 3)
        plain = framework.executor.execute_many(jobs)
        engine = framework.executor.execute_many(jobs, backend="engine")
        assert engine.backend_jobs == {"engine": 3}
        assert engine.lane_occupancy == plain.lane_occupancy

    def test_busy_and_utilization_derive_from_intervals(self, framework):
        jobs = _jobs(framework, [(64, build_pipeline), (512, build_pipeline)])
        report = framework.executor.execute_many(jobs)
        for lane, intervals in report.lane_occupancy.items():
            assert all(end > start for start, end in intervals)
            # Occupancies on one capacity-1 lane never overlap.
            assert all(
                later_start >= earlier_end
                for (_s, earlier_end), (later_start, _e) in zip(
                    intervals, intervals[1:]
                )
            )
            busy = sum(end - start for start, end in intervals)
            assert report.lane_busy_seconds[lane] == busy
            assert report.lane_utilization[lane] == busy / report.busy_span
        assert max(report.lane_utilization.values()) <= 1.0 + 1e-12


class TestBackendFallbacks:
    def test_zero_duration_task_falls_back_to_engine(self):
        """A zero-duration stage (possible only under degenerate custom
        cost models) declines both replays; the engine still times it,
        and the numbers agree with the uncollapsed path."""
        cost_model = _round_cost_model()
        executor = PipelineExecutor(cost_model=cost_model)
        pipeline = _toy_dag(
            "z", ("a", "b", "c"), (("a", "b", 0.0), ("a", "c", 0.0))
        )
        schedule = _toy_schedule(
            pipeline,
            (Placement.CPU, Placement.CPU, Placement.NDP),
            (1.0, 0.0, 1.0),
            cost_model,
        )
        jobs = [(pipeline, schedule)] * 3
        fast = executor.execute_many(jobs)
        slow = executor.execute_many(jobs, backend="engine")
        assert fast.backend_jobs == {"engine": 3}
        assert fast.n_superjobs == 1
        assert fast.job_reports == slow.job_reports
        assert fast.makespan == slow.makespan

    def test_zero_duration_faulted_batch_falls_back_to_engine(self):
        """Under a fault plan too, a zero-duration task leaves the
        batch to the engine, which kills the struck run."""
        cost_model = _round_cost_model()
        executor = PipelineExecutor(cost_model=cost_model)
        pipeline = _toy_dag(
            "z", ("a", "b", "c"), (("a", "b", 0.0), ("a", "c", 0.0))
        )
        schedule = _toy_schedule(
            pipeline,
            (Placement.CPU, Placement.CPU, Placement.NDP),
            (1.0, 0.0, 1.0),
            cost_model,
        )
        plan = FaultPlan(outages=(("ndp", 1.5, 2.0),))
        report = executor.execute_many([(pipeline, schedule)] * 3, faults=plan)
        forced = executor.execute_many(
            [(pipeline, schedule)] * 3, backend="engine", faults=plan
        )
        assert report.backend_jobs == {"engine": 3}
        assert report.failures and report.failures == forced.failures
        assert report.job_reports == forced.job_reports
        with pytest.raises(SimulationError, match="non-positive duration"):
            executor.execute_many(
                [(pipeline, schedule)] * 3, backend="dag_replay", faults=plan
            )

    def test_solo_dag_walks_the_backends(self, framework, monkeypatch):
        """A solo job that is not a single chain runs the ordinary
        backend walk on its one-job batch: ``dag_replay`` prices it,
        bit-identically to the engine, and the engine never runs."""
        pipeline = build_kpoint_pipeline(problem_size(256), n_kpoints=2)
        schedule = framework.scheduler.schedule(pipeline)
        reference = framework.executor.execute_many(
            [(pipeline, schedule)], backend="engine"
        ).job_reports[0]
        runs = []
        monkeypatch.setattr(Engine, "run", lambda engine: runs.append(engine))
        assert framework.executor.execute(pipeline, schedule) == reference
        assert runs == []

    def test_zero_duration_solo_job_falls_back_to_engine(self):
        """A zero-duration stage declines both replays for a solo job
        as for a batch, so the walk ends on the engine."""
        cost_model = _round_cost_model()
        executor = PipelineExecutor(cost_model=cost_model)
        pipeline = _toy_dag(
            "z", ("a", "b", "c"), (("a", "b", 0.0), ("a", "c", 0.0))
        )
        schedule = _toy_schedule(
            pipeline,
            (Placement.CPU, Placement.CPU, Placement.NDP),
            (1.0, 0.0, 1.0),
            cost_model,
        )
        batch = executor.execute_many([(pipeline, schedule)])
        assert batch.backend_jobs == {"engine": 1}
        assert executor.execute(pipeline, schedule) == batch.job_reports[0]


class TestBackendRegistry:
    def test_registry_order_prefers_replays(self):
        assert backend_names() == ("dag_replay", "vector_replay", "engine")

    def test_unknown_backend_rejected(self, framework):
        jobs = _jobs(framework, [(64, build_pipeline)])
        with pytest.raises(SimulationError):
            framework.executor.execute_many(jobs, backend="nonsense")
        with pytest.raises(SimulationError):
            get_backend("nonsense")

    def test_forced_engine_matches_auto_selection(self, framework):
        jobs = _jobs(framework, [(64, build_kpoint_pipeline)] * 4)
        auto = framework.executor.execute_many(jobs)
        forced = framework.executor.execute_many(jobs, backend="engine")
        assert forced.backend_jobs == {"engine": 4}
        assert auto.backend_jobs == {"dag_replay": 4}
        assert auto.job_reports == forced.job_reports
        assert auto.makespan == forced.makespan

    def test_retired_batch_knobs_are_rejected(self, framework):
        """A batch is one simulation with no observer and no
        uncollapsed or unsharded switch: ``backend="engine"`` is the
        reference, and a backend declines a batch only in
        ``simulate``."""
        jobs = _jobs(framework, [(64, build_pipeline)] * 2)
        for knob in (
            {"observer": lambda *args: None},
            {"coalesce": False},
            {"shard": False},
        ):
            with pytest.raises(TypeError):
                framework.executor.execute_many(jobs, **knob)
        for knob in ({"coalesce": False}, {"shard": False}):
            with pytest.raises(TypeError):
                framework.run_many([64], **knob)
        for name in backend_names():
            assert not hasattr(get_backend(name), "supports")

    def test_framework_backend_stats_accumulate(self):
        framework = NdftFramework()
        stats = framework.backend_stats
        assert set(backend_names()) <= set(stats)
        assert all(count == 0 for count in stats.values())
        framework.run_many([64, 128, 512])
        assert framework.backend_stats["dag_replay"] == 3
        framework.run_many(
            [64, 128], pipeline_builder=build_kpoint_pipeline
        )
        stats = framework.backend_stats
        assert stats["dag_replay"] == 5
        assert stats["engine"] == 0
        framework.run_many([64], backend="engine")
        assert framework.backend_stats["engine"] == 1
