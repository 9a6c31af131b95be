"""Pipeline executor: maps schedules onto the machine models via the DES.

The executor turns a :class:`~repro.core.scheduler.Schedule` into a
discrete-event simulation: one process per stage that (1) waits for *all*
of its DAG predecessors, (2) pays any cross-boundary transfer of its
inputs over the link serving that device pair (one transfer per crossing
in-edge; the CPU<->NDP host link by default, per-pair wires when the
cost model defines them), (3) occupies its assigned device for the
stage's modeled duration.  Devices and links are engine resources, so
independent branches placed on distinct devices genuinely overlap while
stages contending for the same device — or concurrent transfers
contending for the same wire — serialize exactly as they would on the
real hardware.

Two entry points:

- :meth:`PipelineExecutor.execute` — one job, one engine; on the paper's
  linear chain this reproduces the original serialized totals exactly
  (the Fig. 7 data).
- :meth:`PipelineExecutor.execute_many` — a batch of jobs through one
  shared engine and one shared set of device/link resources: the batching
  back-end of :meth:`repro.core.framework.NdftFramework.run_many`.

An ``observer`` callback (``lane, label, start, end``) receives every
occupancy interval — device lanes are named after the placement
(``"cpu"``/``"ndp"``/``"gpu"``), transfers land on one lane per physical
wire (``"link:cpu-ndp"``, ``"link:cpu-gpu"``, ...) — which is how
:mod:`repro.core.trace` rebuilds exact Gantt timelines without a second
timing model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Sequence

import repro.core.backends as _backends
from repro.core.cost_model import OffloadCostModel
from repro.core.faults import FaultPlan, RunFailure
from repro.core.pipeline import Pipeline
from repro.core.scheduler import Placement, Schedule
from repro.errors import SimulationError
from repro.hw.engine import Engine, Resource, SimProcess
from repro.hw.timing import PhaseTime

#: Trace callback: (lane, label, start_seconds, end_seconds).
TraceObserver = Callable[[str, str, float, float], None]

#: Prefix of every trace lane carrying boundary transfers; each physical
#: wire gets its own lane ("link:cpu-ndp", "link:cpu-gpu", ...) because
#: distinct wires legitimately carry transfers concurrently.
LINK_LANE_PREFIX = "link"

#: Name of the universal-fallback backend in the registry.
_ENGINE_BACKEND = "engine"


def lane_name(key: object) -> str:
    """The trace-lane name of one simulated resource: a device lane for
    a :class:`Placement` (``"cpu"``/``"ndp"``/``"gpu"``), a wire lane
    for a placement-pair frozenset (``"link:cpu-ndp"``) — exactly the
    names the engine's resources and the trace observer use, so lane
    accounting keys agree across every backend."""
    if isinstance(key, frozenset):
        return LINK_LANE_PREFIX + ":" + "-".join(
            sorted(p.value for p in key)
        )
    return str(key)


@dataclass(frozen=True, slots=True)
class ExecutionReport:
    """Result of executing one pipeline under one schedule.

    ``total_time`` is the DES makespan: for a chain it equals the sum of
    phase times plus the scheduling overhead; for a branching DAG it can
    be smaller (branch overlap), and for a job inside a batch it includes
    any time spent queueing for shared devices.
    """

    phase_seconds: dict[str, float]
    phase_times: dict[str, PhaseTime]
    scheduling_overhead: float
    total_time: float
    assignments: dict[str, Placement] = field(default_factory=dict)

    @property
    def overhead_fraction(self) -> float:
        if self.total_time == 0:
            return 0.0
        return self.scheduling_overhead / self.total_time

    @property
    def serial_time(self) -> float:
        """The no-overlap bound: every stage back to back plus overhead."""
        return sum(self.phase_seconds.values()) + self.scheduling_overhead

    def breakdown(self) -> dict[str, float]:
        """Per-phase seconds plus a 'scheduling' bucket (Fig. 7 bars)."""
        out = dict(self.phase_seconds)
        out["scheduling"] = self.scheduling_overhead
        return out


@dataclass(frozen=True, slots=True)
class ShardTiming:
    """Wall-clock accounting for one simulated contention shard.

    ``backend`` is the registry name of the backend that actually timed
    the shard; ``wall_seconds`` is host (not virtual) time spent
    simulating it, measured around the whole backend walk including any
    declined attempts.  ``n_jobs`` and ``n_superjobs`` are the shard's
    job count and signature-coalesced super-job count (0 on the
    uncollapsed engine path).
    """

    backend: str
    wall_seconds: float
    n_jobs: int
    n_superjobs: int


@dataclass(frozen=True, slots=True)
class BatchExecutionReport:
    """Result of executing a batch of jobs on one shared machine.

    ``arrivals`` is the per-job release offset when the batch ran as an
    open queue (``None`` for the classic everyone-at-t=0 closed batch).
    ``n_shards``/``n_superjobs``/``backend_jobs`` are observability for
    the scale-out fast path: how many independent contention shards the
    batch split into, how many signature-coalesced super-jobs they
    contained (0 when every shard took the uncollapsed engine path),
    and how many jobs each simulation backend
    (:mod:`repro.core.backends`) timed.

    ``lane_occupancy`` is the per-resource busy accounting every
    backend records while simulating: for each device or wire lane
    (named as in :func:`lane_name`), the ``(start, end)`` occupancy
    intervals in grant order.  The intervals are bit-identical
    whichever backend simulated (property-tested in
    ``tests/core/test_dag_replay.py``), which makes the derived
    :attr:`lane_busy_seconds`/:attr:`lane_utilization` safe to trend
    across backend selections.
    """

    job_reports: tuple[ExecutionReport, ...]
    makespan: float
    arrivals: tuple[float, ...] | None = None
    n_shards: int = 1
    n_superjobs: int = 0
    #: Jobs simulated per backend name, e.g. ``{"dag_replay": 512}``.
    backend_jobs: dict[str, int] = field(default_factory=dict)
    #: Occupancy intervals per lane, in grant order (see class docs).
    lane_occupancy: dict[str, tuple[tuple[float, float], ...]] = field(
        default_factory=dict
    )
    #: Per-shard wall time and shard size, in shard order — the raw
    #: observability ``serve-bench``'s per-backend breakdown reads.
    backend_timings: tuple[ShardTiming, ...] = ()
    #: Runs killed by fault-plan events (:class:`repro.core.faults.
    #: RunFailure`), in deterministic fault-event order; always empty
    #: without a fault plan.  A failed run's ``job_report`` entry covers
    #: the truncated attempt (release to fail time).
    failures: tuple = ()

    @property
    def n_jobs(self) -> int:
        return len(self.job_reports)

    @property
    def completion_latencies(self) -> tuple[float, ...]:
        """Per-job completion minus release (== completion at t=0)."""
        if self.arrivals is None:
            return tuple(r.total_time for r in self.job_reports)
        return tuple(
            report.total_time - arrival
            for report, arrival in zip(self.job_reports, self.arrivals)
        )

    @property
    def first_release(self) -> float:
        """When the machine first had work: the earliest release offset
        of an open queue, 0.0 for the t=0 closed batch (and for an
        empty report)."""
        if self.arrivals:
            return min(self.arrivals)
        return 0.0

    @property
    def busy_span(self) -> float:
        """Shared-machine seconds from the first release to the last
        completion.  For the t=0 batch this *is* the makespan; under an
        open queue it excludes the idle arrival ramp before the first
        job is released, which the makespan (an absolute virtual time)
        includes."""
        return self.makespan - self.first_release

    @property
    def throughput(self) -> float:
        """Jobs per second of shared-machine time (the busy span, so an
        open queue's arrival ramp does not dilute the rate; identical
        to jobs/makespan for the t=0 batch)."""
        span = self.busy_span
        if span <= 0:
            return 0.0
        return self.n_jobs / span

    @property
    def lane_busy_seconds(self) -> dict[str, float]:
        """Busy (occupied) seconds per device/wire lane, summed over
        the occupancy intervals in grant order."""
        return {
            lane: sum(end - start for start, end in intervals)
            for lane, intervals in self.lane_occupancy.items()
        }

    @property
    def lane_utilization(self) -> dict[str, float]:
        """Busy fraction per lane over the batch's :attr:`busy_span` —
        the "where does the saturation knee come from" signal: the lane
        closest to 1.0 is the bottleneck.  Empty when the span is
        degenerate (zero jobs)."""
        span = self.busy_span
        if span <= 0:
            return {lane: 0.0 for lane in self.lane_occupancy}
        return {
            lane: busy / span
            for lane, busy in self.lane_busy_seconds.items()
        }

    @property
    def backend_wall_seconds(self) -> dict[str, float]:
        """Host wall seconds spent simulating, totalled per backend
        over :attr:`backend_timings` — the per-backend breakdown the
        serving benchmark reports per sweep point."""
        totals: dict[str, float] = {}
        for timing in self.backend_timings:
            totals[timing.backend] = (
                totals.get(timing.backend, 0.0) + timing.wall_seconds
            )
        return totals

    @property
    def no_overlap_time(self) -> float:
        """The fully-serialized bound: every stage of every job back to
        back.  For branching jobs this exceeds what solo DES runs achieve
        (they already overlap branches) — use
        :attr:`repro.core.framework.NdftBatchResult.serial_time` for the
        achievable one-job-at-a-time baseline."""
        return sum(report.serial_time for report in self.job_reports)


class _RunFaultState:
    """Shared mutable fault flag for one simulated run.

    Every stage process of a job holds the same instance; the first
    fault that kills a task wins (deterministic: failures happen at
    fault-event instants processed in engine order) and later stages
    observe it and fall through.  ``completed`` collects the stages
    whose device occupancy finished — including stages already in
    service on another lane when the failure struck, whose committed
    occupancies run to completion — which is the checkpoint frontier a
    ``RetryPolicy(checkpoint=True)`` resume starts past."""

    __slots__ = ("failed_at", "lane", "kind", "completed")

    def __init__(self) -> None:
        self.failed_at: float | None = None
        self.lane: str | None = None
        self.kind: str | None = None
        self.completed: list[str] = []

    def fail(self, time: float, lane: str, kind: str) -> None:
        if self.failed_at is None:
            self.failed_at = time
            self.lane = lane
            self.kind = kind


@dataclass(slots=True)
class PipelineExecutor:
    """Runs scheduled pipelines through the discrete-event engine."""

    cost_model: OffloadCostModel

    # ------------------------------------------------------------------
    # Single job
    # ------------------------------------------------------------------
    def execute(
        self,
        pipeline: Pipeline,
        schedule: Schedule,
        observer: TraceObserver | None = None,
    ) -> ExecutionReport:
        if observer is None and self._is_single_chain(pipeline):
            return self._execute_chain_analytic(pipeline, schedule)
        engine = Engine()
        devices = self._device_resources(engine, [schedule])
        links: dict[frozenset, Resource] = {}
        plan = self._transfer_plan(engine, links, pipeline, schedule)
        processes, overhead_total = self._spawn_job(
            engine, devices, pipeline, schedule, observer, plan
        )
        engine.run()
        return self._job_report(
            pipeline, schedule, overhead_total, self._finish_time(processes)
        )

    @staticmethod
    def _is_single_chain(pipeline: Pipeline) -> bool:
        """One connected chain: the only shape where a solo job's DES run
        is fully serialized regardless of placement (every stage waits on
        its unique predecessor before touching any resource), so the
        makespan can be computed without the event loop.  ``is_chain``
        alone also admits forests of disjoint chains, which genuinely
        overlap on distinct devices — those must go through the DES."""
        return pipeline.is_chain and len(pipeline.entry_stages) == 1

    def _eq1_overhead(self, pipeline: Pipeline, schedule: Schedule) -> float:
        """The job's total Eq. 1 overhead, summed in ``pipeline.edges``
        order — the float-summation order is load-bearing: it must match
        the scheduler's exactly (and does, cross-checked here against
        ``schedule.scheduling_overhead``), so every executor path prices
        boundaries through this one helper."""
        overhead_total = 0.0
        for edge in pipeline.edges:
            src = schedule.assignments[edge.src]
            dst = schedule.assignments[edge.dst]
            if src is not dst:
                overhead_total += self.cost_model.boundary_cost(
                    edge.nbytes, (src, dst)
                )
        self._check_overhead(overhead_total, schedule)
        return overhead_total

    def _execute_chain_analytic(
        self, pipeline: Pipeline, schedule: Schedule
    ) -> ExecutionReport:
        """O(stages) fast path for one uncontended chain job.

        Accumulates virtual time in exactly the order the DES would (each
        boundary transfer, then the stage duration, stage by stage down
        the chain), so the resulting floats are bit-identical to
        :class:`~repro.hw.engine.Engine`'s makespan — the Fig. 7 totals
        do not move.  Passing any ``observer`` (even a no-op) forces the
        full DES, which is how the tests cross-check the two paths.
        """
        overhead_total = self._eq1_overhead(pipeline, schedule)
        # Virtual-time accrual in chain order: transfer(s), then compute.
        now = 0.0
        for name in pipeline.topological_order:
            placement = schedule.assignments[name]
            for edge in pipeline.in_edges(name):
                src = schedule.assignments[edge.src]
                if src is not placement:
                    now += self.cost_model.boundary_cost(
                        edge.nbytes, (src, placement)
                    )
            now += schedule.stage_times[name].total
        return self._job_report(pipeline, schedule, overhead_total, now)

    # ------------------------------------------------------------------
    # Batched jobs on one shared machine
    # ------------------------------------------------------------------
    def execute_many(
        self,
        jobs: Sequence[tuple[Pipeline, Schedule]],
        observer: TraceObserver | None = None,
        arrivals: Sequence[float] | None = None,
        coalesce: bool = True,
        shard: bool = True,
        backend: str | None = None,
        faults: "FaultPlan | None" = None,
    ) -> BatchExecutionReport:
        """Execute every (pipeline, schedule) job concurrently on one
        shared set of devices.

        ``arrivals`` turns the closed batch into an open queue: job ``i``
        is released at offset ``arrivals[i]`` (seconds of virtual time,
        non-negative) instead of t=0.  The DES arbitrates device and link
        contention between the released jobs exactly as before.

        Scale-out fast path (results bit-identical to the plain shared
        engine, cross-checked in tests), columnar over *templates*: one
        pass groups the jobs by (pipeline, schedule) object identity
        (:func:`repro.core.backends.superjob_groups`; the framework
        hands duplicates one shared pair), and shard features, backend
        support and report fields are derived once per template.

        - ``shard=True`` partitions the batch by contention — jobs whose
          placements touch disjoint device/link sets share no resources,
          hence no events, so each partition runs on its own simulation;
        - ``coalesce=True`` folds each shard's templates into weighted
          super-jobs and hands the shard to the first simulation
          backend (:mod:`repro.core.backends`) that supports it — asked
          about one representative job per super-job — walking the
          order :func:`repro.core.backends.selection_order` derives
          from the shard's shape: the DAG FIFO replay (one cursor per
          replica segment, join counters on fan-in stages), the numpy
          wave replay (first, for large closed single-signature
          shards), or the generator engine as the universal fallback.
          Backends return completion times; every job's
          :class:`ExecutionReport` is then built eagerly from its
          template's shared fields.

        ``backend`` names one registered backend to force for every
        shard (the serving benchmark's A/B switch); a forced backend
        that cannot simulate a shard raises :class:`SimulationError`
        naming the reason instead of silently falling back.
        ``coalesce=False`` pins the uncollapsed engine path, preserving
        the pre-backend semantics — combining it with a forced
        non-engine backend (which coalesces by construction) is a
        contradiction and raises too.

        Results are bit-identical whichever backend simulates (every
        backend reproduces the engine's floats on every shard it
        accepts) — only wall time moves.  Per-shard wall time lands in
        :attr:`BatchExecutionReport.backend_timings`.

        Passing any ``observer`` forces the uncollapsed, unsharded DES:
        trace consumers see the exact event stream of one shared engine.

        ``faults`` injects a :class:`repro.core.faults.FaultPlan`: shards
        whose lanes carry fault events run on the fault-aware engine path
        (replay backends decline them —
        :data:`repro.core.backends.FAULTED_SHARD_REASON`), runs killed by
        an outage or permanent failure land in
        :attr:`BatchExecutionReport.failures`, and unaffected shards take
        the exact unmodified code path — an *empty* plan is bit-identical
        to no plan for every backend.
        """
        if not jobs:
            raise SimulationError("execute_many needs at least one job")
        n = len(jobs)
        if faults is not None and faults.is_empty:
            faults = None
        if arrivals is not None:
            arrivals = [float(offset) for offset in arrivals]
            if len(arrivals) != n:
                raise SimulationError(
                    f"{n} jobs but {len(arrivals)} arrival offsets"
                )
            for offset in arrivals:
                if offset < 0:
                    raise SimulationError(
                        f"negative arrival offset: {offset}"
                    )
        forced = None if backend is None else _backends.get_backend(backend)
        if forced is not None and not coalesce and forced.name != _ENGINE_BACKEND:
            raise SimulationError(
                "coalesce=False pins the uncollapsed engine path; it "
                f"cannot be combined with backend={backend!r}"
            )
        representatives, job_template = _backends.superjob_groups(jobs)
        lane_log: dict[str, list[tuple[float, float]]] = {}
        if observer is not None:
            if forced is not None and forced.name != _ENGINE_BACKEND:
                raise SimulationError(
                    "a trace observer forces the uncollapsed engine DES; "
                    f"it cannot be combined with backend={backend!r}"
                )

            def recording(lane, label, start, end, _user=observer):
                lane_log.setdefault(lane, []).append((start, end))
                _user(lane, label, start, end)

            wall_start = perf_counter()
            observer_failures: list = []
            finish, makespan = self._execute_batch_engine(
                jobs,
                range(n),
                recording,
                arrivals,
                fault_plan=faults,
                failures=observer_failures,
            )
            # The wall time includes the caller's observer work.
            timing = ShardTiming(
                _ENGINE_BACKEND, perf_counter() - wall_start, n, 0
            )
            return BatchExecutionReport(
                job_reports=self._job_reports(
                    representatives, job_template, finish
                ),
                makespan=makespan,
                arrivals=None if arrivals is None else tuple(arrivals),
                backend_jobs={_ENGINE_BACKEND: n},
                lane_occupancy=self._freeze_lanes(lane_log),
                backend_timings=(timing,),
                failures=tuple(observer_failures),
            )

        shards = (
            self._contention_shards(representatives, job_template)
            if shard
            else [(list(range(len(representatives))), range(n))]
        )
        finish = [0.0] * n if len(shards) > 1 else None
        makespan = 0.0
        n_superjobs = 0
        backend_jobs: dict[str, int] = {}
        timings: list[ShardTiming] = []
        failures: list = []
        for template_ids, indices in shards:
            if finish is None:  # one shard: the whole batch, in order
                shard_jobs = _backends.ShardJobs(
                    jobs, representatives, job_template
                )
                shard_arrivals = arrivals
            else:
                group = {t: g for g, t in enumerate(template_ids)}
                shard_jobs = _backends.ShardJobs(
                    [jobs[i] for i in indices],
                    [representatives[t] for t in template_ids],
                    [group[job_template[i]] for i in indices],
                )
                shard_arrivals = (
                    None if arrivals is None else [arrivals[i] for i in indices]
                )
            faulted = faults is not None and faults.affects(
                self._shard_lane_names(shard_jobs.representatives)
            )
            wall_start = perf_counter()
            if faulted:
                chosen, shard_finish, shard_makespan, shard_groups = (
                    self._simulate_faulted_shard(
                        shard_jobs,
                        indices,
                        shard_arrivals,
                        forced,
                        lane_log,
                        faults,
                        failures,
                    )
                )
            else:
                chosen, shard_finish, shard_makespan, shard_groups = (
                    self._simulate_shard(
                        shard_jobs,
                        shard_arrivals,
                        coalesce,
                        forced,
                        lane_log,
                    )
                )
            timings.append(
                ShardTiming(
                    chosen,
                    perf_counter() - wall_start,
                    len(indices),
                    shard_groups,
                )
            )
            n_superjobs += shard_groups
            backend_jobs[chosen] = backend_jobs.get(chosen, 0) + len(indices)
            if finish is None:
                finish = shard_finish
            else:
                for index, completion in zip(indices, shard_finish):
                    finish[index] = completion
            if shard_makespan > makespan:
                makespan = shard_makespan
        return BatchExecutionReport(
            job_reports=self._job_reports(
                representatives, job_template, finish
            ),
            makespan=makespan,
            arrivals=None if arrivals is None else tuple(arrivals),
            n_shards=len(shards),
            n_superjobs=n_superjobs,
            backend_jobs=backend_jobs,
            lane_occupancy=self._freeze_lanes(lane_log),
            backend_timings=tuple(timings),
            failures=tuple(failures),
        )

    def _job_reports(
        self,
        representatives: Sequence[tuple[Pipeline, Schedule]],
        job_template: Sequence[int],
        finish: Sequence[float],
    ) -> tuple[ExecutionReport, ...]:
        """Every job's report: its template's fields, derived once per
        template and shared (never copied) by its replicas, plus the
        job's own completion time."""
        templates = [
            self._job_report(p, s, self._eq1_overhead(p, s), 0.0)
            for p, s in representatives
        ]
        fields = [
            (t.phase_seconds, t.phase_times, t.scheduling_overhead, t.assignments)
            for t in templates
        ]
        report = ExecutionReport
        return tuple(
            [
                report(phases, times, overhead, total, assignments)
                for (phases, times, overhead, assignments), total in zip(
                    map(fields.__getitem__, job_template), finish
                )
            ]
        )

    def _shard_lane_names(
        self, representatives: Sequence[tuple[Pipeline, Schedule]]
    ) -> set[str]:
        """All device/wire lane names the shard's schedules can occupy."""
        lanes: set[str] = set()
        for _pipeline, schedule in representatives:
            lanes.update(self.schedule_lanes(schedule))
        return lanes

    def _simulate_faulted_shard(
        self,
        shard_jobs: "_backends.ShardJobs",
        indices: Sequence[int],
        shard_arrivals: Sequence[float] | None,
        forced,
        lane_log: dict[str, list[tuple[float, float]]],
        faults: "FaultPlan",
        failures: list,
    ) -> tuple[str, list[float], float, int]:
        """Simulate a shard whose lanes carry fault-plan events.

        Only the fault-aware generator engine understands outage and
        slowdown windows, so every replay backend declines here —
        forcing one raises with the named reason, mirroring
        :meth:`_simulate_shard`'s refusal style.  The reason
        distinguishes the two shapes: a shard whose lanes carry any
        job-killing event (outage window, permanent death) declines
        with :data:`~repro.core.backends.FAULTED_SHARD_REASON`; a
        slowdown-only shard — nothing dies, services just inflate —
        declines with
        :data:`~repro.core.backends.SLOWDOWN_SHARD_REASON` (the FIFO
        hop-cascade equivalence does not carry over to inflated
        services).  Run failures are appended to ``failures`` keyed by
        the *batch-global* submission index from ``indices``.
        """
        if forced is not None and forced.name != _ENGINE_BACKEND:
            reason = (
                _backends.FAULTED_SHARD_REASON
                if faults.affects_lethally(
                    self._shard_lane_names(shard_jobs.representatives)
                )
                else _backends.SLOWDOWN_SHARD_REASON
            )
            raise SimulationError(
                f"backend {forced.name!r} cannot simulate a "
                f"{len(shard_jobs)}-job shard "
                f"({reason}) and no fallback "
                "is allowed"
            )

        def record(lane, _label, start, end):
            lane_log.setdefault(lane, []).append((start, end))

        shard_finish, shard_makespan = self._execute_batch_engine(
            shard_jobs,
            list(indices),
            record,
            shard_arrivals,
            fault_plan=faults,
            failures=failures,
        )
        return _ENGINE_BACKEND, shard_finish, shard_makespan, 0

    @staticmethod
    def _freeze_lanes(
        lane_log: dict[str, list[tuple[float, float]]]
    ) -> dict[str, tuple[tuple[float, float], ...]]:
        return {lane: tuple(ivs) for lane, ivs in lane_log.items()}

    # ------------------------------------------------------------------
    # Batch internals: sharding, coalescing, the engine path
    # ------------------------------------------------------------------
    @staticmethod
    def _contention_shards(
        representatives: Sequence[tuple[Pipeline, Schedule]],
        job_template: Sequence[int],
    ) -> list[tuple[list[int], Sequence[int]]]:
        """Partition the batch into contention components, as
        ``(template ids, job indices)`` per shard.

        Two jobs land in the same shard iff their placements share a
        device or a boundary wire (transitively).  Disjoint resource
        sets mean disjoint event graphs: no acquire of one shard can
        ever delay — or reorder a grant of — another, so running each
        shard on its own engine reproduces the shared engine's floats
        exactly.  Resource sets are a pure function of the schedule, so
        the union-find runs over the templates (numbered in order of
        first appearance), and only a batch of several shards walks its
        jobs once to split them.  Shards preserve submission order.
        """
        parent = list(range(len(representatives)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        owner: dict[object, int] = {}
        for template, (_pipeline, schedule) in enumerate(representatives):
            keys: set = set(schedule.assignments.values())
            for pair in schedule.crossing_pairs:
                keys.add(frozenset(pair))
            for key in keys:
                claimant = owner.setdefault(key, template)
                root_a, root_b = find(template), find(claimant)
                if root_a != root_b:
                    parent[root_b] = root_a
        by_root: dict[int, list[int]] = {}
        for template in range(len(representatives)):
            by_root.setdefault(find(template), []).append(template)
        shard_templates = list(by_root.values())
        if len(shard_templates) == 1:
            return [(shard_templates[0], range(len(job_template)))]
        shard_of = {t: s for s, ts in enumerate(shard_templates) for t in ts}
        indices: list[list[int]] = [[] for _ in shard_templates]
        for i, template in enumerate(job_template):
            indices[shard_of[template]].append(i)
        return list(zip(shard_templates, indices))

    def _simulate_shard(
        self,
        shard_jobs: "_backends.ShardJobs",
        shard_arrivals: list[float] | None,
        coalesce: bool,
        forced: "_backends.SimulationBackend | None",
        lane_log: dict[str, list[tuple[float, float]]],
    ) -> tuple[str, list[float], float, int]:
        """Time one contention shard through the backend layer.

        The default walk tries every registered backend in the order
        :func:`repro.core.backends.selection_order` derives from the
        shard's shape and takes the first that supports the shard and
        does not decline it; the engine backend supports everything, so
        the walk always terminates.  ``coalesce=False``
        pins the engine (the uncollapsed reference semantics);
        ``forced`` pins one named backend and raises — naming the
        backend's reason — when it cannot simulate the shard.
        ``lane_log`` collects the shard's per-lane occupancy intervals
        (shards touch disjoint resource sets, so the per-shard entries
        never interleave).  ``supports`` and the refusal reason see the
        shard's representative jobs, one per super-job.
        Returns the chosen backend's name, the per-job completion times
        in shard order, the shard makespan, and the super-job count.
        """
        representatives = shard_jobs.representatives
        if forced is not None:
            candidates: tuple = (forced,)
        elif coalesce:
            candidates = _backends.selection_order(
                len(shard_jobs), len(representatives), shard_arrivals is None
            )
        else:
            candidates = (_backends.get_backend(_ENGINE_BACKEND),)
        for candidate in candidates:
            if not candidate.supports(self, representatives):
                continue
            result = candidate.simulate(
                self, shard_jobs, shard_arrivals, lane_log
            )
            if result is not None:
                finish, makespan, groups = result
                return candidate.name, finish, makespan, groups
        refused = candidates[-1]
        describe = getattr(refused, "unsupported_reason", None)
        reason = (
            describe(self, representatives)
            if describe is not None
            else "unsupported shape or zero-duration task"
        )
        raise SimulationError(
            f"backend {refused.name!r} cannot simulate a "
            f"{len(shard_jobs)}-job shard ({reason}) and no fallback "
            "is allowed"
        )

    def _flatten_stage(
        self,
        pipeline: Pipeline,
        schedule: Schedule,
        name: str,
        resource_ids: dict[object, int],
    ) -> list[tuple[int, float]]:
        """One stage as FIFO-replay tasks: ``(resource index, duration)``
        pairs — each boundary-crossing in-edge's transfer on the owning
        wire (in-edge order), then the stage on its device — exactly the
        acquire sequence :meth:`_spawn_job`'s stage processes perform.
        ``resource_ids`` interns devices (:class:`Placement`) and wires
        (placement-pair frozensets) shard-wide, so replicas and distinct
        groups contend on the same indices.  The single pricing/interning
        walk both replay backends flatten through — change boundary
        pricing here and the DAG replay, the wave replay and the engine
        (via :meth:`_eq1_overhead`'s cross-check) stay in lockstep."""
        placement = schedule.assignments[name]
        tasks: list[tuple[int, float]] = []
        for edge in pipeline.in_edges(name):
            src = schedule.assignments[edge.src]
            if src is not placement:
                pair = frozenset((src, placement))
                wire = resource_ids.get(pair)
                if wire is None:
                    wire = resource_ids[pair] = len(resource_ids)
                tasks.append(
                    (
                        wire,
                        self.cost_model.boundary_cost(
                            edge.nbytes, (src, placement)
                        ),
                    )
                )
        device = resource_ids.get(placement)
        if device is None:
            device = resource_ids[placement] = len(resource_ids)
        tasks.append((device, schedule.stage_times[name].total))
        return tasks

    def _execute_batch_engine(
        self,
        shard_jobs: Sequence[tuple[Pipeline, Schedule]],
        labels: Sequence[int],
        observer: TraceObserver | None,
        shard_arrivals: Sequence[float] | None,
        fault_plan: "FaultPlan | None" = None,
        failures: list | None = None,
    ) -> tuple[list[float], float]:
        """The uncollapsed path: every job of ``shard_jobs`` as stage
        processes on one shared engine (the pre-coalescing semantics,
        and the reference the fast paths are verified against).
        Returns per-job completion times and the makespan.  ``labels``
        carries the submission indices for trace prefixes.

        With a ``fault_plan``, each job gets a shared mutable fault
        state: the first task of the job hit by an outage window or a
        permanent lane death marks the whole job failed at that instant,
        remaining stages fall through (holding nothing past their
        current occupancy), and the run lands in ``failures`` under its
        submission index from ``labels``.  ``fault_plan=None`` takes the
        exact pre-fault generator — bit-identity with the replay
        backends depends on it."""
        engine = Engine()
        devices = self._device_resources(
            engine, [schedule for _pipeline, schedule in shard_jobs]
        )
        links: dict[frozenset, Resource] = {}
        # Deduplicated batch setup: jobs sharing the same pipeline and
        # schedule *objects* (what the framework's signature caches hand
        # out for duplicate jobs) share one transfer plan instead of
        # re-pricing every boundary per copy.  Keyed by identity — the
        # ``jobs`` sequence keeps the objects alive for the whole call —
        # because value-equality would be as expensive as rebuilding.
        plans: dict[tuple[int, int], tuple] = {}
        spawned = []
        states = (
            None
            if fault_plan is None
            else [_RunFaultState() for _ in shard_jobs]
        )
        for position, (pipeline, schedule) in enumerate(shard_jobs):
            plan_key = (id(pipeline), id(schedule))
            plan = plans.get(plan_key)
            if plan is None:
                plan = self._transfer_plan(engine, links, pipeline, schedule)
                plans[plan_key] = plan
            processes, _overhead = self._spawn_job(
                engine,
                devices,
                pipeline,
                schedule,
                observer,
                plan,
                label_prefix=f"job{labels[position]}:",
                release=(
                    None if shard_arrivals is None
                    else shard_arrivals[position]
                ),
                fault_plan=fault_plan,
                fault_state=None if states is None else states[position],
            )
            spawned.append(processes)
        makespan = engine.run()
        finish = [self._finish_time(processes) for processes in spawned]
        if states is not None and failures is not None:
            for position, state in enumerate(states):
                if state.failed_at is not None:
                    failures.append(
                        RunFailure(
                            job=labels[position],
                            time=state.failed_at,
                            lane=state.lane,
                            kind=state.kind,
                            completed_stages=tuple(sorted(state.completed)),
                        )
                    )
        return finish, makespan

    @staticmethod
    def schedule_lanes(schedule: Schedule) -> tuple[str, ...]:
        """The device/wire lane names one scheduled job occupies — the
        keys its occupancies land under in ``lane_occupancy``, and the
        resources an admission controller charges its backlog to."""
        lanes = {lane_name(p) for p in schedule.assignments.values()}
        for pair in schedule.crossing_pairs:
            lanes.add(lane_name(frozenset(pair)))
        return tuple(sorted(lanes))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _device_resources(
        engine: Engine, schedules: Sequence[Schedule]
    ) -> dict[Placement, Resource]:
        # Occupancy intervals reach the trace via the observer callback,
        # never via Resource.usage_log, so sampling stays off.
        placements = sorted(
            {p for schedule in schedules for p in schedule.assignments.values()},
            key=lambda p: p.value,
        )
        return {
            p: engine.resource(1, str(p), log_usage=False) for p in placements
        }

    def _transfer_plan(
        self,
        engine: Engine,
        links: dict[frozenset, Resource],
        pipeline: Pipeline,
        schedule: Schedule,
    ) -> tuple[dict[str, list[tuple[str, Resource, float]]], float]:
        """Price every boundary-crossing in-edge of one job: per-stage
        transfer lists plus the job's total Eq. 1 overhead.

        ``links`` maps each device pair to its capacity-1 wire resource
        (created on first use and shared across every job in the engine),
        so CPU<->NDP and CPU<->GPU transfers ride distinct wires while
        transfers on the same wire serialize.  The job total comes from
        :meth:`_eq1_overhead` (the one scheduler-order summation).
        """
        overhead_total = self._eq1_overhead(pipeline, schedule)
        transfers: dict[str, list[tuple[str, Resource, float]]] = {
            name: [] for name in pipeline.stage_names
        }
        for edge in pipeline.edges:
            src_placement = schedule.assignments[edge.src]
            dst_placement = schedule.assignments[edge.dst]
            if src_placement is not dst_placement:
                pair = frozenset((src_placement, dst_placement))
                if pair not in links:
                    wire_name = "link:" + "-".join(sorted(p.value for p in pair))
                    links[pair] = engine.resource(1, wire_name, log_usage=False)
                cost = self.cost_model.boundary_cost(
                    edge.nbytes, (src_placement, dst_placement)
                )
                transfers[edge.dst].append(
                    (f"{edge.src}->{edge.dst}", links[pair], cost)
                )
        return transfers, overhead_total

    def _spawn_job(
        self,
        engine: Engine,
        devices: dict[Placement, Resource],
        pipeline: Pipeline,
        schedule: Schedule,
        observer: TraceObserver | None,
        plan: tuple[dict[str, list[tuple[str, Resource, float]]], float],
        label_prefix: str = "",
        release: float | None = None,
        fault_plan: FaultPlan | None = None,
        fault_state: "_RunFaultState | None" = None,
    ) -> tuple[dict[str, SimProcess], float]:
        """Spawn one process per stage (in topological order, so every
        predecessor process exists before its dependents) and return the
        processes plus the job's total Eq. 1 overhead.  ``plan`` is the
        job's :meth:`_transfer_plan` (shareable between jobs that run
        the same pipeline/schedule objects in the same engine).
        ``release`` delays the job's entry stages to that arrival offset
        (downstream stages inherit it through the predecessor waits).

        ``fault_plan``/``fault_state`` switch to the fault-aware stage
        generator.  The healthy generator below stays byte-for-byte what
        it was before faults existed: the empty-plan bit-identity
        contract requires the no-fault event stream to be untouched."""
        transfers, overhead_total = plan

        def stage_process(name: str, predecessors: list[SimProcess]):
            placement = schedule.assignments[name]
            device = devices[placement]
            duration = schedule.stage_times[name].total
            if release is not None and not predecessors:
                yield engine.timeout(release)
            for predecessor in predecessors:
                yield predecessor
            for label, wire, cost in transfers[name]:
                yield wire.acquire()
                start = engine.now
                yield engine.timeout(cost)
                if observer is not None:
                    observer(wire.name, label_prefix + label, start, engine.now)
                yield wire.release()
            yield device.acquire()
            start = engine.now
            yield engine.timeout(duration)
            if observer is not None:
                observer(
                    str(placement), label_prefix + name, start, engine.now
                )
            yield device.release()

        def faulty_stage_process(name: str, predecessors: list[SimProcess]):
            # Mirrors stage_process, but every occupancy runs through the
            # fault plan, and once any stage of the job fails, the
            # remaining stages fall through: they still pass their
            # acquire/release pairs (so FIFO queues drain and nothing
            # deadlocks) but occupy no time on the lane.
            placement = schedule.assignments[name]
            device = devices[placement]
            duration = schedule.stage_times[name].total
            if release is not None and not predecessors:
                yield engine.timeout(release)
            for predecessor in predecessors:
                yield predecessor
            for label, wire, cost in transfers[name]:
                yield wire.acquire()
                alive = fault_state.failed_at is None and (
                    yield from self._occupy_faulted(
                        engine,
                        fault_plan,
                        fault_state,
                        wire.name,
                        cost,
                        observer,
                        label_prefix + label,
                    )
                )
                yield wire.release()
                if not alive:
                    return
            yield device.acquire()
            alive = fault_state.failed_at is None and (
                yield from self._occupy_faulted(
                    engine,
                    fault_plan,
                    fault_state,
                    str(placement),
                    duration,
                    observer,
                    label_prefix + name,
                )
            )
            if alive:
                # The stage's device work finished — even if another
                # stage of the job failed mid-flight, this occupancy was
                # committed and ran to completion, so it belongs to the
                # checkpoint frontier a resume may start past.
                fault_state.completed.append(name)
            yield device.release()
            if not alive:
                return

        factory = stage_process if fault_state is None else faulty_stage_process
        processes: dict[str, SimProcess] = {}
        for name in pipeline.topological_order:
            predecessors = [processes[p] for p in pipeline.predecessors(name)]
            processes[name] = engine.spawn(
                factory(name, predecessors), name=label_prefix + name
            )
        return processes, overhead_total

    @staticmethod
    def _occupy_faulted(
        engine: Engine,
        fault_plan: FaultPlan,
        fault_state: "_RunFaultState",
        lane: str,
        duration: float,
        observer: TraceObserver | None,
        label: str,
    ):
        """Occupy ``lane`` for ``duration`` under the fault plan.

        The caller already holds the lane's resource.  A task granted
        inside an outage window waits the window out (no failure); a
        window starting mid-service — or the lane's permanent death —
        kills the job at that instant and marks ``fault_state``.
        Slowdown windows never kill: they inflate the occupancy to the
        piecewise wall time the fault plan resolved.  Yields engine
        commands; returns True when the occupancy completed, False when
        the job failed (the caller releases and bails out).
        """
        grant = engine.now
        service, wall, fail_time, kind = fault_plan.resolve_service(
            lane, grant, duration
        )
        if fail_time is None:
            if service > grant:
                yield engine.timeout(service - grant)
            start = engine.now
            yield engine.timeout(wall)
            if observer is not None:
                observer(lane, label, start, engine.now)
            return True
        if fail_time > grant:
            yield engine.timeout(fail_time - grant)
        if observer is not None and engine.now > service:
            # The truncated occupancy [service, fail): real busy time the
            # lane spent on work that was then thrown away.
            observer(lane, label, service, engine.now)
        fault_state.fail(engine.now, lane, kind)
        return False

    @staticmethod
    def _check_overhead(overhead_total: float, schedule: Schedule) -> None:
        expected_overhead = schedule.scheduling_overhead
        if abs(overhead_total - expected_overhead) > 1e-9 * max(
            1.0, expected_overhead
        ):
            raise SimulationError(
                "executor and scheduler disagree on Eq. 1 overhead: "
                f"{overhead_total} vs {expected_overhead}"
            )

    @staticmethod
    def _finish_time(processes: dict[str, SimProcess]) -> float:
        finishes = [p.finish_time for p in processes.values()]
        if any(f is None for f in finishes):
            raise SimulationError("job finished with unfinished stages")
        return max(finishes)

    @staticmethod
    def _job_report(
        pipeline: Pipeline,
        schedule: Schedule,
        overhead_total: float,
        total_time: float,
    ) -> ExecutionReport:
        phase_seconds = {
            name: schedule.stage_times[name].total
            for name in pipeline.stage_names
        }
        return ExecutionReport(
            phase_seconds=phase_seconds,
            phase_times=dict(schedule.stage_times),
            scheduling_overhead=overhead_total,
            total_time=total_time,
            assignments=dict(schedule.assignments),
        )
