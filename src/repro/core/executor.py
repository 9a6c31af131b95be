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
- :meth:`PipelineExecutor.execute_many` — a batch of jobs on one shared
  set of device/link resources, timed as one simulation by one
  registered backend (:mod:`repro.core.backends`): the batching back-end
  of :meth:`repro.core.framework.NdftFramework.run_many`.

:meth:`PipelineExecutor.execute` takes an ``observer`` callback
(``lane, label, start, end``) that receives every occupancy interval of
the job — device lanes are named after the placement
(``"cpu"``/``"ndp"``/``"gpu"``), transfers land on one lane per physical
wire (``"link:cpu-ndp"``, ``"link:cpu-gpu"``, ...) — which is how
:mod:`repro.core.trace` rebuilds exact Gantt timelines without a second
timing model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
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
    """Wall-clock accounting for one simulated batch.

    ``backend`` is the registry name of the backend that actually timed
    the batch; ``wall_seconds`` is host (not virtual) time spent
    simulating it, measured around the whole backend walk including any
    declined attempts.  ``n_jobs`` and ``n_superjobs`` are the batch's
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
    ``n_superjobs``/``backend_jobs`` are observability for the scale-out
    fast path: how many signature-coalesced super-jobs the batch
    contained (0 when it took the uncollapsed engine path), and how
    many jobs each simulation backend (:mod:`repro.core.backends`)
    timed.

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
    n_superjobs: int = 0
    #: Jobs simulated per backend name, e.g. ``{"dag_replay": 512}``.
    backend_jobs: dict[str, int] = field(default_factory=dict)
    #: Occupancy intervals per lane, in grant order (see class docs).
    lane_occupancy: dict[str, tuple[tuple[float, float], ...]] = field(
        default_factory=dict
    )
    #: The batch's wall time and size, one row per simulated batch —
    #: the raw observability ``serve-bench``'s per-backend breakdown
    #: reads.
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
        arrivals: Sequence[float] | None = None,
        backend: str | None = None,
        faults: "FaultPlan | None" = None,
    ) -> BatchExecutionReport:
        """Execute every (pipeline, schedule) job concurrently on one
        shared set of devices, as one simulation.

        ``arrivals`` turns the closed batch into an open queue: job ``i``
        is released at offset ``arrivals[i]`` (seconds of virtual time,
        finite and non-negative) instead of t=0.  The DES arbitrates
        device and link contention between the released jobs exactly as
        before.

        The batch is columnar over *templates*: one pass groups the jobs
        by (pipeline, schedule) object identity
        (:func:`repro.core.backends.superjob_groups`; the framework hands
        duplicates one shared pair), and report fields are derived once
        per template.  The batch goes to the first simulation backend
        (:mod:`repro.core.backends`) that does not decline it, walking
        the order :func:`repro.core.backends.selection_order` derives
        from the batch's shape: the DAG FIFO replay (one cursor per
        replica segment, join counters on fan-in stages), the numpy wave
        replay (first, for large closed single-signature batches), or
        the generator engine as the universal fallback.  Backends return
        completion times; every job's :class:`ExecutionReport` is then
        built eagerly from its template's shared fields.

        ``backend`` names one registered backend to force (the serving
        benchmark's A/B switch); a forced backend that cannot simulate
        the batch raises :class:`SimulationError` naming the reason
        instead of silently falling back.  ``backend="engine"`` is the
        uncollapsed generator DES the replays are verified against.

        Results are bit-identical whichever backend simulates (every
        backend reproduces the engine's floats on every batch it
        accepts) — only wall time moves.  The batch's wall time lands in
        :attr:`BatchExecutionReport.backend_timings`.

        ``faults`` injects a :class:`repro.core.faults.FaultPlan`: a
        batch occupying any lane that carries fault events runs on the
        fault-aware engine path (replay backends decline it —
        :data:`repro.core.backends.FAULTED_SHARD_REASON`), and runs
        killed by an outage or permanent failure land in
        :attr:`BatchExecutionReport.failures`.  A plan on lanes the batch
        never occupies — like an *empty* plan — leaves the exact
        unmodified code path: bit-identical to no plan for every backend.
        """
        if not jobs:
            raise SimulationError("execute_many needs at least one job")
        n = len(jobs)
        if arrivals is not None:
            arrivals = [float(offset) for offset in arrivals]
            if len(arrivals) != n:
                raise SimulationError(
                    f"{n} jobs but {len(arrivals)} arrival offsets"
                )
            if not all(map(isfinite, arrivals)):
                raise SimulationError(
                    "arrival offsets must be finite, got "
                    f"{next(a for a in arrivals if not isfinite(a))}"
                )
            if min(arrivals) < 0:
                raise SimulationError(
                    f"negative arrival offset: {min(arrivals)}"
                )
        forced = None if backend is None else _backends.get_backend(backend)
        representatives, job_template = _backends.superjob_groups(jobs)
        batch = _backends.ShardJobs(jobs, representatives, job_template)
        lane_log: dict[str, list[tuple[float, float]]] = {}
        failures: list = []
        faulted = faults is not None and faults.affects(
            self._lane_names(representatives)
        )
        wall_start = perf_counter()
        if faulted:
            chosen, finish, makespan, n_superjobs = (
                self._simulate_faulted_batch(
                    batch, arrivals, forced, lane_log, faults, failures
                )
            )
        else:
            chosen, finish, makespan, n_superjobs = self._simulate_batch(
                batch, arrivals, forced, lane_log
            )
        timing = ShardTiming(
            chosen, perf_counter() - wall_start, n, n_superjobs
        )
        return BatchExecutionReport(
            job_reports=self._job_reports(
                representatives, job_template, finish
            ),
            makespan=makespan,
            arrivals=None if arrivals is None else tuple(arrivals),
            n_superjobs=n_superjobs,
            backend_jobs={chosen: n},
            lane_occupancy=self._freeze_lanes(lane_log),
            backend_timings=(timing,),
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

    def _lane_names(
        self, representatives: Sequence[tuple[Pipeline, Schedule]]
    ) -> set[str]:
        """All device/wire lane names the batch's schedules can occupy."""
        lanes: set[str] = set()
        for _pipeline, schedule in representatives:
            lanes.update(self.schedule_lanes(schedule))
        return lanes

    def _simulate_faulted_batch(
        self,
        batch: "_backends.ShardJobs",
        arrivals: Sequence[float] | None,
        forced: "_backends.SimulationBackend | None",
        lane_log: dict[str, list[tuple[float, float]]],
        faults: "FaultPlan",
        failures: list,
    ) -> tuple[str, list[float], float, int]:
        """Simulate a batch whose lanes carry fault-plan events.

        Only the fault-aware generator engine understands outage and
        slowdown windows, so every replay backend declines here —
        forcing one raises with the named reason, mirroring
        :meth:`_simulate_batch`'s refusal style.  The reason
        distinguishes the two shapes: a batch whose lanes carry any
        job-killing event (outage window, permanent death) declines
        with :data:`~repro.core.backends.FAULTED_SHARD_REASON`; a
        slowdown-only batch — nothing dies, services just inflate —
        declines with
        :data:`~repro.core.backends.SLOWDOWN_SHARD_REASON` (the FIFO
        hop-cascade equivalence does not carry over to inflated
        services).  Run failures are appended to ``failures`` keyed by
        batch index.
        """
        if forced is not None and forced.name != _ENGINE_BACKEND:
            reason = (
                _backends.FAULTED_SHARD_REASON
                if faults.affects_lethally(
                    self._lane_names(batch.representatives)
                )
                else _backends.SLOWDOWN_SHARD_REASON
            )
            raise SimulationError(
                f"backend {forced.name!r} cannot simulate a "
                f"{len(batch)}-job batch ({reason}) and no fallback "
                "is allowed"
            )
        finish, makespan = self._execute_batch_engine(
            batch, lane_log, arrivals, fault_plan=faults, failures=failures
        )
        return _ENGINE_BACKEND, finish, makespan, 0

    @staticmethod
    def _freeze_lanes(
        lane_log: dict[str, list[tuple[float, float]]]
    ) -> dict[str, tuple[tuple[float, float], ...]]:
        return {lane: tuple(ivs) for lane, ivs in lane_log.items()}

    # ------------------------------------------------------------------
    # Batch internals: the backend walk, the engine path
    # ------------------------------------------------------------------
    def _simulate_batch(
        self,
        batch: "_backends.ShardJobs",
        arrivals: list[float] | None,
        forced: "_backends.SimulationBackend | None",
        lane_log: dict[str, list[tuple[float, float]]],
    ) -> tuple[str, list[float], float, int]:
        """Time the batch through the backend layer.

        The default walk tries every registered backend in the order
        :func:`repro.core.backends.selection_order` derives from the
        batch's shape and takes the first that does not decline it; the
        engine backend, last in every walk, declines nothing, so the
        walk always terminates.  ``forced`` pins one named backend and
        raises — naming the backend's reason, asked about one
        representative job per super-job — when it declines the batch.
        ``lane_log`` collects the batch's per-lane occupancy intervals.
        Returns the chosen backend's name, the per-job completion times
        in batch order, the makespan, and the super-job count.
        """
        if forced is not None:
            candidates: tuple = (forced,)
        else:
            candidates = _backends.selection_order(
                len(batch), len(batch.representatives), arrivals is None
            )
        for candidate in candidates:
            result = candidate.simulate(self, batch, arrivals, lane_log)
            if result is not None:
                finish, makespan, groups = result
                return candidate.name, finish, makespan, groups
        reason = forced.unsupported_reason(self, batch.representatives)
        raise SimulationError(
            f"backend {forced.name!r} cannot simulate a "
            f"{len(batch)}-job batch ({reason}) and no fallback "
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
        (placement-pair frozensets) batch-wide, so replicas and distinct
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
        jobs: Sequence[tuple[Pipeline, Schedule]],
        lane_log: dict[str, list[tuple[float, float]]],
        arrivals: Sequence[float] | None,
        fault_plan: "FaultPlan | None" = None,
        failures: list | None = None,
    ) -> tuple[list[float], float]:
        """The uncollapsed path: every job of ``jobs`` as stage
        processes on one shared engine (the pre-coalescing semantics,
        and the reference the fast paths are verified against).
        Returns per-job completion times and the makespan; every
        device/wire occupancy lands in ``lane_log`` with the engine's
        own start/end floats.

        With a ``fault_plan``, each job gets a shared mutable fault
        state: the first task of the job hit by an outage window or a
        permanent lane death marks the whole job failed at that instant,
        remaining stages fall through (holding nothing past their
        current occupancy), and the run lands in ``failures`` under its
        batch index.  ``fault_plan=None`` takes the exact pre-fault
        generator — bit-identity with the replay backends depends on
        it."""

        def record(lane, _label, start, end):
            lane_log.setdefault(lane, []).append((start, end))

        engine = Engine()
        devices = self._device_resources(
            engine, [schedule for _pipeline, schedule in jobs]
        )
        links: dict[frozenset, Resource] = {}
        # Deduplicated batch setup: jobs sharing the same pipeline and
        # schedule *objects* (what the framework's entry store hands out
        # for duplicate jobs) share one transfer plan instead of
        # re-pricing every boundary per copy.  Keyed by identity — the
        # ``jobs`` sequence keeps the objects alive for the whole call —
        # because value-equality would be as expensive as rebuilding.
        plans: dict[tuple[int, int], tuple] = {}
        spawned = []
        states = (
            None
            if fault_plan is None
            else [_RunFaultState() for _ in jobs]
        )
        for position, (pipeline, schedule) in enumerate(jobs):
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
                record,
                plan,
                release=None if arrivals is None else arrivals[position],
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
                            job=position,
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
        placements = sorted(
            {p for schedule in schedules for p in schedule.assignments.values()},
            key=lambda p: p.value,
        )
        return {p: engine.resource(1, str(p)) for p in placements}

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
                    links[pair] = engine.resource(1, wire_name)
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
                    observer(wire.name, label, start, engine.now)
                yield wire.release()
            yield device.acquire()
            start = engine.now
            yield engine.timeout(duration)
            if observer is not None:
                observer(str(placement), name, start, engine.now)
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
                        label,
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
                    name,
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
                factory(name, predecessors), name=name
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
