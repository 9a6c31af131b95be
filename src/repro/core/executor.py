"""Pipeline executor: compiles schedules, walks the simulation backends
and reports.

The executor turns a :class:`~repro.core.scheduler.Schedule` into a
discrete-event simulation in which each stage (1) waits for *all* of
its DAG predecessors, (2) pays any cross-boundary transfer of its
inputs over the link serving that device pair (one transfer per
crossing in-edge; the CPU<->NDP host link by default, per-pair wires
when the cost model defines them), (3) occupies its assigned device for
the stage's modeled duration.  Devices and links are capacity-1 FIFO
resources, so independent branches placed on distinct devices
genuinely overlap while stages contending for the same device — or
concurrent transfers contending for the same wire — serialize exactly
as they would on the real hardware.

Every path prices a job through one compile.
:meth:`PipelineExecutor.compile_batch` groups a batch's jobs into
signature-coalesced super-jobs and compiles each super-job once into
a ``(stage_tasks, stage_preds)`` program — per stage in topological
order, its ``(resource, duration)`` tasks (boundary transfers in
in-edge order, then the device occupancy) and its predecessor indices
— over resources it interns batch-wide and names (:func:`lane_name`:
device lanes after the placement, ``"cpu"``/``"ndp"``/``"gpu"``, and
one lane per physical wire, ``"link:cpu-ndp"``, ...).  Every simulation
backend (:mod:`repro.core.backends`) runs those programs;
:meth:`PipelineExecutor._eq1_overhead` prices the job's Eq. 1 overhead
independently, in the scheduler's order, and fails loudly if the two
ever drift.

Two entry points:

- :meth:`PipelineExecutor.execute` — one job.  A single connected chain
  accrues its compiled task durations in order (the engine's exact
  float additions, so the Fig. 7 totals do not move); any other shape
  walks the backends on its one-job compiled batch, like any batch.
- :meth:`PipelineExecutor.execute_many` — a batch of jobs on one shared
  set of device/link resources, timed as one simulation by one
  registered backend, under a fault plan too: the batching back-end of
  :meth:`repro.core.framework.NdftFramework.run_many`.  Its report is
  columnar: one completion time per job, one report template per
  super-job, a :class:`ReportView` that builds a job's
  :class:`ExecutionReport` only when a caller reads it, and a
  :class:`LaneView` per lane over the backend's occupancy columns.

The executor holds no simulator: :mod:`repro.core.trace` runs the
engine on a compiled job itself to rebuild exact Gantt timelines.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from math import isfinite
from time import perf_counter

import repro.core.backends as _backends
from repro.core.cost_model import OffloadCostModel
from repro.core.faults import FaultPlan, RunFailure
from repro.core.pipeline import Pipeline
from repro.core.scheduler import Placement, Schedule
from repro.errors import SimulationError
from repro.hw.timing import PhaseTime

#: Prefix of every trace lane carrying boundary transfers; each physical
#: wire gets its own lane ("link:cpu-ndp", "link:cpu-gpu", ...) because
#: distinct wires legitimately carry transfers concurrently.
LINK_LANE_PREFIX = "link"


def lane_name(key: object) -> str:
    """The trace-lane name of one simulated resource: a device lane for
    a :class:`Placement` (``"cpu"``/``"ndp"``/``"gpu"``), a wire lane
    for a placement-pair frozenset (``"link:cpu-ndp"``) — exactly the
    names every backend's occupancy and every trace event are filed
    under, so lane accounting keys agree across backends."""
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


class JobView(Sequence):
    """A read-only sequence of per-job objects, held as columns and
    built only when read.

    ``rows`` holds what jobs share, one row per template;
    ``row_index[i]`` is job ``i``'s row and ``column[i]`` its own
    value.  Indexing or iterating builds each object from its row and
    value (:meth:`_build`); a slice is a tuple of built objects.  A
    view equals a tuple of equal objects from either side, and a view
    of the same kind column by column — one comparison per distinct
    pair of rows, building nothing.  It holds plain data only, so it
    pickles."""

    __slots__ = ("column", "row_index", "rows")

    def __init__(self, rows, row_index: Sequence, column: Sequence):
        self.rows = rows
        self.row_index = row_index
        self.column = column

    def _build(self, row, value):
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.row_index)

    def __getitem__(self, position):
        if isinstance(position, slice):
            return tuple(
                map(
                    self._build,
                    map(self.rows.__getitem__, self.row_index[position]),
                    self.column[position],
                )
            )
        row = self.rows[self.row_index[position]]
        return self._build(row, self.column[position])

    def __iter__(self):
        rows = map(self.rows.__getitem__, self.row_index)
        return map(self._build, rows, self.column)

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return self.column == other.column and all(
                self.rows[mine] == other.rows[theirs]
                for mine, theirs in set(zip(self.row_index, other.row_index))
            )
        if isinstance(other, (tuple, JobView)):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"<{type(self).__name__}: {len(self)} jobs, {len(self.rows)} rows>"


class ReportView(JobView):
    """Every job's :class:`ExecutionReport`: ``rows`` are the
    super-jobs' report templates, ``row_index`` each job's super-job and
    ``column`` each job's completion time (its ``total_time``)."""

    __slots__ = ()

    def _build(self, template: ExecutionReport, total_time: float) -> ExecutionReport:
        return ExecutionReport(
            template.phase_seconds,
            template.phase_times,
            template.scheduling_overhead,
            total_time,
            template.assignments,
        )


class LaneView(Sequence):
    """One lane's occupancy intervals in grant order, held as a start
    and an end column and paired only when read.

    Indexing returns a ``(start, end)`` tuple, a slice a tuple of them,
    and iterating yields them one at a time; ``len`` counts the
    occupancies.  A view equals a tuple of equal pairs from either
    side, and another view column by column.  It holds plain data only,
    so it pickles."""

    __slots__ = ("ends", "starts")

    def __init__(self, starts: Sequence[float], ends: Sequence[float]):
        self.starts = starts
        self.ends = ends

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, position):
        if isinstance(position, slice):
            return tuple(zip(self.starts[position], self.ends[position]))
        return self.starts[position], self.ends[position]

    def __iter__(self):
        return zip(self.starts, self.ends)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaneView):
            return self.starts == other.starts and self.ends == other.ends
        if isinstance(other, tuple):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"<{type(self).__name__}: {len(self)} occupancies>"


@dataclass(frozen=True, slots=True)
class ShardTiming:
    """Wall-clock accounting for one simulated batch.

    ``backend`` is the registry name of the backend that actually timed
    the batch; ``wall_seconds`` is host (not virtual) time spent
    simulating it, measured around the batch's compile and the whole
    backend walk, including any declined attempts.  ``n_jobs`` and
    ``n_superjobs`` are the batch's job count and signature-coalesced
    super-job count (the compiled programs, whichever backend ran).
    """

    backend: str
    wall_seconds: float
    n_jobs: int
    n_superjobs: int


@dataclass(frozen=True, slots=True)
class BatchExecutionReport:
    """Result of executing a batch of jobs on one shared machine.

    The per-job results are columns: ``completion_times`` (each job's
    completion, in batch order), one report template per super-job
    (``templates``: the fields its jobs share, ``total_time`` 0.0) and
    each job's template (``template_index``).  :attr:`job_reports`
    builds a job's :class:`ExecutionReport` from them only when a
    caller reads it; every aggregate here reads the columns.

    ``arrivals`` is the per-job release offset when the batch ran as an
    open queue (``None`` for the classic everyone-at-t=0 closed batch).
    ``n_superjobs``/:attr:`backend_jobs` are observability for the
    scale-out fast path: how many signature-coalesced super-jobs the
    batch compiled into (whichever backend ran), and how many jobs each
    simulation backend (:mod:`repro.core.backends`) timed.

    ``lane_occupancy`` is the per-resource busy accounting every
    backend records while simulating: for each occupied device or wire
    lane (named as in :func:`lane_name`), a :class:`LaneView` over the
    backend's start and end columns, which yields the ``(start, end)``
    occupancy intervals in grant order only when read.  The intervals
    are bit-identical whichever backend simulated (property-tested in
    ``tests/core/test_dag_replay.py``), which makes the derived
    :attr:`lane_busy_seconds`/:attr:`lane_utilization` safe to trend
    across backend selections.
    """

    completion_times: tuple[float, ...]
    makespan: float
    arrivals: tuple[float, ...] | None = None
    n_superjobs: int = 0
    #: Occupancy intervals per lane, in grant order (see class docs).
    lane_occupancy: dict[str, LaneView] = field(default_factory=dict)
    #: The batch's wall time and size, one row per simulated batch (a
    #: faulted ``run_many`` simulates one batch per retry round) — the
    #: raw observability ``serve-bench``'s per-backend breakdown reads.
    backend_timings: tuple[ShardTiming, ...] = ()
    #: Runs killed by fault-plan events (:class:`repro.core.faults.
    #: RunFailure`), in batch order; always empty
    #: without a fault plan.  A failed run's completion time is its
    #: fail time (the truncated attempt).
    failures: tuple = ()
    #: One report per super-job with the fields its jobs share
    #: (``total_time`` 0.0).
    templates: tuple[ExecutionReport, ...] = ()
    #: Each job's position in ``templates``, in batch order.
    template_index: tuple[int, ...] = ()
    #: ``(backend name, reason)`` for each backend that declined the
    #: batch before one accepted it, in walk order; empty when the first
    #: candidate accepted or the backend was forced.
    declines: tuple[tuple[str, str], ...] = ()
    #: When the machine first had work, where that precedes every
    #: job's release: a faulted run's surviving jobs, whose lanes also
    #: carry the attempts that failed before them (``None``: the
    #: earliest release).
    span_start: float | None = None

    @property
    def job_reports(self) -> ReportView:
        """Every job's :class:`ExecutionReport`, in batch order, built
        on read from the columns."""
        return ReportView(self.templates, self.template_index, self.completion_times)

    @property
    def n_jobs(self) -> int:
        return len(self.completion_times)

    @property
    def completion_latencies(self) -> tuple[float, ...]:
        """Per-job completion minus release (== completion at t=0)."""
        if self.arrivals is None:
            return self.completion_times
        return tuple(map(operator.sub, self.completion_times, self.arrivals))

    @property
    def first_release(self) -> float:
        """When the machine first had work: ``span_start`` when set,
        else the earliest release offset of an open queue, 0.0 for the
        t=0 closed batch (and for an empty report)."""
        if self.span_start is not None:
            return self.span_start
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
    def lane_busy_seconds(self) -> dict[str, float]:
        """Busy (occupied) seconds per device/wire lane: each
        interval's ``end - start``, summed in grant order from the
        lane's columns."""
        return {
            lane: sum(map(operator.sub, view.ends, view.starts))
            for lane, view in self.lane_occupancy.items()
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
    def backend_jobs(self) -> dict[str, int]:
        """Jobs simulated per backend name, e.g. ``{"dag_replay": 512}``,
        totalled over :attr:`backend_timings` in first-seen order."""
        totals: dict[str, int] = {}
        for timing in self.backend_timings:
            totals[timing.backend] = totals.get(timing.backend, 0) + timing.n_jobs
        return totals

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


@dataclass(slots=True)
class PipelineExecutor:
    """Compiles scheduled pipelines and times them through the
    simulation backends."""

    cost_model: OffloadCostModel

    # ------------------------------------------------------------------
    # Single job
    # ------------------------------------------------------------------
    def execute(self, pipeline: Pipeline, schedule: Schedule) -> ExecutionReport:
        """One job on a dedicated machine, priced from its compiled
        program.  An uncontended single chain needs no event loop:
        every stage waits on its unique predecessor before touching any
        resource, so the makespan is the task durations accrued in
        program order — the additions the engine performs, so the
        floats are bit-identical.  Any other shape walks the backends
        on its one-job compiled batch (:meth:`_simulate`), as a batch
        does."""
        overhead_total = self._eq1_overhead(pipeline, schedule)
        if self._is_single_chain(pipeline):
            total = 0.0
            for tasks in self._compile_job(pipeline, schedule, {})[0]:
                for _resource, duration in tasks:
                    total += duration
        else:
            batch = self.compile_batch([(pipeline, schedule)])
            _name, (completions, *_), _declines = self._simulate(
                batch, None, None
            )
            total = completions[0]
        return self._job_report(pipeline, schedule, overhead_total, total)

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

    # ------------------------------------------------------------------
    # The compile every simulation path runs
    # ------------------------------------------------------------------
    def compile_batch(
        self,
        jobs: Sequence[tuple[Pipeline, Schedule]],
        faults: FaultPlan | None = None,
    ) -> "_backends.CompiledBatch":
        """Group ``jobs`` into super-jobs by pipeline/schedule object
        identity (:func:`repro.core.backends.superjob_groups`; the
        framework hands duplicates one shared pair) and compile each
        super-job once — the :class:`~repro.core.backends.CompiledBatch`
        every backend's ``simulate`` reads.  The batch keeps ``faults``
        only when the plan touches one of its lanes."""
        representatives, member_group = _backends.superjob_groups(jobs)
        resource_ids: dict[object, int] = {}
        programs = [
            self._compile_job(pipeline, schedule, resource_ids)
            for pipeline, schedule in representatives
        ]
        lanes = [lane_name(key) for key in resource_ids]
        if faults is not None and not faults.affects(lanes):
            faults = None
        return _backends.CompiledBatch(
            representatives, member_group, programs, lanes, faults
        )

    def _compile_job(
        self,
        pipeline: Pipeline,
        schedule: Schedule,
        resource_ids: dict[object, int],
    ) -> tuple[list[list[tuple[int, float]]], list[tuple[int, ...]]]:
        """One job as a ``(stage_tasks, stage_preds)`` program, stages
        in topological order: each boundary-crossing in-edge's transfer
        on the owning wire (in-edge order), then the stage on its
        device, as ``(resource index, duration)`` tasks; and each
        stage's predecessor indices in in-edge order.  ``resource_ids``
        interns devices (:class:`Placement`) and wires (placement-pair
        frozensets) batch-wide, in first-use order, so replicas and
        distinct super-jobs contend on the same indices.  This is the
        executor's one boundary-pricing walk: change pricing here and
        every backend and the solo chain stay in lockstep (with
        :meth:`_eq1_overhead`'s independent cross-check)."""
        assignments = schedule.assignments
        stage_times = schedule.stage_times
        boundary_cost = self.cost_model.boundary_cost
        intern = resource_ids.setdefault
        topo = pipeline.topological_order
        position = {name: index for index, name in enumerate(topo)}
        stage_tasks: list[list[tuple[int, float]]] = []
        stage_preds: list[tuple[int, ...]] = []
        for name in topo:
            placement = assignments[name]
            tasks: list[tuple[int, float]] = []
            edges = pipeline.in_edges(name)
            for edge in edges:
                src = assignments[edge.src]
                if src is not placement:
                    tasks.append(
                        (
                            intern(
                                frozenset((src, placement)), len(resource_ids)
                            ),
                            boundary_cost(edge.nbytes, (src, placement)),
                        )
                    )
            tasks.append(
                (intern(placement, len(resource_ids)), stage_times[name].total)
            )
            stage_tasks.append(tasks)
            stage_preds.append(tuple([position[edge.src] for edge in edges]))
        return stage_tasks, stage_preds

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

        The batch is compiled once (:meth:`compile_batch`: one program
        per super-job), report fields are derived once per super-job,
        and the compiled batch goes to the first simulation backend
        (:mod:`repro.core.backends`) that does not decline it, walking
        the order :func:`repro.core.backends.selection_order` derives
        from the batch's shape: the DAG FIFO replay (one cursor per
        replica segment, join counters on fan-in stages), the numpy wave
        replay (first, for large closed single-signature batches), or
        the generator engine as the fallback for zero-duration tasks.
        Backends return completion times, which the report keeps as
        one column beside one template per super-job (a job's
        :class:`ExecutionReport` is built only when a caller reads
        :attr:`BatchExecutionReport.job_reports`), and each resource's
        occupancy as start and end columns, which it files under the
        batch's lane names as one :class:`LaneView` per occupied lane.
        Backends that declined the batch on the way land in
        :attr:`BatchExecutionReport.declines` with their reasons.

        ``backend`` names one registered backend to force (the serving
        benchmark's A/B switch); a forced backend that cannot simulate
        the batch raises :class:`SimulationError` naming the reason
        instead of silently falling back.  ``backend="engine"`` is the
        generator DES, one process per stage of every job, that the
        replays are verified against.

        Results are bit-identical whichever backend simulates (every
        backend reproduces the engine's floats on every batch it
        accepts) — only wall time moves.  The batch's wall time lands in
        :attr:`BatchExecutionReport.backend_timings`.

        ``faults`` injects a :class:`repro.core.faults.FaultPlan`: a
        batch occupying any lane that carries fault events walks the
        same backends under the plan — ``dag_replay`` simulates it
        bit-identically to the fault-aware engine, ``vector_replay``
        declines it (:data:`repro.core.backends.FAULT_PLAN_REASON`), and
        a zero-duration batch falls back to the engine — and runs killed
        by an outage or permanent failure land in
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
        wall_start = perf_counter()
        batch = self.compile_batch(jobs, faults)
        chosen, (finish, makespan, occupancy, failed), declines = (
            self._simulate(batch, arrivals, forced)
        )
        n_superjobs = len(batch.programs)
        timing = ShardTiming(
            chosen, perf_counter() - wall_start, n, n_superjobs
        )
        return BatchExecutionReport(
            completion_times=tuple(finish),
            makespan=makespan,
            arrivals=None if arrivals is None else tuple(arrivals),
            n_superjobs=n_superjobs,
            lane_occupancy={
                lane: LaneView(starts, ends)
                for lane, (starts, ends) in zip(batch.lanes, occupancy)
                if starts
            },
            backend_timings=(timing,),
            failures=self._run_failures(batch, failed),
            templates=tuple(
                self._job_report(p, s, self._eq1_overhead(p, s), 0.0)
                for p, s in batch.representatives
            ),
            template_index=tuple(batch.member_group),
            declines=declines,
        )

    # ------------------------------------------------------------------
    # Batch internals: the backend walk
    # ------------------------------------------------------------------
    @staticmethod
    def _simulate(
        batch: "_backends.CompiledBatch",
        arrivals: list[float] | None,
        forced: "_backends.SimulationBackend | None",
    ) -> tuple[str, "_backends.SimulationResult", tuple[tuple[str, str], ...]]:
        """Time the compiled batch through the backend layer.

        The default walk tries every registered backend in the order
        :func:`repro.core.backends.selection_order` derives from the
        batch's shape and takes the first that does not decline it; the
        engine backend, last in every walk, declines nothing, so the
        walk always terminates.  A batch compiled under a fault plan
        walks the same way.  ``forced`` pins one named backend and
        raises, naming its ``unsupported_reason`` for the compiled
        batch, when it declines.  Returns the chosen backend's name; its
        result (completion times in batch order, the makespan, each
        resource's start and end columns and the failure rows); and the
        ``(name, unsupported_reason)`` of each backend that declined
        first (a reason is asked for only after a decline).
        """
        if forced is not None:
            candidates: tuple = (forced,)
        else:
            candidates = _backends.selection_order(
                len(batch), len(batch.programs), arrivals is None
            )
        declines = ()
        for candidate in candidates:
            result = candidate.simulate(batch, arrivals)
            if result is not None:
                return candidate.name, result, declines
            declines += ((candidate.name, candidate.unsupported_reason(batch)),)
        # Only a forced backend's decline gets here: every auto walk
        # ends on the engine, which declines nothing.
        name, reason = declines[-1]
        raise SimulationError(
            f"backend {name!r} cannot simulate a {len(batch)}-job batch "
            f"({reason}) and no fallback is allowed"
        )

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
    def _run_failures(
        batch: "_backends.CompiledBatch", failed
    ) -> tuple[RunFailure, ...]:
        """A backend's ``(job, time, resource, kind, stages)`` failure
        rows as :class:`RunFailure` records: the resource by lane name,
        the completed program stages by stage name, sorted."""
        failures = []
        for job, time, resource, kind, stages in failed:
            pipeline = batch.representatives[batch.member_group[job]][0]
            names = pipeline.topological_order
            failures.append(
                RunFailure(
                    job=job,
                    time=time,
                    lane=batch.lanes[resource],
                    kind=kind,
                    completed_stages=tuple(sorted(map(names.__getitem__, stages))),
                )
            )
        return tuple(failures)

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
