"""Pluggable simulation backends for the batched DES executor.

Every batch (see
:meth:`repro.core.executor.PipelineExecutor.execute_many`) can be timed
by any simulator that reproduces the generator engine's floats exactly —
the engine itself, or one of the slim FIFO replays.  This module makes
that choice an explicit *backend layer* instead of shape checks
scattered through the executor:

- :class:`CompiledBatch` is what every backend reads.  The executor
  compiles each call's batch once: it groups the jobs into super-jobs
  (:func:`superjob_groups`) and compiles each super-job into the
  ``(stage_tasks, stage_preds)`` program
  :func:`repro.hw.engine.replay_dag_batch` runs, on resource indices
  it interns batch-wide and names (:attr:`CompiledBatch.lanes`).  No
  backend prices a boundary, regroups the batch or recompiles a job.
- :class:`SimulationBackend` is the protocol — one
  :meth:`~SimulationBackend.simulate` over ``(batch, arrivals)`` that
  returns the simulators' four outputs (per-job completion times, the
  makespan, each resource's occupancy as start and end columns in grant
  order and the failure rows), or ``None`` to decline a batch it cannot
  prove (e.g. several signatures for ``vector_replay``, a zero-duration
  task under a degenerate cost model).  The executor files the
  occupancy under the batch's lane names and keeps the completion
  times as one column beside one report template per super-job, so no
  backend touches a report or the executor; a decline's reason lands
  in the report's ``declines`` when the walk moves on.
- Three backends ship registered, in fallback-preference order:

  =================  ==================================================
  name               simulates
  =================  ==================================================
  ``dag_replay``     any batch via
                     :func:`repro.hw.engine.replay_dag_batch` — one
                     cursor per replica *segment* (a run of stages
                     joined by single-successor -> single-predecessor
                     edges: a whole chain job is one segment) and
                     per-replica join counters on fan-in stages, one
                     calendar event per occupancy, fault plans
                     included.
  ``vector_replay``  single-signature (fully coalesced) batches via
                     :func:`repro.hw.vector_replay.replay_vector_batch`
                     — the whole grant/finish timetable as numpy
                     recurrences over the (replica, stage-occupancy)
                     grid, no per-occupancy Python event at all.
                     Declines fault plans, cross-signature batches,
                     zero durations and tie patterns that need the
                     engine's banded hop cascade.
  ``engine``         anything, via
                     :func:`repro.hw.engine.run_engine_batch` — the
                     generator :class:`repro.hw.engine.Engine` running
                     the same programs, one process per stage of every
                     job: the fallback for zero-duration tasks (with
                     or without a fault plan) and the reference the
                     replays are verified against.
  =================  ==================================================

The walk takes the first backend that does not decline the batch;
results are bit-identical whichever backend runs (property-tested in
``tests/core/test_coalesce_shard.py``, ``tests/core/test_dag_replay.py``
and ``tests/core/test_vector_replay.py``), so the walk's order is purely
a wall-clock choice.  :func:`selection_order` makes it from the batch's
shape alone, the way the paper's Eq. 1 places a kernel from its own
properties rather than from trial runs: large closed single-signature
batches try ``vector_replay`` first, every other batch walks the
registry order.  Additional backends (e.g. a C-accelerated calendar)
plug in via :func:`register_backend`.

A backend that can decline also exposes
``unsupported_reason(batch)`` returning a human-readable
reason — the executor quotes it in the forced-backend error so callers
learn *why* (zero-duration task, cross-signature interleaving, ...)
instead of getting a bare refusal.  It reads the same compiled batch
``simulate`` declined.

Fault injection (:mod:`repro.core.faults`) rides the same walk.  A
batch whose lanes carry fault-plan events compiles with the plan
(:attr:`CompiledBatch.faults`): ``dag_replay`` resolves every grant
against its lane's timeline and returns the killed runs, bit-identical
to the fault-aware engine (property-tested in
``tests/core/test_dag_replay.py``); ``vector_replay`` declines it with
:data:`FAULT_PLAN_REASON`, since its wave recurrence models the healthy
machine only; and a zero-duration faulted batch falls back to the
engine.  A plan on lanes the batch never occupies — like an *empty*
plan — compiles to no plan at all, so it stays bit-identical to no
plan across all three backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.core.faults import FaultPlan
from repro.errors import SimulationError
from repro.hw.engine import replay_dag_batch, run_engine_batch
from repro.hw.vector_replay import replay_vector_batch

#: What ``simulate`` hands back, :func:`repro.hw.engine.replay_dag_batch`'s
#: outputs: per-job completion times in batch order, the makespan, each
#: resource's occupancy as a ``(starts, ends)`` pair of float columns in
#: grant order (``occupancy[r][0][i]`` and ``occupancy[r][1][i]`` are
#: resource ``r``'s ``i``-th grant and its end; no tuple per occupancy),
#: and the runs the batch's fault plan killed as ``(job, time, resource,
#: kind, stages)`` rows in job order (empty without a plan).
SimulationResult = tuple[
    list[float], float, list[tuple[list[float], list[float]]], list[tuple]
]


@dataclass(slots=True)
class CompiledBatch:
    """One call's batch, compiled once by the executor
    (:meth:`repro.core.executor.PipelineExecutor.compile_batch`) and
    read by every backend.

    ``representatives`` holds one ``(pipeline, schedule)`` pair per
    super-job in first-appearance order and ``member_group[i]`` is job
    ``i``'s super-job.  ``programs[g]`` is super-job ``g``'s
    ``(stage_tasks, stage_preds)`` program in
    :func:`repro.hw.engine.replay_dag_batch`'s form (stages in
    topological order; each stage's ``(resource, duration)`` tasks,
    then its predecessor indices), and ``lanes[r]`` names resource
    ``r`` as :func:`repro.core.executor.lane_name` does — the lanes
    the batch can occupy, and the keys its occupancies are filed
    under.  ``faults`` is the fault plan the batch runs under, or
    ``None`` when no plan touches any of its lanes."""

    representatives: list
    member_group: list[int]
    programs: list
    lanes: list[str]
    faults: FaultPlan | None = None

    def __len__(self) -> int:
        return len(self.member_group)

    @property
    def positive(self) -> bool:
        """True when every task's duration is positive.  The replays'
        banded tie handling assumes time strictly advances per
        occupancy, so a batch with a zero-cost task goes to the
        engine."""
        return all(
            duration > 0.0
            for stage_tasks, _preds in self.programs
            for tasks in stage_tasks
            for _resource, duration in tasks
        )


@runtime_checkable
class SimulationBackend(Protocol):
    """One way of timing a batch, bit-identical to the generator
    engine."""

    #: Registry key (also what ``BatchExecutionReport.backend_jobs`` and
    #: the ``serve-bench --backend`` override call it).
    name: str

    def simulate(
        self, batch: CompiledBatch, arrivals: list[float] | None
    ) -> SimulationResult | None:
        """Time the batch, or return ``None`` to decline it.

        ``arrivals`` are the jobs' release offsets (``None``: all at
        t=0).  Every output must be the engine's exact floats, the
        occupancy included: one ``(starts, ends)`` pair of float
        columns per resource, indexed like :attr:`CompiledBatch.lanes`,
        with ``ends[i] = starts[i] + duration`` in grant order — which
        is what makes ``BatchExecutionReport.lane_occupancy``
        backend-independent.  A backend that cannot honour
        :attr:`CompiledBatch.faults` must decline."""
        ...


def superjob_groups(jobs) -> tuple[list, list[int]]:
    """Group jobs into super-jobs by pipeline/schedule object identity
    (what the framework's per-call table hands out for duplicate jobs).
    Returns one representative pair per group, in first-appearance
    order, and each position's group index.

    Duplicates that share one pair object are grouped at C speed: the
    Python-level loop runs once per distinct pair object, not per
    job."""
    # The list pins every pair object, so its id is stable for the call.
    jobs = list(jobs)
    group_index: dict[tuple[int, int], int] = {}
    representatives: list = []
    group_of_pair: dict[int, int] = {}
    for pair_id, job in dict(zip(map(id, jobs), jobs)).items():
        pipeline, schedule = job
        key = (id(pipeline), id(schedule))
        group = group_index.get(key)
        if group is None:
            group = group_index[key] = len(representatives)
            representatives.append(job)
        group_of_pair[pair_id] = group
    return representatives, list(map(group_of_pair.__getitem__, map(id, jobs)))


def _release_times(batch: CompiledBatch, arrivals) -> list[float]:
    return [0.0] * len(batch) if arrivals is None else arrivals


def _fault_timelines(batch: CompiledBatch) -> list | None:
    """Each resource's fault timeline under the batch's plan (``None``
    for a healthy batch)."""
    faults = batch.faults
    return None if faults is None else list(map(faults.timeline, batch.lanes))


class EngineBackend:
    """The generator-engine reference path: declines nothing.  It
    records every occupancy with the engine's own start/end floats,
    which is the reference the replays' grant-time recording is
    verified against."""

    name = "engine"

    def simulate(self, batch, arrivals):
        return run_engine_batch(
            batch.programs,
            batch.member_group,
            arrivals,
            len(batch.lanes),
            _fault_timelines(batch),
        )


#: Why the slim replays decline degenerate batches — quoted verbatim in
#: the forced-backend error (and matched by the UX tests).
_ZERO_DURATION_REASON = (
    "a task has non-positive duration, which the replays' banded "
    "tie-handling cannot represent"
)

#: Why ``vector_replay`` declines a batch whose lanes carry fault-plan
#: events — quoted verbatim in the forced-backend error.  Its wave
#: recurrence models the healthy machine; under the
#: decline-not-approximate contract it must leave outages, slowdowns
#: and kills to ``dag_replay`` rather than silently ignore them.
FAULT_PLAN_REASON = (
    "the batch's lanes carry fault-plan events, which the wave "
    "recurrence does not model"
)


#: Why ``vector_replay`` declines multi-signature batches — formatted
#: with the batch's super-job count and quoted verbatim in the
#: forced-backend error.
CROSS_SIGNATURE_REASON_TEMPLATE = (
    "cross-signature interleaving: the batch coalesces "
    "into {count} super-jobs contending on "
    "shared lanes, and vector_replay needs exactly one "
    "signature"
)

#: Why ``vector_replay`` declines batches whose wave recurrence cannot
#: prove the engine's grant order — quoted verbatim in the
#: forced-backend error.
UNPROVABLE_TIE_REASON = (
    "a same-instant tie (across a wave boundary or a fan-in "
    "join) requires the engine's banded hop cascade, which "
    "the wave recurrence cannot reproduce"
)


class DagReplayBackend:
    """Slim FIFO replay for any batch: one cursor per replica segment
    (a chain job is one segment) and per-replica join counters on the
    fan-in stages keep chains, branching pipelines (k-point DAGs) and
    super-job replicas on the one-event-per-occupancy loop.  Under a
    fault plan each lane's timeline is looked up once per call; a grant
    resolves against it only when its service may reach the lane's
    quiet horizon (the start of its first fault span not yet ended),
    and a tie-free instant that can grant no ghost still runs inline."""

    name = "dag_replay"

    def simulate(self, batch, arrivals):
        if not batch.positive:
            return None
        return replay_dag_batch(
            batch.programs,
            batch.member_group,
            _release_times(batch, arrivals),
            len(batch.lanes),
            _fault_timelines(batch),
        )

    def unsupported_reason(self, batch) -> str:
        return _ZERO_DURATION_REASON


class VectorReplayBackend:
    """Numpy wave replay for single-signature coalesced batches.

    When every job of a batch is a replica of *one* super-job template,
    :func:`repro.hw.vector_replay.replay_vector_batch` computes the
    entire FIFO timetable as recurrences over the (replica,
    stage-occupancy) grid — no per-occupancy Python event.  The backend
    declines every batch of several signatures (two signatures sharing
    a lane interleave in arrival order, which only the event-driven
    replays reproduce), and every batch whose grant order the wave
    recurrence cannot prove matches the engine's (zero durations,
    cross-wave or fan-in same-instant ties): bit-identical or fall
    back, never approximate.
    """

    name = "vector_replay"

    def simulate(self, batch, arrivals):
        if (
            batch.faults is not None
            or len(batch.programs) != 1
            or not batch.positive
        ):
            return None
        result = replay_vector_batch(
            batch.programs[0],
            _release_times(batch, arrivals),
            len(batch.lanes),
        )
        if result is None:  # wave order unprovable: tie/interleaving
            return None
        finish, makespan, occupancy = result
        return finish, makespan, occupancy, []

    def unsupported_reason(self, batch) -> str:
        if batch.faults is not None:
            return FAULT_PLAN_REASON
        if len(batch.programs) != 1:
            return CROSS_SIGNATURE_REASON_TEMPLATE.format(
                count=len(batch.programs)
            )
        if not batch.positive:
            return _ZERO_DURATION_REASON
        return UNPROVABLE_TIE_REASON


#: The registry, in selection-preference order.  ``engine`` must stay
#: last: it is the universal fallback every selection walk ends on.
_REGISTRY: dict[str, SimulationBackend] = {}


def register_backend(backend: SimulationBackend) -> None:
    """Add (or replace) a backend.  New backends are preferred over the
    ``engine`` fallback but tried after the existing replays."""
    if _REGISTRY and backend.name != "engine" and "engine" in _REGISTRY:
        engine = _REGISTRY.pop("engine")
        _REGISTRY[backend.name] = backend
        _REGISTRY["engine"] = engine
    else:
        _REGISTRY[backend.name] = backend


register_backend(DagReplayBackend())
register_backend(VectorReplayBackend())
register_backend(EngineBackend())


def backend_names() -> tuple[str, ...]:
    """Registered backend names in selection-preference order."""
    return tuple(_REGISTRY)


def get_backend(name: str) -> SimulationBackend:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SimulationError(
            f"unknown simulation backend {name!r}; registered: "
            f"{', '.join(_REGISTRY)}"
        ) from None


def iter_backends() -> tuple[SimulationBackend, ...]:
    return tuple(_REGISTRY.values())


#: Smallest closed single-signature batch that tries ``vector_replay``
#: first.  Its numpy set-up costs more than ``dag_replay``'s per-job
#: loop on small batches, so it sits between the sizes where
#: ``vector_replay`` overtakes ``dag_replay`` on k-point DAGs and on
#: chains; ``benchmarks/test_backend_rule.py`` keeps auto mode within
#: 1.5x of the fastest backend on either side.
VECTOR_MIN_JOBS = 96


def selection_order(
    n_jobs: int, n_superjobs: int, closed: bool
) -> tuple[SimulationBackend, ...]:
    """The order an unforced batch walks the registry in, from its
    shape alone.

    A closed batch (no arrivals) of at least :data:`VECTOR_MIN_JOBS`
    jobs that coalesces into one super-job tries ``vector_replay``
    first; every other batch walks the registry order, which reaches
    ``vector_replay`` only after ``dag_replay``.  Open batches stay
    off it because arrival spread interleaves replicas' waves, which it
    declines on almost every open queue.  A decline falls through to
    the rest of the walk."""
    backends = iter_backends()
    if closed and n_superjobs == 1 and n_jobs >= VECTOR_MIN_JOBS:
        vector = _REGISTRY["vector_replay"]
        return (vector,) + tuple(b for b in backends if b is not vector)
    return backends
