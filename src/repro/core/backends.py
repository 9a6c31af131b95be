"""Pluggable simulation backends for the batched DES executor.

Every contention shard of a batch (see
:meth:`repro.core.executor.PipelineExecutor.execute_many`) can be timed
by any simulator that reproduces the generator engine's floats exactly —
the engine itself, or one of the slim FIFO replays.  This module makes
that choice an explicit *backend layer* instead of shape checks
scattered through the executor:

- :class:`SimulationBackend` is the protocol — a capability query
  (:meth:`~SimulationBackend.supports`) plus
  :meth:`~SimulationBackend.simulate`, which returns per-job completion
  times, the shard makespan and the super-job count, or ``None`` to
  decline a shard it only discovers to be ineligible while flattening
  it (e.g. a zero-duration task under a degenerate cost model).  The
  executor builds every per-job report from its super-job template,
  so no backend touches a report.
- Three backends ship registered, in fallback-preference order:

  =================  ==================================================
  name               simulates
  =================  ==================================================
  ``dag_replay``     any shard via
                     :func:`repro.hw.engine.replay_dag_batch` — one
                     cursor per replica *segment* (a run of stages
                     joined by single-successor -> single-predecessor
                     edges: a whole chain job is one segment) and
                     per-replica join counters on fan-in stages, one
                     calendar event per occupancy.
  ``vector_replay``  single-signature (fully coalesced) shards via
                     :func:`repro.hw.vector_replay.replay_vector_batch`
                     — the whole grant/finish timetable as numpy
                     recurrences over the (replica, stage-occupancy)
                     grid, no per-occupancy Python event at all.
                     Declines cross-signature shards, zero durations
                     and tie patterns that need the engine's banded
                     hop cascade.
  ``engine``         anything, through the generator
                     :class:`repro.hw.engine.Engine` — the universal
                     fallback and the reference the replays are
                     verified against.
  =================  ==================================================

The walk takes the first backend that supports the shard and does not
decline it; results are bit-identical whichever backend runs
(property-tested in ``tests/core/test_coalesce_shard.py``,
``tests/core/test_dag_replay.py`` and
``tests/core/test_vector_replay.py``), so the walk's order is purely a
wall-clock choice.  :func:`selection_order` makes it from the shard's
shape alone, the way the paper's Eq. 1 places a kernel from its own
properties rather than from trial runs: large closed single-signature
shards try ``vector_replay`` first, every other shard walks the
registry order.  Any trace observer bypasses the registry entirely —
trace consumers need the uncollapsed engine's exact event stream.
Additional backends (e.g. a C-accelerated calendar) plug in via
:func:`register_backend`.

Backends may also expose ``unsupported_reason(executor, shard_jobs)``
returning a human-readable reason a shard cannot be simulated — the
executor quotes it in the forced-backend error so callers learn *why*
(zero-duration task, cross-signature interleaving, ...) instead of
getting a bare refusal.

The executor groups a batch into super-jobs once per call and hands
each shard over as a :class:`ShardJobs`: the per-job list every backend
accepts, carrying that grouping along, so no backend regroups the shard
job by job.  ``supports`` and ``unsupported_reason`` are asked about one
representative job per super-job; both stay callable with a plain
per-job list, and so does ``simulate``.

Fault injection (:mod:`repro.core.faults`) extends the same contract:
a shard whose lanes carry fault-plan events is declined by *every*
replay backend with :data:`FAULTED_SHARD_REASON` — the replays model
the healthy machine only, and the decline-not-approximate rule means
they must never silently ignore an outage window.  A shard whose lanes
carry only *slowdown* windows (partial degradation, nothing killed) is
declined with its own :data:`SLOWDOWN_SHARD_REASON`: inflated service
times break the FIFO hop-cascade equivalence the replays rest on, so
they must not approximate those either.  Affected shards always run on
the fault-aware generator engine path; an *empty* fault plan never
triggers either decline, so it stays bit-identical to no plan across
all three backends.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.errors import SimulationError
from repro.hw.engine import replay_dag_batch
from repro.hw.vector_replay import replay_vector_batch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.executor import PipelineExecutor
    from repro.core.pipeline import Pipeline
    from repro.core.scheduler import Schedule

#: What ``simulate`` hands back: per-job completion times in shard
#: order, the shard makespan, and the number of signature-coalesced
#: super-jobs.
ShardResult = tuple[list[float], float, int]


@runtime_checkable
class SimulationBackend(Protocol):
    """One way of timing a contention shard, bit-identical to the
    generator engine."""

    #: Registry key (also what ``BatchExecutionReport.backend_jobs`` and
    #: the ``serve-bench --backend`` override call it).
    name: str

    def supports(
        self,
        executor: "PipelineExecutor",
        shard_jobs: list[tuple["Pipeline", "Schedule"]],
    ) -> bool:
        """Cheap structural capability check (shape only — a backend may
        still decline in :meth:`simulate`).  The executor asks it about
        one representative job per super-job of the shard, so the
        answer must depend only on which distinct (pipeline, schedule)
        pairs the shard holds, never on how many replicas each has; it
        stays callable with a plain per-job list."""
        ...

    def simulate(
        self,
        executor: "PipelineExecutor",
        shard_jobs: list[tuple["Pipeline", "Schedule"]],
        shard_arrivals: list[float] | None,
        lane_log: dict[str, list[tuple[float, float]]],
    ) -> ShardResult | None:
        """Time the shard, or return ``None`` to decline it late.

        ``shard_jobs`` is the per-job list — a :class:`ShardJobs` from
        the executor, which carries the super-job grouping
        (:func:`superjob_groups`), or any plain list of pairs.  A
        backend that simulates the shard must also append every
        resource occupancy it grants — ``(start, end)`` in grant order
        — to ``lane_log`` under the lane's
        :func:`repro.core.executor.lane_name`; the intervals must be
        the engine's exact floats (``end = grant + duration``), which
        is what makes ``BatchExecutionReport.lane_occupancy``
        backend-independent.  A late decline must leave ``lane_log``
        untouched."""
        ...


class ShardJobs(list):
    """A contention shard's per-job ``(pipeline, schedule)`` pairs plus
    their super-job grouping, computed once per call by the executor:
    ``representatives`` holds one pair per super-job in first-appearance
    order and ``member_group[i]`` is job ``i``'s super-job."""

    __slots__ = ("member_group", "representatives")

    def __init__(self, jobs, representatives, member_group) -> None:
        super().__init__(jobs)
        self.representatives = representatives
        self.member_group = member_group


def superjob_groups(shard_jobs) -> tuple[list, list[int]]:
    """Group jobs into super-jobs by pipeline/schedule object identity
    (what the framework's per-call table hands out for duplicate jobs).
    Returns one representative pair per group, in first-appearance
    order, and each position's group index.  A :class:`ShardJobs`
    answers from its stored grouping.

    Duplicates that share one pair object are grouped at C speed: the
    Python-level loop runs once per distinct pair object, not per
    job."""
    if isinstance(shard_jobs, ShardJobs):
        return shard_jobs.representatives, shard_jobs.member_group
    # The list pins every pair object, so its id is stable for the call.
    jobs = list(shard_jobs)
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


def _log_occupancy(resource_ids, occupancy, lane_log) -> None:
    """File a replay's per-resource occupancy intervals under the
    interned resources' lane names."""
    from repro.core.executor import lane_name

    for key, index in resource_ids.items():
        if occupancy[index]:
            lane_log.setdefault(lane_name(key), []).extend(occupancy[index])


class EngineBackend:
    """The generator-engine reference path: supports everything.

    Lane accounting rides the executor's occupancy callback (the same
    hook the trace observer uses): every device/wire occupancy lands in
    ``lane_log`` with the engine's own start/end floats, which is the
    reference the replays' grant-time recording is verified against."""

    name = "engine"

    def supports(self, executor, shard_jobs) -> bool:
        return True

    def simulate(self, executor, shard_jobs, shard_arrivals, lane_log):
        def record(lane, _label, start, end):
            lane_log.setdefault(lane, []).append((start, end))

        finish, makespan = executor._execute_batch_engine(
            shard_jobs, range(len(shard_jobs)), record, shard_arrivals
        )
        return finish, makespan, 0


#: Why the slim replays decline degenerate shards — quoted verbatim in
#: the forced-backend error (and matched by the UX tests).
_ZERO_DURATION_REASON = (
    "a task has non-positive duration, which the replays' banded "
    "tie-handling cannot represent"
)

#: Why every replay backend declines a shard whose lanes carry
#: fault-plan events — quoted verbatim in the forced-backend error.
#: The replays model the healthy machine; under the
#: decline-not-approximate contract they must hand faulted shards to
#: the fault-aware engine rather than silently ignore outage windows.
FAULTED_SHARD_REASON = (
    "the shard's lanes carry fault-plan events, which only the "
    "fault-aware engine path can simulate"
)

#: Why every replay backend declines a shard whose lanes carry only
#: *slowdown* windows — quoted verbatim in the forced-backend error.
#: The replays' FIFO hop-cascade equivalence argument assumes every
#: occupancy's duration is the schedule's nominal one; a slowdown
#: window inflates services piecewise, so grant orders can differ from
#: the healthy timetable in ways the replays cannot prove equivalent.
#: Decline, never approximate.
SLOWDOWN_SHARD_REASON = (
    "the shard's lanes carry slowdown windows, whose piecewise-"
    "inflated service times break the replays' FIFO hop-cascade "
    "equivalence; only the fault-aware engine path can simulate them"
)


#: Why ``vector_replay`` declines multi-signature shards — formatted
#: with the shard's super-job count and quoted verbatim in the
#: forced-backend error.
CROSS_SIGNATURE_REASON_TEMPLATE = (
    "cross-signature interleaving: the shard coalesces "
    "into {count} super-jobs contending on "
    "shared lanes, and vector_replay needs exactly one "
    "signature"
)

#: Why ``vector_replay`` declines shards whose wave recurrence cannot
#: prove the engine's grant order — quoted verbatim in the
#: forced-backend error.
UNPROVABLE_TIE_REASON = (
    "a same-instant tie (across a wave boundary or a fan-in "
    "join) requires the engine's banded hop cascade, which "
    "the wave recurrence cannot reproduce"
)


class DagReplayBackend:
    """Slim FIFO replay for any shard: one cursor per replica segment
    (a chain job is one segment) and per-replica join counters on the
    fan-in stages keep chains, branching pipelines (k-point DAGs) and
    super-job replicas on the one-event-per-occupancy loop."""

    name = "dag_replay"

    def supports(self, executor, shard_jobs) -> bool:
        return True

    def simulate(self, executor, shard_jobs, shard_arrivals, lane_log):
        # Flatten each super-job once; its replicas share the program.
        representatives, member_group = superjob_groups(shard_jobs)
        resource_ids: dict[object, int] = {}
        programs: list = []
        for pipeline, schedule in representatives:
            program = self._dag_program(
                executor, pipeline, schedule, resource_ids
            )
            if program is None:  # degenerate zero-duration task
                return None
            programs.append(program)
        finish, makespan, occupancy = replay_dag_batch(
            programs,
            member_group,
            [0.0] * len(member_group)
            if shard_arrivals is None
            else shard_arrivals,
            len(resource_ids),
        )
        _log_occupancy(resource_ids, occupancy, lane_log)
        return finish, makespan, len(representatives)

    @staticmethod
    def _dag_program(executor, pipeline, schedule, resource_ids):
        """Flatten one job into a :func:`repro.hw.engine.replay_dag_batch`
        program: per-stage task lists
        (:meth:`~repro.core.executor.PipelineExecutor._flatten_stage`)
        plus predecessor indices, all in topological order.  Returns
        ``None`` when any duration is non-positive: the replay's banded
        tie-handling assumes time strictly advances per occupancy, so
        zero-cost tasks fall back to the generator engine."""
        topo = pipeline.topological_order
        position_of = {name: i for i, name in enumerate(topo)}
        stage_tasks: list[list[tuple[int, float]]] = []
        stage_preds: list[tuple[int, ...]] = []
        for name in topo:
            tasks = executor._flatten_stage(
                pipeline, schedule, name, resource_ids
            )
            if any(duration <= 0.0 for _res, duration in tasks):
                return None
            stage_tasks.append(tasks)
            stage_preds.append(
                tuple(position_of[p] for p in pipeline.predecessors(name))
            )
        return stage_tasks, stage_preds

    def unsupported_reason(self, executor, shard_jobs) -> str:
        return _ZERO_DURATION_REASON


class VectorReplayBackend:
    """Numpy wave replay for single-signature coalesced shards.

    When every job of a contention shard is a replica of *one*
    super-job template, :func:`repro.hw.vector_replay.
    replay_vector_batch` computes the entire FIFO timetable as
    recurrences over the (replica, stage-occupancy) grid — no
    per-occupancy Python event.  The backend supports exactly the
    single-signature shards (two signatures sharing a lane interleave
    in arrival order, which only the event-driven replays reproduce)
    and declines late when the wave recurrence cannot prove it matches
    the engine's grant order (zero durations, cross-wave or fan-in
    same-instant ties): bit-identical or fall back, never approximate.
    """

    name = "vector_replay"

    def supports(self, executor, shard_jobs) -> bool:
        representatives, _ = superjob_groups(shard_jobs)
        return len(representatives) == 1

    def simulate(self, executor, shard_jobs, shard_arrivals, lane_log):
        representatives, member_group = superjob_groups(shard_jobs)
        if len(representatives) != 1:
            return None
        pipeline, schedule = representatives[0]
        resource_ids: dict[object, int] = {}
        program = DagReplayBackend._dag_program(
            executor, pipeline, schedule, resource_ids
        )
        if program is None:  # degenerate zero-duration task
            return None
        result = replay_vector_batch(
            program,
            [0.0] * len(member_group)
            if shard_arrivals is None
            else shard_arrivals,
            len(resource_ids),
        )
        if result is None:  # wave order unprovable: tie/interleaving
            return None
        finish, makespan, occupancy = result
        _log_occupancy(resource_ids, occupancy, lane_log)
        return finish, makespan, 1

    def unsupported_reason(self, executor, shard_jobs) -> str:
        representatives, _ = superjob_groups(shard_jobs)
        if len(representatives) != 1:
            return CROSS_SIGNATURE_REASON_TEMPLATE.format(
                count=len(representatives)
            )
        pipeline, schedule = representatives[0]
        program = DagReplayBackend._dag_program(
            executor, pipeline, schedule, {}
        )
        if program is None:
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


#: Smallest closed single-signature shard that tries ``vector_replay``
#: first.  Its numpy set-up costs more than ``dag_replay``'s per-job
#: loop on small shards, so it sits between the sizes where
#: ``vector_replay`` overtakes ``dag_replay`` on k-point DAGs and on
#: chains; ``benchmarks/test_backend_rule.py`` keeps auto mode within
#: 1.5x of the fastest backend on either side.
VECTOR_MIN_JOBS = 96


def selection_order(
    n_jobs: int, n_superjobs: int, closed: bool
) -> tuple[SimulationBackend, ...]:
    """The order an unforced shard walks the registry in, from its
    shape alone.

    A closed shard (no arrivals) of at least :data:`VECTOR_MIN_JOBS`
    jobs that coalesces into one super-job tries ``vector_replay``
    first; every other shard walks the registry order, which reaches
    ``vector_replay`` only after ``dag_replay``.  Open shards stay
    off it because arrival spread interleaves replicas' waves, which it
    declines on almost every open queue.  A late decline still falls
    through to the rest of the walk."""
    backends = iter_backends()
    if closed and n_superjobs == 1 and n_jobs >= VECTOR_MIN_JOBS:
        vector = _REGISTRY["vector_replay"]
        return (vector,) + tuple(b for b in backends if b is not vector)
    return backends
