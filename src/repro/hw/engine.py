"""Discrete-event simulation: the generator engine and the batch replay.

Two simulators of a compiled batch live here, with one contract.  Both
take ``(programs, job_program, arrivals, n_resources, faults)`` — one
``(stage_tasks, stage_preds)`` program per super-job, each job's
program, release offsets, the resource count and optional per-lane
fault timelines — and return per-job completions, the makespan, each
resource's occupancy as ``(starts, ends)`` float columns in grant order
and the failure rows, bit-identical to each other:

- :func:`run_engine_batch` spawns one :class:`Engine` process per stage
  of every job: the reference the replays are verified against, and the
  fallback for zero-duration tasks;
- :func:`replay_dag_batch` replays the same batch with one calendar
  event per occupancy.

:func:`resolve_degraded_service` is the fault kernel both share, and the
simulation backends (:mod:`repro.core.backends`) wrap them.

The engine is a compact generator-based DES in the simpy style:
processes are Python generators that yield *commands* (wait for time,
acquire/release a resource), and the engine advances virtual time over a
heap of pending events.

Supported commands (yield values):

- ``Engine.timeout(dt)`` — resume after ``dt`` seconds of virtual time.
- ``resource.acquire()`` — resume once a unit of the resource is granted.
- ``resource.release()`` — give a unit back (resumes a waiter if any).
- another :class:`SimProcess` — resume when that process finishes.

The hot loop is deliberately allocation-lean: on a batch of hundreds
of jobs the simulator itself, not the modeled hardware, becomes the
bottleneck, so

- every participant class uses ``__slots__`` (no per-instance dict),
- heap entries are plain ``(time, seq, process)`` tuples — no closure is
  allocated per event, and the ``seq`` tie-breaker doubles as the FIFO
  guarantee for same-time events,
- the run loop steps generators and handles all commands inline,
  dispatching on the yielded object's class instead of walking an
  ``isinstance`` chain through helper calls per yield.

Event *ordering* is part of the engine's contract: same-time events run
in schedule order (monotonic ``seq``), so resource grants are FIFO and
repeated runs of the same job set are bit-identical.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from itertools import accumulate, chain, repeat
from typing import Callable, Generator

from repro.errors import SimulationError


class Timeout:
    """Command: suspend the process for ``delay`` virtual seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = delay

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timeout({self.delay!r})"


class Acquire:
    """Command: wait for one unit of ``resource``."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        self.resource = resource

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Acquire({self.resource.name!r})"


class Release:
    """Command: give one unit of ``resource`` back."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        self.resource = resource

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Release({self.resource.name!r})"


Command = Timeout | Acquire | Release


class Resource:
    """A counted resource (e.g. an execution unit or a link).

    Waiters are granted strictly FIFO: a release hands the unit to the
    longest-waiting process (``deque.popleft``), never to a later
    arrival.
    """

    __slots__ = ("engine", "capacity", "name", "in_use", "waiters")

    def __init__(self, engine: "Engine", capacity: int, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self.waiters: deque[SimProcess] = deque()

    def acquire(self) -> Acquire:
        return Acquire(self)

    def release(self) -> Release:
        return Release(self)


class SimProcess:
    """One running generator inside the engine."""

    __slots__ = ("engine", "generator", "name", "finished", "finish_time", "watchers")

    _ids = itertools.count()

    def __init__(self, engine: "Engine", generator: Generator, name: str = ""):
        self.engine = engine
        self.generator = generator
        self.name = name or f"process-{next(self._ids)}"
        self.finished = False
        self.finish_time: float | None = None
        self.watchers: list[SimProcess] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.finished else "running"
        return f"SimProcess({self.name}, {state})"


class Engine:
    """The event loop: a heap of (time, seq, process) resumptions."""

    __slots__ = ("now", "_heap", "_seq", "_active")

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, SimProcess]] = []
        self._seq = itertools.count()
        self._active = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @staticmethod
    def timeout(delay: float) -> Timeout:
        return Timeout(delay)

    def resource(self, capacity: int, name: str = "resource") -> Resource:
        return Resource(self, capacity, name)

    def spawn(self, generator: Generator, name: str = "") -> SimProcess:
        """Register a process; it starts when :meth:`run` is (re)entered."""
        process = SimProcess(self, generator, name)
        self._active += 1
        heapq.heappush(self._heap, (self.now, next(self._seq), process))
        return process

    def run(self) -> float:
        """Drain the event heap; returns the final virtual time.

        Raises :class:`SimulationError` if processes remain blocked when
        the heap empties (a deadlock: someone waits on a resource nobody
        releases).

        The loop body handles every command inline rather than routing
        each event through per-command handler calls: at serving scale
        the engine takes tens of thousands of steps per batch, and call
        overhead is the dominant simulator cost.  Ordering contract:
        every resumption is pushed at the current time with a fresh
        monotonic ``seq``, so same-time events run in schedule order —
        resource grants are FIFO and repeated runs are bit-identical.
        """
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        seq = self._seq
        while heap:
            entry = pop(heap)
            time = entry[0]
            if time < self.now - 1e-18:
                raise SimulationError("event scheduled in the past")
            self.now = time
            process = entry[2]
            try:
                command = process.generator.send(None)
            except StopIteration:
                self._finish(process)
                continue
            cls = command.__class__
            if cls is Timeout:
                push(heap, (time + command.delay, next(seq), process))
            elif cls is Acquire:
                resource = command.resource
                if resource.in_use < resource.capacity:
                    resource.in_use += 1
                    push(heap, (time, next(seq), process))
                else:
                    resource.waiters.append(process)
            elif cls is Release:
                resource = command.resource
                if resource.in_use <= 0:
                    raise SimulationError(
                        f"release of idle resource {resource.name!r}"
                    )
                if resource.waiters:
                    push(heap, (time, next(seq), resource.waiters.popleft()))
                else:
                    resource.in_use -= 1
                push(heap, (time, next(seq), process))
            elif isinstance(command, SimProcess):
                if command.finished:
                    push(heap, (time, next(seq), process))
                else:
                    command.watchers.append(process)
            else:
                raise SimulationError(
                    f"process {process.name!r} yielded unsupported command "
                    f"{command!r}"
                )
        if self._active:
            raise SimulationError(
                f"deadlock: {self._active} process(es) still blocked at "
                f"t={self.now:.3e}s"
            )
        return self.now

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _finish(self, process: SimProcess) -> None:
        process.finished = True
        process.finish_time = self.now
        self._active -= 1
        heap = self._heap
        seq = self._seq
        now = self.now
        for watcher in process.watchers:
            heapq.heappush(heap, (now, next(seq), watcher))
        process.watchers.clear()


# ---------------------------------------------------------------------------
# The engine's batch driver (the reference the replays are verified against)
# ---------------------------------------------------------------------------

#: Occupancy callback: (resource, job, stage, task, start, end).
OccupancyObserver = Callable[[int, int, int, int, float, float], None]


def run_engine_batch(
    programs: "list",
    job_program: "list[int]",
    arrivals: "list[float] | None",
    n_resources: int,
    faults: "list | None" = None,
    observer: OccupancyObserver | None = None,
) -> tuple[list[float], float, list[tuple[list[float], list[float]]], list[tuple]]:
    """A batch on one shared :class:`Engine`, one process per stage of
    every job, with :func:`replay_dag_batch`'s inputs and outputs: the
    occupancy comes back as one ``(starts, ends)`` pair of float
    columns per resource, appended as each occupancy ends.

    Stages are spawned job by job in topological order, so every
    predecessor process exists before its dependents.  A stage waits on
    each predecessor in in-edge order, then acquires, occupies and
    releases each task's resource in turn.  ``arrivals`` delays a job's
    entry stages to its release offset; ``None`` is the closed batch,
    whose event stream has no release timeouts.

    Under ``faults`` (one timeline per resource, as for the replay) every
    occupancy resolves against its lane's timeline
    (:func:`resolve_degraded_service`): a grant inside an outage waits
    it out, a kill records the truncated occupancy if it is not empty
    and marks the job's first failure, and a slowdown inflates the
    service.  A failed job's remaining tasks still acquire and release
    their resources, so FIFO queues drain, but occupy no time and end
    their stage.  Without ``faults`` the plain yields run
    unconditionally, so an empty plan leaves the event stream untouched.

    ``observer`` sees ``(resource, job, stage, task, start, end)`` for
    every occupancy as it is recorded."""
    engine = Engine()
    timeout = engine.timeout
    lanes = [engine.resource(1, f"resource {r}") for r in range(n_resources)]
    occupancy = [([], []) for _ in range(n_resources)]
    n = len(job_program)
    failed: list | None = None if faults is None else [None] * n
    completed = [] if failed is None else [[] for _ in range(n)]

    def record(resource, job, stage, task, start, end) -> None:
        starts, ends = occupancy[resource]
        starts.append(start)
        ends.append(end)
        if observer is not None:
            observer(resource, job, stage, task, start, end)

    def occupy_faulted(resource, duration, job, stage, task):
        """Occupy the held ``resource`` under its fault timeline.  Yields
        engine commands; returns True when the occupancy completed,
        False when it killed the job (the caller releases and ends the
        stage)."""
        grant = engine.now
        timeline = faults[resource]
        if timeline is None:
            service, wall, fail_time, kind = grant, duration, None, None
        else:
            service, wall, fail_time, kind = resolve_degraded_service(
                *timeline, grant, duration
            )
        if fail_time is None:
            if service > grant:
                yield timeout(service - grant)
            start = engine.now
            yield timeout(wall)
            record(resource, job, stage, task, start, engine.now)
            return True
        if fail_time > grant:
            yield timeout(fail_time - grant)
        if engine.now > service:
            # The truncated occupancy [service, fail): busy time the lane
            # spent on work that was then thrown away.
            record(resource, job, stage, task, service, engine.now)
        if failed[job] is None:
            failed[job] = (engine.now, resource, kind)
        return False

    def stage_process(job, stage, tasks, predecessors, release):
        if release is not None and not predecessors:
            yield timeout(release)
        for predecessor in predecessors:
            yield predecessor
        for task, (resource, duration) in enumerate(tasks):
            lane = lanes[resource]
            yield lane.acquire()
            if failed is None:
                start = engine.now
                yield timeout(duration)
                record(resource, job, stage, task, start, engine.now)
            elif failed[job] is not None or not (
                yield from occupy_faulted(resource, duration, job, stage, task)
            ):
                yield lane.release()
                return
            yield lane.release()
        if failed is not None:
            completed[job].append(stage)

    spawned = []
    for job, program in enumerate(job_program):
        stage_tasks, stage_preds = programs[program]
        release = None if arrivals is None else arrivals[job]
        processes: list[SimProcess] = []
        for stage, preds in enumerate(stage_preds):
            predecessors = [processes[p] for p in preds]
            process = stage_process(
                job, stage, stage_tasks[stage], predecessors, release
            )
            processes.append(engine.spawn(process))
        spawned.append(processes)
    makespan = engine.run()
    completions = [
        max(process.finish_time for process in processes)
        for processes in spawned
    ]
    failures = []
    if failed is not None:
        for job, failure in enumerate(failed):
            if failure is not None:
                failures.append((job, *failure, tuple(sorted(completed[job]))))
    return completions, makespan, occupancy, failures


# ---------------------------------------------------------------------------
# Batch FIFO replay (the scale-out serving fast path)
# ---------------------------------------------------------------------------
#
# A batch of scheduled jobs exercises none of the engine's generality:
# every job is a fixed set of (resource, duration) tasks whose order is
# known, so the generator machinery (one process per stage, command
# objects per yield, 4-6 heap events per stage) only re-derives what
# FIFO semantics already determine.  :func:`replay_dag_batch` computes
# the *same floats* the engine would — every occupancy start is either
# the task's own ready time or the previous holder's release time, and
# grants are FIFO with same-time ties broken by arrival order — with one
# calendar event per occupancy instead of the engine's per-yield event
# storm.  It walks one cursor per replica *segment*: a run of stages
# joined by single-successor -> single-predecessor edges, which a chain
# job is end to end, with per-replica join counters on the fan-in
# stages.  The simulation backends (:mod:`repro.core.backends`)
# cross-check the equivalence in tests and fall back to the full engine
# for any zero-duration task.
#
# Hop-band action codes, packed with the replica-segment index as
# ``(rs << 3) | code`` so the cascade bands hold plain ints instead of
# per-action tuples:
#
# - START:   allocate the completion event for an occupancy granted one
#            band earlier (the engine's resume-then-timeout).
# - ACQUIRE: request the replica-segment's current task's resource.
# - NOTIFY:  a stage process's StopIteration.  At a compacted stage
#            boundary its only watcher is the segment's next stage,
#            which ACQUIREs one band later; at a segment end, mark it
#            finished and wake its watchers one band later.
# - WAIT:    one step of a stage's predecessor wait loop (the engine's
#            ``yield predecessor``): consume one predecessor per band,
#            park on the first unfinished one, or fall through to the
#            first task's acquire in the same band.
# - RESOLVE: START under a fault plan: a service that may reach its
#            lane's quiet horizon resolves against the lane's fault
#            timeline (as :func:`run_engine_batch`'s faulted occupancy
#            does); a grant to a failed job passes through as a ghost.
_A_START = 0
_A_ACQUIRE = 1
_A_NOTIFY = 2
_A_WAIT = 3
_A_RESOLVE = 4


def _segments(program, with_stages: bool = False) -> tuple:
    """Compact one ``(stage_tasks, stage_preds)`` program into segments.

    A stage whose only predecessor has it as its only successor extends
    that predecessor's segment; every other stage heads a new one, so
    segments are numbered in the topological order of their heads — the
    engine's spawn order.  Every predecessor of a head ends its own
    segment, so only a segment end can have watchers.

    Segment tasks are ``(resource_index, duration, hop)`` triples.
    ``hop`` is the engine's same-instant cascade distance from the
    previous task's completion to this task's acquire: 1 within a stage
    (release, then the acquire on the re-push), 2 across a compacted
    stage boundary (release, then StopIteration waking the next stage,
    then its acquire).  A head's first task is requested at its release
    event or its last predecessor wait instead, so its hop is unused.

    Predecessors and initial watchers are stored as offsets from the
    segment's own index, so every replica of the program shares them.
    Returns ``(tasks, preds, watchers, heads, stages)``: per-segment
    task lists, predecessor offsets (in-edge order), initial watcher
    offsets (registration order: a head parks on its first
    predecessor), the entry segments, and — only ``with_stages``, which
    a fault plan needs, else ``None`` — per segment its ``(stage,
    end)`` pairs in order: the program stage and the index one past its
    last task, which is where a stage cut short by a fault hands over
    to the next."""
    stage_tasks, stage_preds = program
    fan_out = [0] * len(stage_tasks)
    for preds in stage_preds:
        for p in preds:
            fan_out[p] += 1
    seg_of: list[int] = []
    tasks: list[list[tuple[int, float, int]]] = []
    preds_of: list[tuple[int, ...]] = []
    stages: list[list[tuple[int, int]]] | None = [] if with_stages else None
    for stage, preds in enumerate(stage_preds):
        if len(preds) == 1 and fan_out[preds[0]] == 1:
            seg = seg_of[preds[0]]
            hop = 2
        else:
            seg = len(tasks)
            tasks.append([])
            if with_stages:
                stages.append([])
            preds_of.append(tuple(seg_of[p] - seg for p in preds))
            hop = 0
        seg_of.append(seg)
        segment = tasks[seg]
        for resource, duration in stage_tasks[stage]:
            segment.append((resource, duration, hop))
            hop = 1
        if with_stages:
            stages[seg].append((stage, len(segment)))
    watchers: list[tuple[int, ...]] = [()] * len(tasks)
    for seg, preds in enumerate(preds_of):
        if preds:
            watchers[seg + preds[0]] += (-preds[0],)
    heads = tuple(seg for seg, preds in enumerate(preds_of) if not preds)
    return tasks, preds_of, watchers, heads, stages


def replay_dag_batch(
    programs: "list",
    job_program: "list[int]",
    arrivals: "list[float]",
    n_resources: int,
    faults: "list | None" = None,
) -> tuple[list[float], float, list[tuple[list[float], list[float]]], list[tuple]]:
    """FIFO replay of a batch of DAG-shaped jobs on shared resources.

    Job ``j`` runs ``programs[job_program[j]]``, released at
    ``arrivals[j]``.  A program is ``(stage_tasks, stage_preds)`` with
    stages indexed in topological order: ``stage_tasks[s]`` is stage
    ``s``'s task list — ``(resource_index, duration)`` pairs in
    execution order (boundary transfers in in-edge order, then the
    device occupancy) — and ``stage_preds[s]`` its predecessor stage
    indices in in-edge order.  Each program is compiled into segments
    (:func:`_segments`) once, however many jobs run it.  Resources are
    capacity-1 and FIFO, exactly like :class:`Resource`, and every
    duration must be positive (the caller guarantees it).  Returns
    per-job completion times, the makespan (the last completion),
    per-resource occupancy intervals — ``occupancy[r]`` is resource
    ``r``'s ``(starts, ends)`` pair of float columns in grant order,
    where each end is the exact float pushed as the completion event
    (``start + duration``); the replay keeps no tuple per occupancy —
    and the failures (empty without ``faults``), all bit-identical to
    spawning one engine process per stage (on a capacity-1 resource the
    grant order *is* the completion order, so the columns line up with
    the engine's occupancy stream entry for entry).

    ``faults`` (``None``: a healthy machine) holds one entry per
    resource: ``None`` for a lane without fault events, else its
    ``(windows, slowdowns, dead_at)`` timeline for
    :func:`resolve_degraded_service`.  The replay then reproduces
    :func:`run_engine_batch`'s stage processes command for command: a grant
    to a job that already failed is a *ghost* (it releases the lane in
    its own band and ends its stage); any other grant resolves against
    its lane's timeline — a plain or slowed service completes at
    ``grant + wall``, a grant inside an outage waits for one extra
    event at ``grant + (service - grant)`` and then serves ``wall``, a
    kill strikes at ``grant + (fail_time - grant)`` (records the
    truncated occupancy ``(service, kill)`` if it is not empty, marks
    the job's first failure, releases the lane and ends the stage), and
    a kill at the grant is a ghost that also marks the failure.  A job
    completes when its last stage ends, ghosts included.  Each lane
    keeps a *quiet horizon*: the start of its first outage, slowdown or
    death span not yet ended, as of its last slow grant.  A service
    whose end (the float ``grant + duration``) is strictly below it
    meets no fault and starts plainly; rounding is monotone, so every
    comparison :func:`resolve_degraded_service` would make agrees.  Any
    other grant is slow: it advances the lane's cursor and, if the
    service still reaches the horizon, calls the resolver.  Each failure
    is ``(job, time, resource, kind, stages)`` in job order, where
    ``stages`` are the program stages (ascending) whose every task
    completed normally — stages that were in service elsewhere when the
    failure struck count too.

    The replay keeps one cursor per *replica-segment* plus a join
    counter (``wait_index``) per fan-in: a segment head requests its
    first task only after every predecessor segment of its own replica
    has finished, which is exactly the ``yield predecessor`` wait chain
    the engine's stage processes perform.  The calendar is the entry
    segments' releases, sorted once and read by a cursor, merged with a
    heap of in-flight events: one per occupancy, outage wait-out or
    kill, so never more than one per lane.  Everything else — lane
    releases, grants, ghosts, StopIteration fan-out wake-ups, finished-
    predecessor skips — is zero-duration and resolves inside the
    same-instant cascade.

    Event discipline mirrors the engine's ordering contract exactly,
    including same-instant ties.  At each instant the engine drains a
    *cascade* of same-time events in seq order, and the replay processes
    it in *hop bands*: every calendar event (completions in occupancy-
    start order, releases), then each band's follow-ups one engine
    cascade step later.  A completion releases its resource and grants
    the longest waiter in the next band ahead of its own follow-up; the
    next task of its segment is requested ``hop`` bands later (see
    :func:`_segments`); a segment's last completion reaches
    StopIteration one band later (NOTIFY) and wakes its watchers one
    band after that, in watcher-registration order; each additional
    already-finished predecessor a woken head skips over costs one more
    band (the engine re-pushes the process per ``yield``).  Same-time
    completions therefore grant, wake and re-request in exactly the
    order the generator engine's monotonic seq would produce.  A
    tie-free instant resolves inline.  Under ``faults`` it must also be
    *ghost-free*, because a ghost's in-band release can cascade even
    from a single calendar event: the event is an occupancy completion
    or an entry release (not a wait-out or kill), its job has not
    failed, nor has the job of the head waiter of the lane it frees,
    and no lane it may grant is dead.  While no failed job has an
    unfinished segment and no lane has died, that holds without a
    look.

    Even a batch of *identical* replicas is not the textbook pipelined
    flow shop: when consecutive stages share a device, a replica's
    next-stage request enqueues behind every replica already waiting, so
    service proceeds in stage waves (all stage-0 occupancies, then the
    stage-1s, ...).  That grant order is emergent — which is why the
    super-job fast path replays FIFO instead of using a closed form.
    """
    n = len(job_program)
    if len(arrivals) != n:
        raise SimulationError(
            f"{n} jobs but {len(arrivals)} arrival times"
        )
    # ------------------------------------------------------------------
    # Lay the replicas' segments out as rs indices, jobs in submission
    # order and segments in head order — the engine's spawn order.  The
    # per-replica arrays are concatenations of per-program data, built
    # at C speed; at t=0 every non-entry head parks on its *first*
    # predecessor, so the initial watcher lists come from the programs.
    # Entry releases are ordered by (arrival, rs): rs order is the spawn
    # order the engine allocates the release timeouts' seqs in.  They
    # are laid out as columns in rs order and stably sorted by release,
    # so ties keep rs order and no tuple is built per entry.
    # ------------------------------------------------------------------
    compiled = [_segments(program, faults is not None) for program in programs]
    tasks_of, preds_of, watchers_of, heads_of, stages_of = (
        [columns[i] for columns in compiled] for i in range(5)
    )
    job_tasks = list(map(tasks_of.__getitem__, job_program))
    rs_tasks = list(chain.from_iterable(job_tasks))
    rs_preds = list(chain.from_iterable(map(preds_of.__getitem__, job_program)))
    watchers = list(
        chain.from_iterable(map(watchers_of.__getitem__, job_program))
    )
    remaining = list(map(len, job_tasks))  # unfinished segments per job
    rs_job = list(chain.from_iterable(map(repeat, range(n), remaining)))
    job_heads = list(map(heads_of.__getitem__, job_program))
    entry_rs = [
        base + head
        for base, heads in zip(accumulate(remaining, initial=0), job_heads)
        for head in heads
    ]
    entry_release = [
        release for release, heads in zip(arrivals, job_heads) for _head in heads
    ]
    total = len(rs_tasks)
    cursor = [0] * total  # index of the segment's requested/running task
    wait_index = [0] * total  # predecessor currently being waited on
    started = [False] * total  # False until the first task is requested
    stage_done = [False] * total
    busy = [False] * n_resources
    waiters: list[deque[int]] = [deque() for _ in range(n_resources)]
    # Each resource's occupancy as start and end columns, in grant order.
    occ_starts: list[list[float]] = [[] for _ in range(n_resources)]
    occ_ends: list[list[float]] = [[] for _ in range(n_resources)]
    completions = [0.0] * n
    makespan = 0.0

    # The calendar: the sorted entry releases, read by a cursor, merged
    # with a heap of (time, seq, rs) triples for the in-flight events —
    # one occupancy, outage wait-out or kill (``~rs``) per busy lane, so
    # the heap never holds more events than there are lanes.  ``seq``
    # follows the engine's monotonic seq, so the heap's tie-break on it
    # *is* the engine's FIFO contract.  The engine gives the releases
    # its first seqs, so at an equal time a release precedes every heap
    # event: the heap top goes first only when strictly earlier.
    # ``releases`` ends in an infinite sentinel, bound once, so reading
    # the next release never runs off the list.
    entry_order = sorted(range(len(entry_rs)), key=entry_release.__getitem__)
    release_rs = list(map(entry_rs.__getitem__, entry_order))
    releases = list(map(entry_release.__getitem__, entry_order))
    n_releases = len(releases)
    releases.append(float("inf"))
    next_release = releases[0]
    released = 0
    seq = 0
    heap: list[tuple[float, int, int]] = []
    pop = heapq.heappop
    push = heapq.heappush

    healthy = faults is None
    if healthy:
        start = _A_START
    else:
        start = _A_RESOLVE
        job_base = list(accumulate(map(len, job_tasks), initial=0))
        failed: list = [None] * n  # job -> (time, resource, kind)
        doomed = 0  # failed jobs with unfinished segments
        deferred: dict[int, tuple] = {}  # rs -> its pending fault event
        aborted: dict[int, int] = {}  # rs -> its first ghost/kill index
        # Per lane, its fault spans sorted by start, the never-ending
        # ``[dead_at, inf)`` among them, a cursor on the first one not
        # yet ended, and that span's start: the quiet horizon.
        inf = float("inf")
        spans: list[list[tuple[float, float]]] = []
        death: list[float] = []
        for windows, slowdowns, dead_at in (t or ((), (), None) for t in faults):
            death.append(inf if dead_at is None else dead_at)
            spans.append(
                sorted([*windows, *(s[:2] for s in slowdowns), (death[-1], inf)])
            )
        span_at = [0] * n_resources
        quiet = [lane[0][0] for lane in spans]
        first_death = min(death, default=inf)

        # The hot loop's own lists are bound as defaults: a closure over
        # them would turn every access in the loop into a cell lookup.
        def serve(
            rs: int, time: float, seq: int, rs_tasks=rs_tasks, quiet=quiet,
            heap=heap, occ_starts=occ_starts, occ_ends=occ_ends,
        ) -> str | None:
            """Grant ``rs`` its current task's lane at ``time`` past the
            quiet horizon test: advance the lane's cursor, and resolve
            the service against the timeline only if it still reaches
            the horizon.  Pushes the completion, or the outage wait-out
            or kill as ``~rs``, at ``seq`` and returns ``None``; a kill
            at the grant pushes nothing and returns its kind."""
            resource, duration, _hop = rs_tasks[rs][cursor[rs]]
            end = time + duration
            lane = spans[resource]
            at = span_at[resource]
            while lane[at][1] <= time:
                at += 1
            span_at[resource] = at
            quiet[resource] = lane[at][0]
            if end >= quiet[resource]:
                service, wall, fail_time, kind = resolve_degraded_service(
                    *faults[resource], time, duration
                )
                due = service if fail_time is None else fail_time
                if due > time:
                    deferred[rs] = (service, wall, kind)
                    heapq.heappush(heap, (time + (due - time), seq, ~rs))
                    return None
                if kind is not None:
                    return kind
                end = time + wall
            occ_starts[resource].append(time)
            occ_ends[resource].append(end)
            heapq.heappush(heap, (end, seq, rs))
            return None

        def ghost_free(rs: int, time: float, rs_tasks=rs_tasks) -> bool:
            """Whether the instant of ``rs``'s event surely grants no
            ghost: neither its job nor that of the head waiter of the
            lane it frees has failed, and neither lane it may grant is
            dead."""
            tasks = rs_tasks[rs]
            index = cursor[rs]
            resource = tasks[index][0]
            queue = waiters[resource]
            return (
                failed[rs_job[rs]] is None
                and not (queue and failed[rs_job[queue[0]]] is not None)
                and death[resource] > time
                and (index + 1 == len(tasks) or death[tasks[index + 1][0]] > time)
            )

        def abort(rs: int, index: int, resource: int, nxt: list) -> None:
            """A ghost or a kill ends ``rs``'s stage at task ``index``:
            the lane is released in this band (its longest waiter is
            granted next band), and the stage process returns next band
            — the segment's next stage then requests its first task, or
            the segment ends."""
            aborted.setdefault(rs, index)
            queue = waiters[resource]
            if queue:
                nxt.append((queue.popleft() << 3) | _A_RESOLVE)
            else:
                busy[resource] = False
            job = rs_job[rs]
            for _stage, end in stages_of[job_program[job]][rs - job_base[job]]:
                if end > index:
                    cursor[rs] = end
                    break
            nxt.append((rs << 3) | _A_NOTIFY)

    while True:
        if heap and heap[0][0] < next_release:
            time, _seq, rs = pop(heap)
        elif released < n_releases:
            time = next_release
            rs = release_rs[released]
            released += 1
            next_release = releases[released]
        else:
            break
        if (
            next_release != time
            and (not heap or heap[0][0] != time)
            and (
                healthy
                or rs >= 0
                and (not doomed and time < first_death or ghost_free(rs, time))
            )
        ):
            # Tie-free (and, under faults, ghost-free) instant — the
            # overwhelmingly common case with real (float) durations.
            # No other event shares the cascade, so grant, cursor
            # advance and next-request resolve inline, whatever the hop;
            # the push order (grant's event first, then this segment's
            # next, if any) matches the banded cascade's seq allocation
            # exactly.  A grant whose service may reach its lane's quiet
            # horizon takes the slow path, ``serve``.  Only a segment
            # end with parked watchers enters the hop bands: the
            # relative order in which same-instant watchers reach their
            # acquires depends on how many finished predecessors each
            # skips, which is precisely what the bands emulate.
            tasks = rs_tasks[rs]
            if started[rs]:
                index = cursor[rs]
                resource = tasks[index][0]
                queue = waiters[resource]
                if queue:
                    waiter = queue.popleft()
                    end = time + rs_tasks[waiter][cursor[waiter]][1]
                    if healthy or end < quiet[resource]:
                        occ_starts[resource].append(time)
                        occ_ends[resource].append(end)
                        push(heap, (end, seq, waiter))
                    else:
                        serve(waiter, time, seq)
                    seq += 1
                else:
                    busy[resource] = False
                index += 1
                cursor[rs] = index
                if index < len(tasks):
                    resource = tasks[index][0]
                    if busy[resource]:
                        waiters[resource].append(rs)
                    else:
                        busy[resource] = True
                        end = time + tasks[index][1]
                        if healthy or end < quiet[resource]:
                            occ_starts[resource].append(time)
                            occ_ends[resource].append(end)
                            push(heap, (end, seq, rs))
                        else:
                            serve(rs, time, seq)
                        seq += 1
                    continue
                stage_done[rs] = True
                job = rs_job[rs]
                remaining[job] -= 1
                if not remaining[job]:
                    completions[job] = time
                    if time > makespan:
                        makespan = time
                parked = watchers[rs]
                if not parked:
                    continue
                watchers[rs] = ()
                # A loop: a comprehension would make ``rs`` a cell.
                cur = []
                for offset in parked:
                    cur.append(((rs + offset) << 3) | _A_WAIT)
            else:
                started[rs] = True
                resource = tasks[0][0]
                if busy[resource]:
                    waiters[resource].append(rs)
                else:
                    busy[resource] = True
                    end = time + tasks[0][1]
                    if healthy or end < quiet[resource]:
                        occ_starts[resource].append(time)
                        occ_ends[resource].append(end)
                        push(heap, (end, seq, rs))
                    else:
                        serve(rs, time, seq)
                    seq += 1
                continue
        else:
            # Same-instant collision, a fault event or a possible ghost:
            # full banded cascade emulation.
            band = [rs]
            while next_release == time:
                band.append(release_rs[released])
                released += 1
                next_release = releases[released]
            while heap and heap[0][0] == time:
                band.append(pop(heap)[2])
            # Band 0: every calendar event at this instant in seq order —
            # the cursor's remaining releases, then the heap's events,
            # whose seqs all come after theirs.  Completions release
            # first (grant ahead of the finisher's own cascade); release
            # events request their entry segment's first task at this
            # pop, like the engine's post-timeout resume.
            nxt: list[int] = []
            for rs in band:
                if rs < 0:
                    # A fault event (pushed as ``~rs``): the outage a
                    # grant landed in is over, or a kill strikes.
                    rs = ~rs
                    service, wall, kind = deferred.pop(rs)
                    index = cursor[rs]
                    resource = rs_tasks[rs][index][0]
                    if kind is None:
                        end = time + wall
                        occ_starts[resource].append(time)
                        occ_ends[resource].append(end)
                        push(heap, (end, seq, rs))
                        seq += 1
                        continue
                    if time > service:
                        occ_starts[resource].append(service)
                        occ_ends[resource].append(time)
                    job = rs_job[rs]
                    if failed[job] is None:
                        failed[job] = (time, resource, kind)
                        doomed += 1
                    abort(rs, index, resource, nxt)
                    continue
                tasks = rs_tasks[rs]
                if started[rs]:
                    index = cursor[rs]
                    resource = tasks[index][0]
                    queue = waiters[resource]
                    if queue:
                        nxt.append((queue.popleft() << 3) | start)
                    else:
                        busy[resource] = False
                    index += 1
                    cursor[rs] = index
                    if index < len(tasks) and tasks[index][2] == 1:
                        nxt.append((rs << 3) | _A_ACQUIRE)
                    else:
                        nxt.append((rs << 3) | _A_NOTIFY)
                else:
                    started[rs] = True
                    resource = tasks[0][0]
                    if busy[resource]:
                        waiters[resource].append(rs)
                    else:
                        busy[resource] = True
                        nxt.append((rs << 3) | start)
            cur = nxt
        # Hop bands: actions ripple outward exactly one engine cascade
        # step per band (see the comment above the action codes).
        while cur:
            nxt = []
            for action in cur:
                code = action & 7
                rs = action >> 3
                if code == _A_START:
                    resource, duration, _hop = rs_tasks[rs][cursor[rs]]
                    end = time + duration
                    occ_starts[resource].append(time)
                    occ_ends[resource].append(end)
                    push(heap, (end, seq, rs))
                    seq += 1
                elif code == _A_ACQUIRE:
                    resource = rs_tasks[rs][cursor[rs]][0]
                    if busy[resource]:
                        waiters[resource].append(rs)
                    else:
                        busy[resource] = True
                        nxt.append((rs << 3) | start)
                elif code == _A_NOTIFY:
                    if cursor[rs] < len(rs_tasks[rs]):
                        # A compacted stage boundary.
                        nxt.append((rs << 3) | _A_ACQUIRE)
                        continue
                    stage_done[rs] = True
                    job = rs_job[rs]
                    remaining[job] -= 1
                    if not remaining[job]:
                        completions[job] = time
                        if time > makespan:
                            makespan = time
                        if not healthy and failed[job] is not None:
                            doomed -= 1
                    parked = watchers[rs]
                    if parked:
                        for offset in parked:
                            nxt.append(((rs + offset) << 3) | _A_WAIT)
                        watchers[rs] = ()
                elif code == _A_WAIT:  # one predecessor-loop step
                    preds = rs_preds[rs]
                    index = wait_index[rs] + 1
                    wait_index[rs] = index
                    if index < len(preds):
                        pred = rs + preds[index]
                        if stage_done[pred]:
                            nxt.append((rs << 3) | _A_WAIT)
                        else:
                            watchers[pred] += (rs - pred,)
                    else:
                        # All joins satisfied: request the first task at
                        # this pop (the engine falls straight through to
                        # the acquire yield).
                        started[rs] = True
                        resource = rs_tasks[rs][0][0]
                        if busy[resource]:
                            waiters[resource].append(rs)
                        else:
                            busy[resource] = True
                            nxt.append((rs << 3) | start)
                else:  # _A_RESOLVE: a grant under the fault plan
                    index = cursor[rs]
                    resource = rs_tasks[rs][index][0]
                    job = rs_job[rs]
                    if failed[job] is None:
                        kind = serve(rs, time, seq)
                        if kind is None:
                            seq += 1
                            continue
                        # A death before the grant: the kill is a ghost.
                        failed[job] = (time, resource, kind)
                        doomed += 1
                    abort(rs, index, resource, nxt)
            cur = nxt
    failures: list[tuple] = []
    if not healthy:
        for job, failure in enumerate(failed):
            if failure is None:
                continue
            # A segment's tasks before its first ghost or kill all
            # completed normally, and so did every stage they close.
            completed = []
            rs = job_base[job]
            for stages in stages_of[job_program[job]]:
                cutoff = aborted.get(rs, len(rs_tasks[rs]))
                completed.extend(stage for stage, end in stages if end <= cutoff)
                rs += 1
            failures.append((job, *failure, tuple(sorted(completed))))
    return completions, makespan, list(zip(occ_starts, occ_ends)), failures


# ---------------------------------------------------------------------------
# Fault-window service resolution (shared by the replay above and
# run_engine_batch)
# ---------------------------------------------------------------------------


def inflate_service(
    slowdowns: tuple[tuple[float, float, float], ...],
    start: float,
    duration: float,
) -> float:
    """Wall-clock span of a service under partial-degradation windows.

    ``slowdowns`` is the lane's slowdown list — ``(start, end, factor)``
    half-open windows, sorted by start and non-overlapping — during
    which the lane runs at ``1/factor`` of its nominal rate.  A service
    beginning at ``start`` with ``duration`` nominal seconds of work
    accrues piecewise: full-rate segments between windows consume one
    nominal second per wall second, degraded segments consume
    ``1/factor``.  A service spanning a window boundary therefore
    splits deterministically at the boundary, in timeline order — the
    float-accrual order is fixed, so the same windows always produce
    the same wall span.

    When no window overlaps ``[start, start + wall)`` the return value
    is exactly ``duration`` (the accumulator stays untouched until the
    first overlapping window), which is what keeps no-overlap plans
    bit-identical to no plan.
    """
    remaining = duration  # nominal seconds of work still owed
    now = start
    wall = 0.0
    for win_start, win_end, factor in slowdowns:
        if win_end <= now:
            continue
        if win_start > now:
            # Full-rate segment up to the window (or completion).
            healthy = win_start - now
            if remaining <= healthy:
                return wall + remaining
            wall += healthy
            remaining -= healthy
            now = win_start
        # Degraded segment inside [now, win_end): 1/factor rate.
        capacity = (win_end - now) / factor
        if remaining <= capacity:
            return wall + remaining * factor
        wall += win_end - now
        remaining -= capacity
        now = win_end
    return wall + remaining


def resolve_degraded_service(
    windows: tuple[tuple[float, float], ...],
    slowdowns: tuple[tuple[float, float, float], ...],
    dead_at: float | None,
    grant: float,
    duration: float,
) -> tuple[float, float, float | None, str | None]:
    """Resolve one task's service against a lane's fault timeline: the
    advance-knowledge kernel for outages *and* slowdowns.

    ``windows`` is the lane's transient-outage list, sorted by start,
    non-overlapping, and already clamped at ``dead_at`` (the lane's
    permanent failure time, or ``None`` if it never dies); ``slowdowns``
    is its partial-degradation list.  ``grant`` is when the task was
    granted the lane and ``duration`` its nominal service time.

    The fault semantics are preemption-free: a task granted *inside* an
    outage window waits the window out before starting service (the
    lane is simply unavailable — no failure), while a window that
    *starts* mid-service kills the job at the window start.  The
    service's wall span is first inflated through the lane's
    ``slowdowns`` (:func:`inflate_service`), and the kill checks — a
    window starting mid-service, an overrun past the permanent death —
    run against the *inflated* span: a slowdown can push a service into
    an outage window it would have cleared at full rate.

    Returns ``(service_start, wall_duration, fail_time, kind)``:
    ``fail_time`` is ``None`` on success, and ``kind`` is ``"outage"``
    or ``"permanent"`` when the task fails.  Occupancy for a failing
    task is ``[service_start, fail_time)``; for a success it is
    ``[service_start, service_start + wall_duration)``.  With no
    slowdowns ``wall_duration`` is exactly ``duration``.
    """
    service = grant
    wall = None
    for start, end in windows:
        if end <= service:
            continue
        if start <= service:
            # Granted while the lane is down: wait out the window.
            service = end
            continue
        wall = (
            inflate_service(slowdowns, service, duration)
            if slowdowns
            else duration
        )
        if start < service + wall:
            return service, wall, start, "outage"
        break
    if wall is None:
        wall = (
            inflate_service(slowdowns, service, duration)
            if slowdowns
            else duration
        )
    if dead_at is not None and service + wall > dead_at:
        return service, wall, max(grant, dead_at), "permanent"
    return service, wall, None, None
