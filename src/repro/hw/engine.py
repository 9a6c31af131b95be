"""Discrete-event simulation engine.

A compact generator-based DES in the simpy style: processes are Python
generators that yield *commands* (wait for time, acquire/release a
resource), the engine advances virtual time over a heap of pending events.
The pipeline executor (:mod:`repro.core.executor`) uses it to serialize
phases on execution units and to model contention on the host link when
several offloaded stages transfer concurrently.

Supported commands (yield values):

- ``Engine.timeout(dt)`` — resume after ``dt`` seconds of virtual time.
- ``resource.acquire()`` — resume once a unit of the resource is granted.
- ``resource.release()`` — give a unit back (resumes a waiter if any).
- another :class:`SimProcess` — resume when that process finishes.

The hot loop is deliberately allocation-lean: at serving scale
(:meth:`repro.core.executor.PipelineExecutor.execute_many` with hundreds
of jobs) the simulator itself, not the modeled hardware, becomes the
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
from typing import Generator

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
# Array-based event calendar (used by the batch replay)
# ---------------------------------------------------------------------------


class EventCalendar:
    """Array-backed event calendar: an index heap over parallel arrays.

    The generator engine's heap stores ``(time, seq, process)`` triples —
    one 3-tuple allocation per event.  At replay scale (one event per
    occupancy, 10k-job batches) the calendar trims that constant factor:
    the heap holds only ``(time, event_id)`` pairs and the event payload
    lives in a preallocated parallel array indexed by the id.  Event ids
    are the replay's monotonic ``seq`` counter, so the heap's tie-break
    on the second element *is* the engine's FIFO seq contract — no
    separate tie key is stored or compared.

    The replay knows its exact event count up front (one release event
    per entry segment plus exactly one completion per task), so the
    payload array is sized once and never reallocates; :meth:`push`
    still grows it on demand for open-ended consumers.

    The hot loop in :func:`replay_dag_batch` operates on :attr:`heap` /
    :attr:`payload` directly (bound to locals) rather than through these
    methods — the methods are the documented API for tests and lighter
    consumers.
    """

    __slots__ = ("heap", "payload", "seq")

    def __init__(self, capacity: int = 0):
        #: Min-heap of ``(time, event_id)`` pairs.
        self.heap: list[tuple[float, int]] = []
        #: ``payload[event_id]`` is the event's payload object.
        self.payload: list = [None] * capacity
        #: Next event id; monotone, doubles as the FIFO tie-breaker.
        self.seq = 0

    def seed(self, entries) -> None:
        """Bulk-load ``(time, payload)`` pairs pre-sorted by (time,
        arrival order).  Consecutive ids over nondecreasing times make
        the backing list a valid heap as-is — no sift needed."""
        heap = self.heap
        payload = self.payload
        seq = self.seq
        for time, item in entries:
            if seq < len(payload):
                payload[seq] = item
            else:
                payload.append(item)
            heap.append((time, seq))
            seq += 1
        self.seq = seq

    def push(self, time: float, item) -> None:
        eid = self.seq
        if eid < len(self.payload):
            self.payload[eid] = item
        else:
            self.payload.append(item)
        heapq.heappush(self.heap, (time, eid))
        self.seq = eid + 1

    def pop(self):
        """Remove and return the earliest ``(time, payload)`` event
        (FIFO among same-time events)."""
        time, eid = heapq.heappop(self.heap)
        return time, self.payload[eid]

    def __len__(self) -> int:
        return len(self.heap)

    def __bool__(self) -> bool:
        return bool(self.heap)


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
# for any attached observer or zero-duration task.
#
# Hop-band action codes, packed with the replica-segment index as
# ``(rs << 2) | code`` so the cascade bands hold plain ints instead of
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
_A_START = 0
_A_ACQUIRE = 1
_A_NOTIFY = 2
_A_WAIT = 3


def _segments(program) -> tuple:
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
    Returns ``(tasks, preds, watchers, heads, n_tasks)``: per-segment
    task lists, predecessor offsets (in-edge order), initial watcher
    offsets (registration order: a head parks on its first
    predecessor), the entry segments, and the program's task count."""
    stage_tasks, stage_preds = program
    fan_out = [0] * len(stage_tasks)
    for preds in stage_preds:
        for p in preds:
            fan_out[p] += 1
    seg_of: list[int] = []
    tasks: list[list[tuple[int, float, int]]] = []
    preds_of: list[tuple[int, ...]] = []
    for stage, preds in enumerate(stage_preds):
        if len(preds) == 1 and fan_out[preds[0]] == 1:
            seg = seg_of[preds[0]]
            hop = 2
        else:
            seg = len(tasks)
            tasks.append([])
            preds_of.append(tuple(seg_of[p] - seg for p in preds))
            hop = 0
        seg_of.append(seg)
        segment = tasks[seg]
        for resource, duration in stage_tasks[stage]:
            segment.append((resource, duration, hop))
            hop = 1
    watchers: list[tuple[int, ...]] = [()] * len(tasks)
    for seg, preds in enumerate(preds_of):
        if preds:
            watchers[seg + preds[0]] += (-preds[0],)
    heads = tuple(seg for seg, preds in enumerate(preds_of) if not preds)
    return tasks, preds_of, watchers, heads, sum(map(len, tasks))


def replay_dag_batch(
    programs: "list",
    job_program: "list[int]",
    arrivals: "list[float]",
    n_resources: int,
) -> tuple[list[float], float, list[list[tuple[float, float]]]]:
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
    per-job completion times, the makespan (the last completion), and
    per-resource occupancy intervals — ``occupancy[r]`` is resource
    ``r``'s ``(start, end)`` list in grant order, where ``end`` is the
    exact float pushed as the completion event (``start + duration``)
    — all bit-identical to spawning one engine process per stage (on a
    capacity-1 resource the grant order *is* the completion order, so
    the interval lists line up with the engine's occupancy stream entry
    for entry).

    The replay keeps one cursor per *replica-segment* plus a join
    counter (``wait_index``) per fan-in: a segment head requests its
    first task only after every predecessor segment of its own replica
    has finished, which is exactly the ``yield predecessor`` wait chain
    the engine's stage processes perform.  The calendar carries one
    event per occupancy (plus one release event per entry segment);
    everything else — releases, grants, StopIteration fan-out wake-ups,
    finished-predecessor skips — is zero-duration and resolves inside
    the same-instant cascade.

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
    order the generator engine's monotonic seq would produce.

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
    # Entry releases are sorted by (arrival, rs): rs order is the spawn
    # order the engine allocates the release timeouts' seqs in.
    # ------------------------------------------------------------------
    compiled = [_segments(program) for program in programs]
    tasks_of, preds_of, watchers_of, heads_of, n_tasks_of = (
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
    entry_events = [
        (release, base + head)
        for release, base, heads in zip(
            arrivals,
            accumulate(remaining, initial=0),
            map(heads_of.__getitem__, job_program),
        )
        for head in heads
    ]
    entry_events.sort()
    total = len(rs_tasks)
    cursor = [0] * total  # index of the segment's requested/running task
    wait_index = [0] * total  # predecessor currently being waited on
    started = [False] * total  # False until the first task is requested
    stage_done = [False] * total
    busy = [False] * n_resources
    waiters: list[deque[int]] = [deque() for _ in range(n_resources)]
    occupancy: list[list[tuple[float, float]]] = [
        [] for _ in range(n_resources)
    ]
    completions = [0.0] * n
    makespan = 0.0

    # Exact event budget: one release event per entry segment plus one
    # completion per task — the payload array never reallocates.
    calendar = EventCalendar(
        len(entry_events) + sum(map(n_tasks_of.__getitem__, job_program))
    )
    calendar.seed(entry_events)
    heap = calendar.heap
    payload = calendar.payload
    seq = calendar.seq
    pop = heapq.heappop
    push = heapq.heappush

    while heap:
        time, eid = pop(heap)
        rs = payload[eid]
        if not heap or heap[0][0] != time:
            # Tie-free instant — the overwhelmingly common case with
            # real (float) durations.  No other event shares the
            # cascade, so grant, cursor advance and next-request resolve
            # inline, whatever the hop; the push order (grant's
            # occupancy first, then this segment's next, if any)
            # matches the banded cascade's seq allocation exactly.  Only
            # a segment end with parked watchers enters the hop bands:
            # the relative order in which same-instant watchers reach
            # their acquires depends on how many finished predecessors
            # each skips, which is precisely what the bands emulate.
            tasks = rs_tasks[rs]
            if started[rs]:
                index = cursor[rs]
                resource = tasks[index][0]
                queue = waiters[resource]
                if queue:
                    waiter = queue.popleft()
                    payload[seq] = waiter
                    end = time + rs_tasks[waiter][cursor[waiter]][1]
                    occupancy[resource].append((time, end))
                    push(heap, (end, seq))
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
                        payload[seq] = rs
                        end = time + tasks[index][1]
                        occupancy[resource].append((time, end))
                        push(heap, (end, seq))
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
                cur = [((rs + offset) << 2) | _A_WAIT for offset in parked]
            else:
                started[rs] = True
                resource = tasks[0][0]
                if busy[resource]:
                    waiters[resource].append(rs)
                else:
                    busy[resource] = True
                    payload[seq] = rs
                    end = time + tasks[0][1]
                    occupancy[resource].append((time, end))
                    push(heap, (end, seq))
                    seq += 1
                continue
        else:
            # Same-instant collision: full banded cascade emulation.
            band = [rs]
            while heap and heap[0][0] == time:
                band.append(payload[pop(heap)[1]])
            # Band 0: every calendar event at this instant in seq order.
            # Completions release first (grant ahead of the finisher's
            # own cascade); release events request their entry segment's
            # first task at this pop, like the engine's post-timeout
            # resume.
            nxt: list[int] = []
            for rs in band:
                tasks = rs_tasks[rs]
                if started[rs]:
                    index = cursor[rs]
                    resource = tasks[index][0]
                    queue = waiters[resource]
                    if queue:
                        nxt.append((queue.popleft() << 2) | _A_START)
                    else:
                        busy[resource] = False
                    index += 1
                    cursor[rs] = index
                    if index < len(tasks) and tasks[index][2] == 1:
                        nxt.append((rs << 2) | _A_ACQUIRE)
                    else:
                        nxt.append((rs << 2) | _A_NOTIFY)
                else:
                    started[rs] = True
                    resource = tasks[0][0]
                    if busy[resource]:
                        waiters[resource].append(rs)
                    else:
                        busy[resource] = True
                        nxt.append((rs << 2) | _A_START)
            cur = nxt
        # Hop bands: actions ripple outward exactly one engine cascade
        # step per band (see the comment above the action codes).
        while cur:
            nxt = []
            for action in cur:
                code = action & 3
                rs = action >> 2
                if code == _A_START:
                    payload[seq] = rs
                    resource, duration, _hop = rs_tasks[rs][cursor[rs]]
                    end = time + duration
                    occupancy[resource].append((time, end))
                    push(heap, (end, seq))
                    seq += 1
                elif code == _A_ACQUIRE:
                    resource = rs_tasks[rs][cursor[rs]][0]
                    if busy[resource]:
                        waiters[resource].append(rs)
                    else:
                        busy[resource] = True
                        nxt.append((rs << 2) | _A_START)
                elif code == _A_NOTIFY:
                    if cursor[rs] < len(rs_tasks[rs]):
                        # A compacted stage boundary.
                        nxt.append((rs << 2) | _A_ACQUIRE)
                        continue
                    stage_done[rs] = True
                    job = rs_job[rs]
                    remaining[job] -= 1
                    if not remaining[job]:
                        completions[job] = time
                        if time > makespan:
                            makespan = time
                    parked = watchers[rs]
                    if parked:
                        for offset in parked:
                            nxt.append(((rs + offset) << 2) | _A_WAIT)
                        watchers[rs] = ()
                else:  # _A_WAIT: one predecessor-loop step
                    preds = rs_preds[rs]
                    index = wait_index[rs] + 1
                    wait_index[rs] = index
                    if index < len(preds):
                        pred = rs + preds[index]
                        if stage_done[pred]:
                            nxt.append((rs << 2) | _A_WAIT)
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
                            nxt.append((rs << 2) | _A_START)
            cur = nxt
    return completions, makespan, occupancy


# ---------------------------------------------------------------------------
# Fault-window service resolution (shared by repro.core.faults)
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
