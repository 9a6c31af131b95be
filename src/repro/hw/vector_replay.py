"""Vectorized wave replay for signature-coalesced super-job batches.

A batch whose jobs are all *one* super-job — identical
replicas of a single pipeline/schedule pair, which is exactly what the
framework's entry store hands :meth:`~repro.core.executor.
PipelineExecutor.execute_many` for duplicate jobs — has far more
structure than the general FIFO replays exploit.  Every replica runs
the same template of occupancies (transfers and device stays, in the
same order, with the same durations), so under FIFO each capacity-1
resource serves the replicas in *wave groups* over adjacent template
occupancies: either one occupancy at a time (all replicas' occurrence
of template slot ``t``, then all replicas' next slot on that
resource), or several adjacent occupancies *fused* per replica
(``r0``'s fan-out pair, then ``r1``'s, ...) when each replica's later
requests arrive before its successors' earlier ones.  Either way the
full grant/finish timetable is a closed recurrence over a ``(replica,
stage-occupancy)`` grid:

- the *ready* vector of an occupancy is the predecessor occupancy's
  end vector (within a stage/chain), the elementwise join-``max``
  across the predecessor stages' last ends (fan-in), or the sorted
  arrival vector (entry stages);
- FIFO grants along a group's interleaved request sequence are a
  running max-plus scan, ``end[i] = max(request[i], end[i-1]) +
  duration[i]``, which this module evaluates as numpy
  ``add.accumulate`` runs over the queue-bound segments (one
  sequential float addition per grant — the engine's exact accrual
  order, so the floats are bit-identical) stitched at the
  request-bound restarts.

One numpy pass per template occupancy replaces one heap event per
*replica* occupancy — the per-occupancy Python cost of the slim
replays (heap push/pop, deque rotation, tuple dispatch) collapses into
a handful of vector operations per wave group.

Bit-identity contract and the decline rule
------------------------------------------

The recurrence reproduces the generator engine only while the assumed
grant order *is* the engine's FIFO grant order.  The replay verifies
that from the computed request times themselves: within a wave group
the interleaved request sequence must be nondecreasing with only
provably-safe ties (same replica, same ready source — where the
engine's wake order is the template's stage order by construction; or
across replicas in a one-slot group with a single ready source, where
wakes enqueue in grant order), and on every resource all requests of
one group must strictly precede all requests of the next.  When the
checks pass, the schedule built here is the unique FIFO execution,
float for float.  Shards where they fail — requests overtaking a
non-adjacent earlier wave, or same-instant ties straddling a replica
boundary or a fan-in join, where grant order falls to the engine's
banded hop cascade (:func:`~repro.hw.engine.replay_dag_batch`) that a
closed recurrence cannot reproduce — are *declined* by returning
``None`` so the backend walk falls back to the event-driven replays.
Never silently approximate: every schedule this module does return is
the engine's, including the per-resource occupancy intervals in grant
order.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError

__all__ = ["replay_vector_batch"]

_NEG_INF = float("-inf")

#: Ready-source signature of an entry-stage occupancy (the sorted
#: arrival vector); every other signature is a tuple of occupancy
#: indices.
_ARRIVAL_SOURCE = ("arrival",)


def _busy_period(
    ext: np.ndarray,
    durations: np.ndarray,
    start: int,
    prev_end: float,
    ends: np.ndarray,
) -> int:
    """Service one FIFO busy period starting at flat position
    ``start``: sequential accrual ``end[i] = end[i-1] + duration[i]``
    (one float addition per grant, the engine's exact order) from
    ``max(ext[start], prev_end)`` until the first position whose
    external request catches up with the running end (a genuine idle
    restart) or the end of the sequence.  Internal positions
    (``ext == -inf``) never restart.  Writes ``ends[start:stop]`` and
    returns ``stop``.  Chunked with doubling so a long saturated
    period costs one pass and an early restart never pays for the
    whole suffix."""
    total = ext.shape[0]
    first = ext[start]
    if first < prev_end:
        first = prev_end
    running = float(first)
    pos = start
    chunk = 64
    at_first = True
    while pos < total:
        if not at_first and ext[pos] >= running:
            return pos
        stop = min(pos + chunk, total)
        segment = durations[pos:stop].copy()
        segment[0] = running + segment[0]
        np.add.accumulate(segment, out=segment)
        if stop - pos > 1:
            restarts = ext[pos + 1 : stop] >= segment[:-1]
            hit = int(np.argmax(restarts))
            if restarts[hit]:
                cut = pos + 1 + hit
                ends[pos:cut] = segment[: hit + 1]
                return cut
        ends[pos:stop] = segment
        running = float(segment[-1])
        pos = stop
        at_first = False
        chunk <<= 1
    return total


def _service_grid(
    ext_grid: np.ndarray, durations: np.ndarray, carry: float
) -> np.ndarray:
    """End times of a wave group's FIFO grants on the ``(replica,
    slot)`` grid of a capacity-1 resource.

    ``ext_grid[r, j]`` is the externally-known request time of replica
    ``r``'s slot ``j`` (``-inf`` for internal slots, which re-request
    the instant the replica's previous slot ends), ``durations`` the
    per-slot service times and ``carry`` the end of the resource's
    previous grant.  The grant sequence is replica-major, so a
    replica's positions after slot 0 chain only off its *own* previous
    slot — cross-replica coupling enters a row exclusively through
    slot 0.  Two regimes cover the sequence:

    - *independent runs*: when a replica's slot 0 starts idle, its
      whole row is the independent-row solution, computed for every
      replica at once with ``k`` vectorized column steps (each element
      one ``max`` pick plus one addition — the engine's accrual) and
      assigned per run as a slice;
    - *busy periods*: backlogged stretches accrue sequentially via
      :func:`_busy_period`, which hands control back at the first
      genuine idle restart.

    Either way every grant's float is produced by the same scalar
    operation DAG as the generator engine, so the results are
    bit-identical."""
    n, k = ext_grid.shape
    total = n * k
    independent = np.empty((n, k))
    column = ext_grid[:, 0] + durations[0]
    independent[:, 0] = column
    for j in range(1, k):
        column = np.maximum(ext_grid[:, j], column) + durations[j]
        independent[:, j] = column
    # ``ok[r]``: replica ``r``'s slot 0 would start idle if replica
    # ``r - 1``'s row were independent.  The actual end is never below
    # the independent candidate, so False means slot 0 queues no
    # matter what; True is re-checked against the actual running end
    # when an independent run is extended.
    ok = np.empty(n, dtype=bool)
    ok[0] = True
    if n > 1:
        ok[1:] = ext_grid[1:, 0] >= independent[:-1, k - 1]
    indep_stop = np.flatnonzero(~ok)
    ext_flat = ext_grid.reshape(total)
    dur_flat = np.tile(durations, n)
    ends_flat = np.empty(total)
    ends = ends_flat.reshape(n, k)
    r = 0
    prev_end = carry
    while r < n:
        if ext_grid[r, 0] >= prev_end:
            # Independent run: this replica and every following ``ok``
            # replica start their rows idle.
            nxt = indep_stop[np.searchsorted(indep_stop, r + 1) :]
            stop = int(nxt[0]) if nxt.size else n
            ends[r:stop] = independent[r:stop]
            prev_end = float(ends[stop - 1, k - 1])
            r = stop
        else:
            # Backlog: serve busy periods until one drains at a row
            # boundary, then let the independent regime take over.
            pos = r * k
            while True:
                pos = _busy_period(ext_flat, dur_flat, pos, prev_end, ends_flat)
                if pos == total:
                    r = n
                    break
                prev_end = float(ends_flat[pos - 1])
                if pos % k == 0:
                    r = pos // k
                    break
                # Genuine mid-row restart: the next busy period opens
                # idle at this very position.
    return ends


class _Declined(Exception):
    """Internal control flow: the batch's grant order is not provably
    the wave order — fall back to the event-driven replays."""


class _WaveGroup:
    """One wave group: adjacent template occupancies on one resource
    whose grants interleave replica-major (a single occupancy is the
    degenerate one-slot group).  Slots are either *external* (request
    times known before the group runs: a ready vector plus its source
    signature for tie checking) or *internal* (the replica re-requests
    the instant its previous slot in this group ends)."""

    __slots__ = ("resource", "occs", "durations", "ext", "sigs", "n")

    def __init__(self, resource: int, n: int) -> None:
        self.resource = resource
        self.occs: list[int] = []
        self.durations: list[float] = []
        #: Per slot: the external ready vector, or None for internal.
        self.ext: list[np.ndarray | None] = []
        #: Per slot: the ready-source signature, or None for internal.
        self.sigs: list[tuple | None] = []
        self.n = n

    def add(
        self,
        occ: int,
        duration: float,
        ready: np.ndarray | None,
        sig: tuple | None,
    ) -> None:
        self.occs.append(occ)
        self.durations.append(duration)
        self.ext.append(ready)
        self.sigs.append(sig)

    def compute(
        self, carry: float, seen: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Solve the group's FIFO schedule and verify the assumed grant
        order; raises :class:`_Declined` when the order is unprovable
        (once a group's request sequence inverts, appending further
        slots only pushes the offending request later, so failure is
        final — no larger fusion can repair it).  Returns the
        interleaved start/end sequences, the per-slot end matrix
        (replica-sorted rows) and the group's last request time."""
        n, k = self.n, len(self.occs)
        total = n * k
        ext_grid = np.full((n, k), _NEG_INF)
        for slot, ready in enumerate(self.ext):
            if ready is not None:
                ext_grid[:, slot] = ready
        ext_seq = ext_grid.reshape(total)
        ends = _service_grid(
            ext_grid, np.asarray(self.durations), carry
        ).reshape(total)
        previous = np.empty(total)
        previous[0] = carry if seen else _NEG_INF
        previous[1:] = ends[:-1]
        # Request times: external slots request at their ready time,
        # internal slots the instant their previous slot ends.
        internal_seq = np.tile(
            np.asarray([ready is None for ready in self.ext]), n
        )
        requests = np.where(internal_seq, previous, ext_seq)
        if total > 1:
            later, earlier = requests[1:], requests[:-1]
            if bool(np.any(later < earlier)):
                raise _Declined
            ties = later == earlier
            if bool(np.any(ties)):
                allowed = np.tile(self._tie_allowance(), n)[1:]
                if bool(np.any(ties & ~allowed)):
                    raise _Declined
        starts = np.maximum(requests, previous)
        return starts, ends, ends.reshape(n, k), float(requests[-1])

    def _tie_allowance(self) -> np.ndarray:
        """Per slot: may a same-instant request tie with the preceding
        position be reproduced without the engine's hop cascade?

        - slot 0 (the preceding position is another replica's last
          slot): only in a one-slot group whose single ready source
          wakes every replica through the identical cascade distance —
          source completions pop in grant order, so the wakes enqueue
          in replica order;
        - later slots (same replica): only when both slots are
          external with the *same* source signature — one completion
          wakes both watchers, and the engine walks watchers in
          template stage order, which is this group's slot order.
        """
        k = len(self.occs)
        allowance = np.zeros(k, dtype=bool)
        allowance[0] = (
            k == 1 and self.sigs[0] is not None and len(self.sigs[0]) == 1
        )
        for slot in range(1, k):
            allowance[slot] = (
                self.ext[slot] is not None
                and self.ext[slot - 1] is not None
                and self.sigs[slot] == self.sigs[slot - 1]
            )
        return allowance


def replay_vector_batch(
    program: "tuple",
    arrivals: "list[float]",
    n_resources: int,
) -> tuple[list[float], float, list[list[tuple[float, float]]]] | None:
    """Wave-replay a batch of identical replicas of one DAG program.

    ``program`` is the coalesced template in
    :func:`repro.hw.engine.replay_dag_batch`'s per-job form —
    ``(stage_tasks, stage_preds)`` with stages in topological order,
    every duration positive — shared by *all* ``len(arrivals)``
    replicas; ``arrivals[j]`` is replica ``j``'s release time.
    Returns the same ``(completions, makespan, occupancy)`` triple as
    the event-driven replays, bit-identical to the generator engine,
    or ``None`` to decline a batch whose grant order is not provably
    the wave order (see the module docstring) — a declined call has no
    side effects.
    """
    stage_tasks, stage_preds = program
    n = len(arrivals)
    if n < 1:
        raise SimulationError("vector replay needs at least one replica")
    arrival_array = np.asarray(arrivals, dtype=np.float64)
    # The engine releases same-time arrivals in submission order: a
    # stable argsort on the arrival key is exactly (arrival, j) order.
    order = np.argsort(arrival_array, kind="stable")
    sorted_arrivals = arrival_array[order]

    # Flatten the template into the stage-occupancy axis.
    occ_resource: list[int] = []
    occ_duration: list[float] = []
    first_occ: list[int] = []  # per stage: its first occupancy index
    last_occ: list[int] = []  # per stage: its last occupancy index
    for tasks in stage_tasks:
        first_occ.append(len(occ_resource))
        for resource, duration in tasks:
            occ_resource.append(resource)
            occ_duration.append(duration)
        last_occ.append(len(occ_resource) - 1)
    occ_stage_first = {first_occ[s]: s for s in range(len(stage_tasks))}
    n_occs = len(occ_resource)

    has_successor = [False] * len(stage_tasks)
    for preds in stage_preds:
        for p in preds:
            has_successor[p] = True

    ends: list[np.ndarray | None] = [None] * n_occs
    carry = [_NEG_INF] * n_resources
    seen = [False] * n_resources
    last_request = [0.0] * n_resources
    occupancy: list[list[tuple[float, float]]] = [
        [] for _ in range(n_resources)
    ]

    def sources_of(occ: int) -> tuple[tuple, list[int] | None]:
        """The occupancy's ready sources: its tie signature plus the
        source occupancy indices (None for entry stages, which ready
        at the sorted arrivals)."""
        stage = occ_stage_first.get(occ)
        if stage is None:  # mid-stage: chained off the previous task
            return (occ - 1,), [occ - 1]
        preds = stage_preds[stage]
        if not preds:
            return _ARRIVAL_SOURCE, None
        source = tuple(last_occ[p] for p in preds)
        return source, list(source)

    def commit(closing: _WaveGroup, computed: tuple) -> None:
        """Finalize a verified group: file its grant-order intervals
        and per-occupancy end vectors, advance the resource state."""
        resource = closing.resource
        starts, seq_ends, end_matrix, last_req = computed
        occupancy[resource].extend(zip(starts.tolist(), seq_ends.tolist()))
        for slot, occ in enumerate(closing.occs):
            ends[occ] = end_matrix[:, slot]
        carry[resource] = float(seq_ends[-1])
        last_request[resource] = last_req
        seen[resource] = True

    group: _WaveGroup | None = None
    try:
        for occ in range(n_occs):
            resource = occ_resource[occ]
            duration = occ_duration[occ]
            sig, source_occs = sources_of(occ)
            if group is not None and group.resource != resource:
                # Run boundary: adjacent fusion is no longer possible.
                commit(group, group.compute(carry[group.resource],
                                            seen[group.resource]))
                group = None
            if group is None:
                # Sources are all in committed groups (an occupancy's
                # sources precede it, and a run boundary just closed
                # anything open).
                if source_occs is None:
                    ready = sorted_arrivals
                else:
                    ready = ends[source_occs[0]]
                    for source in source_occs[1:]:
                        ready = np.maximum(ready, ends[source])
                if seen[resource] and not (
                    last_request[resource] < float(ready[0])
                ):
                    # Overtakes a non-adjacent earlier wave on this
                    # resource: the FIFO order is not a wave order.
                    raise _Declined
                group = _WaveGroup(resource, n)
                group.add(occ, duration, ready, sig)
                continue
            # Same resource as the open group: solve the group as it
            # stands (failure is final — see compute) and test whether
            # this occupancy's requests all come strictly after it.
            computed = group.compute(carry[resource], seen[resource])
            end_matrix = computed[2]
            slot_of = {o: s for s, o in enumerate(group.occs)}
            if source_occs is None:
                ready = sorted_arrivals
            else:
                vectors = [
                    end_matrix[:, slot_of[s]] if s in slot_of else ends[s]
                    for s in source_occs
                ]
                ready = vectors[0]
                for vector in vectors[1:]:
                    ready = np.maximum(ready, vector)
            if computed[3] < float(ready[0]):
                # Strict separation: the group is a complete wave.
                commit(group, computed)
                group = _WaveGroup(resource, n)
                group.add(occ, duration, ready, sig)
                continue
            # Fuse: the replicas' requests interleave with the open
            # group's.  An in-group source is expressible only as the
            # group's last slot (the replica re-requests the instant
            # that slot ends — the scan's lookback-one case); fan-in
            # on an in-group sibling or a deeper in-group source would
            # need general lookback and falls back to the engine.
            in_group = source_occs is not None and any(
                s in slot_of for s in source_occs
            )
            if in_group:
                if len(source_occs) != 1 or source_occs[0] != group.occs[-1]:
                    raise _Declined
                group.add(occ, duration, None, None)
            else:
                group.add(occ, duration, ready, sig)
    except _Declined:
        return None
    try:
        if group is not None:
            commit(group, group.compute(carry[group.resource],
                                        seen[group.resource]))
    except _Declined:
        return None

    finish = None
    for s in range(len(stage_tasks)):
        if has_successor[s]:
            continue
        stage_end = ends[last_occ[s]]
        finish = (
            stage_end if finish is None else np.maximum(finish, stage_end)
        )
    assert finish is not None  # a DAG has at least one exit stage
    completions = np.empty(n)
    completions[order] = finish
    makespan = float(np.max(finish))
    return completions.tolist(), makespan, occupancy
