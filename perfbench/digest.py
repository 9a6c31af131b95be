"""Exact digests and invariant checks of the simulator's virtual-time outputs.

Every number a call produces in virtual time -- completion times,
placements, lane occupancy, admission decisions, retry attempts and the
fleet routing plan -- must be bit-identical whatever the host, the
simulation backend or a speed-up does.  A digest folds them into one
SHA-256: floats go in as their exact IEEE-754 bytes (or ``repr``, which
round-trips exactly), so a one-ulp move changes the digest.  Host-side
facts -- which backend ran a shard, wall seconds -- stay out, so forcing
a different backend leaves the digest unchanged.
"""

from __future__ import annotations

import hashlib
from array import array
from itertools import chain


class Digest:
    """A SHA-256 over a typed, length-prefixed stream of values."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def _section(self, tag: str, payload: bytes) -> None:
        self._hash.update(tag.encode())
        self._hash.update(len(payload).to_bytes(8, "little"))
        self._hash.update(payload)

    def floats(self, tag: str, values) -> None:
        self._section(tag, array("d", values).tobytes())

    def ints(self, tag: str, values) -> None:
        self._section(tag, array("q", values).tobytes())

    def records(self, tag: str, records) -> None:
        """Tuples of plain values (floats, ints, strings, ``None``),
        folded through ``repr`` -- exact for floats."""
        self._section(tag, "\n".join(map(repr, records)).encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _placements(d: Digest, schedules) -> None:
    """Per-job stage placements: one code per job into a table of the
    distinct assignments, in first-appearance order (duplicate jobs share
    one schedule object, so the table stays as small as the signature
    set)."""
    codes: dict[int, int] = {}
    table: dict[str, int] = {}
    per_job = []
    for schedule in schedules:
        code = codes.get(id(schedule))
        if code is None:
            text = ";".join(
                f"{stage}={placement.value}"
                for stage, placement in sorted(schedule.assignments.items())
            )
            code = codes[id(schedule)] = table.setdefault(text, len(table))
        per_job.append(code)
    d.records("placement-table", [(text,) for text in table])
    d.ints("placements", per_job)


def _lanes(d: Digest, tag: str, lane_occupancy) -> None:
    for lane in sorted(lane_occupancy):
        d.floats(f"{tag}:{lane}", chain.from_iterable(lane_occupancy[lane]))


def add_batch(d: Digest, result) -> None:
    """Fold one :class:`~repro.core.framework.NdftBatchResult`."""
    d.floats("completions", (job.report.total_time for job in result.jobs))
    d.floats("makespan", (result.makespan,))
    _placements(d, (job.schedule for job in result.jobs))
    _lanes(d, "lane", result.batch_report.lane_occupancy)
    if result.admission is not None:
        d.records(
            "admission",
            (
                (
                    decision.index,
                    decision.label,
                    decision.arrival,
                    decision.predicted_latency,
                    decision.admitted,
                    decision.deferred,
                    decision.release,
                    decision.reason,
                )
                for decision in result.admission.decisions
            ),
        )
    if result.resilience is not None:
        d.records(
            "attempts",
            (
                (
                    record.job_index,
                    record.attempt,
                    record.release,
                    record.completed,
                    record.failure_time,
                    record.failure_lane,
                    record.failure_kind,
                    record.degraded,
                    record.frontier,
                    record.work_saved,
                )
                for record in result.resilience.attempts
            ),
        )
        d.ints("abandoned", result.resilience.abandoned_jobs)


def add_fleet(d: Digest, fleet) -> None:
    """Fold one :class:`~repro.fleet.result.FleetResult`."""
    plan = fleet.plan
    d.ints("routing", plan.assignments)
    d.floats("routing-predicted", plan.predicted_completions)
    d.floats("routing-backlogs", plan.predicted_backlogs)
    for replica in fleet.replicas:
        tag = f"replica{replica.replica}"
        d.ints(f"{tag}:jobs", replica.job_indices)
        d.floats(f"{tag}:completions", replica.completion_times)
        d.floats(f"{tag}:spans", (replica.makespan, replica.busy_span))
        d.records(
            f"{tag}:lane-busy",
            sorted(replica.lane_busy_seconds.items()),
        )


def _latency_and_utilization(latencies, utilization, problems: list) -> None:
    negative = sum(1 for latency in latencies if not latency >= 0.0)
    if negative:
        problems.append(f"{negative} completion latencies are negative")
    for lane, value in sorted(utilization.items()):
        if not 0.0 <= value <= 1.0:
            problems.append(f"lane {lane} utilization {value!r} outside [0, 1]")


def check_batch(result, submitted: int) -> list[str]:
    """The invariants that hold for a served batch today; returns the
    violations (empty when the batch is sound).  Queueing delay >= 0 is
    deliberately absent: ``latency - solo`` cancels to about -1e-13 on
    open queues."""
    problems: list[str] = []
    _latency_and_utilization(
        result.completion_latencies, result.lane_utilization, problems
    )
    admission, resilience = result.admission, result.resilience
    executed = submitted
    if admission is not None:
        if admission.n_submitted != submitted:
            problems.append(
                f"admission saw {admission.n_submitted} of {submitted} jobs"
            )
        if admission.admitted + admission.shed != admission.n_submitted:
            problems.append(
                f"submitted {admission.n_submitted} != admitted "
                f"{admission.admitted} + shed {admission.shed}"
            )
        executed = admission.admitted + admission.deferred
    if resilience is not None:
        if resilience.completed + resilience.abandoned != executed:
            problems.append(
                f"completed {resilience.completed} + abandoned "
                f"{resilience.abandoned} != submitted {executed}"
            )
        executed = resilience.completed
    if result.n_jobs != executed:
        problems.append(f"{result.n_jobs} job results, expected {executed}")
    return problems


def check_fleet(fleet, submitted: int) -> list[str]:
    """Fleet counterpart of :func:`check_batch`."""
    problems: list[str] = []
    _latency_and_utilization(
        fleet.completion_latencies, fleet.lane_utilization, problems
    )
    routed = sum(fleet.plan.replica_job_counts)
    served = sum(len(replica.completion_times) for replica in fleet.replicas)
    if not routed == served == submitted:
        problems.append(
            f"submitted {submitted}, routed {routed}, completed {served}"
        )
    return problems
