"""Deterministic backlog-aware routing for the fleet serving layer.

One arrival stream feeds N replica frameworks; something has to decide
which replica simulates which job, and that decision must be *pure
virtual-time arithmetic* — never a function of which worker process
happened to report first — or the fleet's results would depend on OS
scheduling.  :func:`route_jobs` therefore applies the same backlog model
as :func:`repro.core.arrivals.plan_admission` (a test pins the two to
the bit on one replica): each replica carries a per-lane drain clock, a
job's predicted start on a replica is ``max(arrival, that replica's
drain time over the job's lanes)``, its predicted completion adds the
memoized solo estimate, and the job goes to the replica with the
*shortest predicted completion* (join-shortest-predicted-backlog), ties
broken by replica index.  The model deliberately serializes shared
lanes — the same conservative choice the admission controller makes —
because an over-estimated backlog merely spreads load earlier, which is
the safe direction.

Same arrivals + same solo estimates ⇒ same :class:`RoutingPlan`, always:
the router runs entirely in the parent, before any worker exists.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigError


@dataclass(frozen=True)
class RoutingPlan:
    """The deterministic job→replica assignment for one served batch.

    ``assignments[i]`` is the replica index job ``i`` (submission order)
    was routed to; ``predicted_completions[i]`` is the backlog model's
    completion estimate for it on that replica — an *estimate* used only
    for routing, never reported as a result.  ``predicted_backlogs`` is
    each replica's final drain time (the max of its lane clocks), the
    quantity the router was balancing."""

    n_replicas: int
    assignments: tuple[int, ...]
    predicted_completions: tuple[float, ...]
    predicted_backlogs: tuple[float, ...]

    @property
    def n_jobs(self) -> int:
        return len(self.assignments)

    def jobs_for(self, replica: int) -> tuple[int, ...]:
        """Global submission indices routed to ``replica``, in
        submission order (the order the worker receives them)."""
        return tuple(
            i for i, r in enumerate(self.assignments) if r == replica
        )

    @property
    def replica_job_counts(self) -> tuple[int, ...]:
        """Jobs per replica — the router's load split at a glance."""
        counts = [0] * self.n_replicas
        for r in self.assignments:
            counts[r] += 1
        return tuple(counts)


def route_jobs(
    n_replicas: int,
    arrivals: Sequence[float] | None,
    solo_times: Sequence[float],
    lanes: Sequence[tuple],
) -> RoutingPlan:
    """Assign every job to the replica with the shortest predicted
    backlog (see the module docstring for the model).

    ``arrivals`` may be ``None`` for the closed batch — every job
    releases at t=0 and ties resolve by submission index, exactly like
    the simulator's release order.  ``solo_times`` and ``lanes`` are
    the per-job estimates from
    :meth:`repro.core.framework.NdftFramework.job_estimates`.
    """
    if (
        isinstance(n_replicas, bool)
        or not isinstance(n_replicas, numbers.Integral)
        or n_replicas < 1
    ):
        raise ConfigError(
            f"n_replicas must be an integer >= 1, got {n_replicas!r}"
        )
    n = len(solo_times)
    if arrivals is None:
        arrivals = [0.0] * n
    if not (len(arrivals) == len(lanes) == n):
        raise ConfigError(
            "arrivals, solo_times and lanes must align: got "
            f"{len(arrivals)}/{n}/{len(lanes)}"
        )
    lane_free: list[dict] = [{} for _ in range(n_replicas)]
    assignments: list[int] = [0] * n
    predicted: list[float] = [0.0] * n
    for i in sorted(range(n), key=lambda j: (arrivals[j], j)):
        arrival = float(arrivals[i])
        best_replica = 0
        best_completion = None
        for replica in range(n_replicas):
            start = arrival
            clocks = lane_free[replica]
            for lane in lanes[i]:
                free = clocks.get(lane)
                if free is not None and free > start:
                    start = free
            completion = start + solo_times[i]
            if best_completion is None or completion < best_completion:
                best_completion = completion
                best_replica = replica
        assignments[i] = best_replica
        predicted[i] = best_completion
        clocks = lane_free[best_replica]
        for lane in lanes[i]:
            clocks[lane] = best_completion
    backlogs = tuple(
        max(clocks.values()) if clocks else 0.0 for clocks in lane_free
    )
    return RoutingPlan(
        n_replicas=n_replicas,
        assignments=tuple(assignments),
        predicted_completions=tuple(predicted),
        predicted_backlogs=backlogs,
    )
