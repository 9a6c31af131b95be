"""Fleet-scale serving: a multi-process worker pool with deterministic
backlog-aware routing and shared warm cache snapshots.

- :mod:`repro.fleet.router` — pure virtual-time job→replica assignment
  (join-shortest-predicted-backlog over the admission controller's
  serialized-lane model);
- :mod:`repro.fleet.pool` — ``WorkerPool``: spawn-safe worker
  processes, the shared-snapshot warm-start/merge-back lifecycle;
- :mod:`repro.fleet.result` — ``FleetResult``/``ReplicaSummary``
  aggregation (fleet throughput, p50/p99, queueing delay, utilization,
  imbalance) and ``check_fleet_invariants``.
"""

from repro.fleet.pool import WorkerPool
from repro.fleet.result import FleetResult, ReplicaSummary, check_fleet_invariants
from repro.fleet.router import RoutingPlan, route_jobs

__all__ = [
    "FleetResult",
    "ReplicaSummary",
    "RoutingPlan",
    "WorkerPool",
    "check_fleet_invariants",
    "route_jobs",
]
