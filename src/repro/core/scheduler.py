"""Cost-aware workload partitioning and scheduling (paper §IV-A).

Given a stage DAG, a registry of execution targets and the offload cost
model, the scheduler picks a placement per *function* (the paper's chosen
granularity) minimizing

    sum of stage execution times  +  Eq. 1 scheduling overhead,

where the overhead is charged for every data edge whose endpoints run on
different targets.  The search is an exact dynamic program over the
topological order (:meth:`CostAwareScheduler._dag_optimal`): the DP state
is the placement of the stages still "live" (those with unprocessed
successors), so a chain costs O(stages x targets^2), a diamond
O(stages x targets^3), and the result provably matches exhaustive
enumeration — which is retained as :meth:`_exhaustive_best`, the oracle
the tests cross-check against on small graphs.  Every placement runs the
DP cold: on the paper's two-target system it is so small (12 states for
the chain) that a branch-and-bound incumbent seeded from a neighbouring
size's placement costs more to find and evaluate than it prunes.

Targets are pluggable: the registry starts with the paper's two sides
(``Placement.CPU`` — the host, ``Placement.NDP`` — the near-data system)
and admits further machines via :meth:`CostAwareScheduler.register_target`
— the discrete GPU (:class:`repro.hw.gpu.GpuModel`) being the first-class
third target.  Any object with ``execute(workload) -> PhaseTime``
qualifies.

Alternative policies reproduce the paper's comparisons:

- ``ALL_CPU`` / ``ALL_NDP``: homogeneous placements;
- ``NAIVE``: per-stage greedy on raw kernel time over every registered
  target, ignoring DT/CXT — what a boundedness-only offloader (no cost
  model) would do.

The granularity ablation (§IV-A1) lives in
:func:`granularity_overheads`: finer granularities multiply boundary
crossings; coarser ones forfeit heterogeneity.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import Protocol

from repro.core.cost_model import OffloadCostModel
from repro.core.pipeline import Pipeline
from repro.errors import SchedulingError
from repro.hw.cpu import CpuModel
from repro.hw.ndp import NdpSystemModel
from repro.hw.timing import PhaseTime
from repro.model import KernelWorkload


class Placement(str, enum.Enum):
    """A named execution target slot in the scheduler's registry."""

    CPU = "cpu"
    NDP = "ndp"
    GPU = "gpu"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ExecutionTarget(Protocol):
    """What the scheduler needs from a machine model."""

    def execute(self, workload: KernelWorkload) -> PhaseTime:  # pragma: no cover
        ...


class SchedulingPolicy(enum.Enum):
    COST_AWARE = "cost_aware"
    NAIVE = "naive"
    ALL_CPU = "all_cpu"
    ALL_NDP = "all_ndp"


@dataclass(frozen=True)
class Schedule:
    """A complete placement decision with its predicted cost.

    ``predicted_total`` is the *work-conserving* prediction: the sum of
    every stage's execution time plus the Eq. 1 overhead.  On a chain it
    equals the executor's makespan; on a branching DAG the DES executor
    can beat it by overlapping independent branches on distinct devices
    (:class:`repro.core.executor.ExecutionReport.total_time` is the
    makespan ground truth).
    """

    policy: SchedulingPolicy
    assignments: dict[str, Placement]
    stage_times: dict[str, PhaseTime]
    crossing_bytes: tuple[float, ...]
    scheduling_overhead: float
    predicted_total: float
    #: The (src, dst) placements of each crossing edge, aligned with
    #: ``crossing_bytes`` — decides which physical link each boundary pays.
    crossing_pairs: tuple[tuple[Placement, Placement], ...] = ()

    @property
    def n_boundaries(self) -> int:
        return len(self.crossing_bytes)

    @property
    def placements_used(self) -> frozenset[Placement]:
        return frozenset(self.assignments.values())

    @property
    def overhead_fraction(self) -> float:
        """Scheduling overhead as a fraction of predicted runtime — the
        §VI-A metric (3.8 % small / 4.9 % large)."""
        if self.predicted_total == 0:
            return 0.0
        return self.scheduling_overhead / self.predicted_total


@dataclass
class CostAwareScheduler:
    """Places pipeline stages onto the registered execution targets."""

    host: CpuModel
    ndp: NdpSystemModel
    cost_model: OffloadCostModel
    gpu: ExecutionTarget | None = None
    _targets: dict[Placement, ExecutionTarget] = field(
        init=False, repr=False, default_factory=dict
    )
    _time_cache: dict = field(default_factory=dict, repr=False)
    #: Bumped on every ``register_target`` call; stands in for the machine
    #: objects in :func:`repro.core.signature.target_registry_fingerprint`
    #: so memoized schedules never outlive a registry change.
    registry_version: int = field(init=False, default=0, repr=False)

    def __post_init__(self) -> None:
        self._targets = {Placement.CPU: self.host, Placement.NDP: self.ndp}
        if self.gpu is not None:
            self._targets[Placement.GPU] = self.gpu

    # ------------------------------------------------------------------
    # Target registry
    # ------------------------------------------------------------------
    @property
    def targets(self) -> tuple[Placement, ...]:
        """Registered targets, in registration order."""
        return tuple(self._targets)

    def target_machine(self, placement: Placement) -> ExecutionTarget:
        try:
            return self._targets[placement]
        except KeyError:
            raise SchedulingError(
                f"no machine registered for target {placement!r}"
            ) from None

    def register_target(
        self, placement: Placement, machine: ExecutionTarget
    ) -> None:
        """Add (or replace) an execution target.  Cached stage times for
        the slot are dropped so a swapped machine re-times cleanly, and
        the registry version is bumped so signature-keyed caches above
        this layer invalidate too."""
        self._targets[placement] = machine
        self.registry_version += 1
        self._time_cache = {
            key: value
            for key, value in self._time_cache.items()
            if key[1] is not placement
        }

    # ------------------------------------------------------------------
    # Stage timing on each target
    # ------------------------------------------------------------------
    def stage_time(self, pipeline: Pipeline, name: str, placement: Placement) -> PhaseTime:
        # Keyed by the (hashable, frozen) workload itself: identical
        # workloads share entries across pipelines, and holding the
        # reference prevents the id-reuse aliasing a raw id() key would
        # suffer.
        workload = pipeline.stage(name).workload
        key = (workload, placement)
        if key not in self._time_cache:
            self._time_cache[key] = self.target_machine(placement).execute(workload)
        return self._time_cache[key]

    # ------------------------------------------------------------------
    # Assignment evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self, pipeline: Pipeline, assignments: dict[str, Placement]
    ) -> Schedule:
        """Predict total runtime + Eq. 1 overhead for one assignment."""
        missing = set(pipeline.stage_names) - set(assignments)
        if missing:
            raise SchedulingError(f"assignment missing stages: {sorted(missing)}")
        stage_times = {
            name: self.stage_time(pipeline, name, assignments[name])
            for name in pipeline.stage_names
        }
        crossing_edges = [
            edge
            for edge in pipeline.edges
            if assignments[edge.src] is not assignments[edge.dst]
        ]
        crossing = tuple(edge.nbytes for edge in crossing_edges)
        pairs = tuple(
            (assignments[edge.src], assignments[edge.dst])
            for edge in crossing_edges
        )
        overhead = sum(
            self.cost_model.boundary_cost(nbytes, pair)
            for nbytes, pair in zip(crossing, pairs)
        )
        total = sum(t.total for t in stage_times.values()) + overhead
        return Schedule(
            policy=SchedulingPolicy.COST_AWARE,
            assignments=dict(assignments),
            stage_times=stage_times,
            crossing_bytes=crossing,
            scheduling_overhead=overhead,
            predicted_total=total,
            crossing_pairs=pairs,
        )

    # ------------------------------------------------------------------
    # Policies
    # ------------------------------------------------------------------
    def schedule(
        self,
        pipeline: Pipeline,
        policy: SchedulingPolicy = SchedulingPolicy.COST_AWARE,
        exclude: frozenset[Placement] | None = None,
    ) -> Schedule:
        """Place ``pipeline`` under ``policy``.

        ``exclude`` removes targets from consideration without touching
        the registry — the degraded-placement path after a permanent
        lane failure (:mod:`repro.core.faults`): the DP re-solves
        *exactly* over the surviving targets (e.g. NDP dead ⇒ the best
        CPU/GPU placement).  Fixed policies whose target is excluded
        raise :class:`SchedulingError`, as does excluding everything.
        """
        excluded = frozenset(exclude) if exclude else frozenset()
        targets = tuple(t for t in self.targets if t not in excluded)
        if not targets:
            raise SchedulingError(
                "every registered target is excluded; nothing can host "
                "the pipeline"
            )
        if policy is SchedulingPolicy.ALL_CPU:
            if Placement.CPU in excluded:
                raise SchedulingError(
                    "policy ALL_CPU cannot run with target 'cpu' excluded"
                )
            assignment = {n: Placement.CPU for n in pipeline.stage_names}
            result = self.evaluate(pipeline, assignment)
        elif policy is SchedulingPolicy.ALL_NDP:
            if Placement.NDP in excluded:
                raise SchedulingError(
                    "policy ALL_NDP cannot run with target 'ndp' excluded"
                )
            assignment = {n: Placement.NDP for n in pipeline.stage_names}
            result = self.evaluate(pipeline, assignment)
        elif policy is SchedulingPolicy.NAIVE:
            assignment = {
                name: min(
                    targets,
                    key=lambda t: self.stage_time(pipeline, name, t).total,
                )
                for name in pipeline.stage_names
            }
            result = self.evaluate(pipeline, assignment)
        elif policy is SchedulingPolicy.COST_AWARE:
            result = self._dag_optimal(pipeline, targets)
        else:  # pragma: no cover - exhaustive enum
            raise SchedulingError(f"unknown policy {policy}")
        return replace(result, policy=policy)

    def _dag_optimal(
        self,
        pipeline: Pipeline,
        targets: tuple[Placement, ...] | None = None,
    ) -> Schedule:
        """Exact topological-order DP over placements.

        Walk the stages in topological order; the DP state after step i is
        the placement tuple of the *live* stages — those whose successors
        are not all processed yet — because only they can still influence
        future edge-crossing costs.  Dead stages are projected out, which
        is what keeps the state space at targets^(frontier width) instead
        of targets^stages: the 6-stage chain explores 12 states total
        where the old exhaustive search enumerated 64 assignments.
        """
        if targets is None:
            targets = self.targets
        order = pipeline.topological_order
        position = {name: i for i, name in enumerate(order)}
        last_use = {
            name: max(
                (position[s] for s in pipeline.successors(name)),
                default=position[name],
            )
            for name in order
        }

        # state: tuple of (live stage, placement) pairs, sorted by name
        #   -> (accumulated cost, assignments so far)
        states: dict[tuple, tuple[float, dict[str, Placement]]] = {
            (): (0.0, {})
        }
        for i, name in enumerate(order):
            in_edges = pipeline.in_edges(name)
            time_on = {
                t: self.stage_time(pipeline, name, t).total for t in targets
            }
            new_states: dict[tuple, tuple[float, dict[str, Placement]]] = {}
            for live, (cost, assignments) in states.items():
                live_map = dict(live)
                for target in targets:
                    candidate = cost + time_on[target]
                    for edge in in_edges:
                        if live_map[edge.src] is not target:
                            candidate += self.cost_model.boundary_cost(
                                edge.nbytes, (live_map[edge.src], target)
                            )
                    next_live = {
                        k: v for k, v in live_map.items() if last_use[k] > i
                    }
                    if last_use[name] > i:
                        next_live[name] = target
                    key = tuple(sorted(next_live.items()))
                    incumbent = new_states.get(key)
                    if incumbent is None or candidate < incumbent[0]:
                        new_states[key] = (
                            candidate,
                            {**assignments, name: target},
                        )
            states = new_states
        _cost, best = min(states.values(), key=lambda entry: entry[0])
        return self.evaluate(pipeline, best)

    def _exhaustive_best(self, pipeline: Pipeline) -> Schedule:
        """Brute-force enumeration over targets^stages — kept as the
        oracle the DP is validated against on small graphs (<= 8 stages
        stays comfortably enumerable)."""
        names = pipeline.stage_names
        best: Schedule | None = None
        for choices in itertools.product(self.targets, repeat=len(names)):
            candidate = self.evaluate(pipeline, dict(zip(names, choices)))
            if best is None or candidate.predicted_total < best.predicted_total:
                best = candidate
        assert best is not None
        return best


# ---------------------------------------------------------------------------
# Offload-granularity study (§IV-A1)
# ---------------------------------------------------------------------------

#: Relative number of potential placement boundaries per pipeline stage at
#: each granularity.  Instruction-level offloading re-crosses the boundary
#: roughly once per dependent instruction window; basic blocks amortize
#: tens of instructions; functions cross at most once per stage edge;
#: kernel-level (whole pipeline) never crosses.
GRANULARITY_CROSSINGS_PER_STAGE = {
    "instruction": 512,
    "basic_block": 32,
    "function": 1,
    "kernel": 0,
}


def best_homogeneous_schedule(
    pipeline: Pipeline, scheduler: CostAwareScheduler
) -> Schedule:
    """The cheapest single-target placement over the registered targets —
    the schedule whole-kernel offloading is charged as (one boundary-free
    region must live entirely on one machine)."""
    candidates = [
        scheduler.evaluate(
            pipeline, {name: target for name in pipeline.stage_names}
        )
        for target in scheduler.targets
    ]
    return min(candidates, key=lambda schedule: schedule.predicted_total)


def granularity_overheads(
    pipeline: Pipeline,
    scheduler: CostAwareScheduler,
) -> dict[str, float]:
    """Eq. 1 overhead each offload granularity would pay.

    Instruction/block/function granularities pay for the placement the
    cost-aware scheduler chose: finer granularities split each crossing
    edge's payload across many boundary crossings — the DT total stays
    (same bytes overall) but each crossing re-pays latency + CXT, which
    is what makes instruction- and block-level offloading unattractive
    (paper observation 1 in §IV-A1).

    Kernel granularity cannot cross at all, so it forfeits heterogeneity:
    it is charged as the best *homogeneous* schedule
    (:func:`best_homogeneous_schedule`), whose Eq. 1 overhead is zero by
    construction — no edge crosses a placement boundary.  Its runtime
    penalty shows up in ``predicted_total``, not here.
    """
    base = scheduler.schedule(pipeline, SchedulingPolicy.COST_AWARE)
    results: dict[str, float] = {}
    for granularity, crossings in GRANULARITY_CROSSINGS_PER_STAGE.items():
        if crossings == 0:
            homogeneous = best_homogeneous_schedule(pipeline, scheduler)
            results[granularity] = homogeneous.scheduling_overhead
            continue
        overhead = 0.0
        for nbytes, pair in zip(base.crossing_bytes, base.crossing_pairs):
            per_crossing = nbytes / crossings
            overhead += crossings * scheduler.cost_model.boundary_cost(
                per_crossing, pair
            )
        results[granularity] = overhead
    return results
