"""A multi-process fleet of replica frameworks behind one router.

``WorkerPool`` is the scale-out answer to the single-process ceiling:
N worker processes (``multiprocessing`` spawn context — no inherited
state, every worker importable-from-scratch), each holding a replica
:class:`~repro.core.framework.NdftFramework` over the same
:class:`~repro.hw.config.SystemConfig`, fed from one arrival stream by
the deterministic backlog-aware router (:mod:`repro.fleet.router`).

The shared-snapshot lifecycle per ``serve`` call:

1. the parent derives every distinct job's schedule/solo estimate once
   (it needs them to route anyway) and writes **one** cache snapshot
   (:meth:`~repro.core.framework.NdftFramework.save_caches`);
2. every worker builds its replica framework, loads that snapshot under
   the usual fingerprint-refusal rules — workers start *warm*, paying
   none of the derivation cost — simulates its routed jobs, and writes
   its own learned snapshot;
3. the parent **merges back**
   (:meth:`~repro.core.framework.NdftFramework.merge_caches`): records
   it lacks, and SCA verdicts or solo reports its records lack, are
   unioned in, so the fleet warms monotonically across runs; with
   ``snapshot_path=`` the merged state also persists across pool
   lifetimes.

Determinism contract: the routing plan and every virtual-time number in
the returned :class:`~repro.fleet.result.FleetResult` are computed from
(arrivals, memoized solo estimates, lane names) alone — worker processes
only *execute* the plan, so OS scheduling can change wall seconds but
never results.  Per-job completion times are bit-identical to a
single-process run of the same assignment (``inline=True`` runs the
identical worker code in-process for exactly that comparison).
"""

from __future__ import annotations

import multiprocessing
import numbers
import tempfile
import time
from pathlib import Path
from typing import Sequence

from repro.core.arrivals import validate_arrivals
from repro.core.framework import NdftFramework
from repro.core.scheduler import SchedulingPolicy
from repro.errors import ConfigError
from repro.fleet.result import FleetResult, ReplicaSummary
from repro.fleet.router import RoutingPlan, route_jobs
from repro.hw.config import SystemConfig

#: Workers start from a fresh interpreter (no inherited parent state),
#: which is what keeps :func:`_serve_replica`'s plain-data contract honest.
_START_METHOD = "spawn"


def _serve_replica(payload: dict) -> dict:
    """One worker's whole serve step: build the replica framework, load
    the shared snapshot (same fingerprint-refusal rules as any load),
    simulate the routed jobs ``rounds`` times, persist what it learned.
    It returns the replica's :class:`ReplicaSummary` fields but
    ``job_indices``, which the parent routed, under the same names.

    Top-level function, plain-data payload, plain-data return — the
    spawn-context contract.  Also called in-process by ``inline`` pools:
    the worker path and the bit-identity reference are the same code.
    """
    framework = NdftFramework(
        system=payload["system"],
        policy=payload["policy"],
        enable_gpu=payload["enable_gpu"],
        cache_size=payload["cache_size"],
    )
    framework.load_caches(payload["snapshot"])
    started = time.perf_counter()
    result = None
    for _ in range(payload["rounds"]):
        result = framework.run_many(
            payload["sizes"],
            arrivals=payload["arrivals"],
            backend=payload["backend"],
        )
    wall = time.perf_counter() - started
    framework.save_caches(payload["out_snapshot"])
    return {
        "replica": payload["replica"],
        "completion_times": result.batch_report.completion_times,
        "makespan": result.makespan,
        "busy_span": result.busy_span,
        "lane_busy_seconds": dict(result.lane_busy_seconds),
        "backend_jobs": dict(result.batch_report.backend_jobs),
        "wall_seconds": wall,
    }


class WorkerPool:
    """N replica frameworks served by worker processes (or inline).

    ``snapshot_path`` names a persistent shared snapshot: loaded into
    the parent at construction when it exists (fleet-mode fingerprint
    refusal happens right here — a snapshot from a different
    policy/system/registry raises :class:`~repro.errors.ConfigError`),
    re-written with the merged fleet state after every serve.  Without
    it the snapshot lives in a temporary directory for the pool's life.

    ``inline=True`` skips process creation and runs each worker payload
    sequentially in-process — same code, same results, no parallelism;
    the deterministic reference for tests and 1-core hosts.

    Use as a context manager (or call :meth:`close`): worker processes
    and the temporary snapshot directory persist across ``serve`` calls
    so repeated serving measures steady state, not process start-up.
    """

    def __init__(
        self,
        n_replicas: int,
        system: SystemConfig | None = None,
        policy: SchedulingPolicy = SchedulingPolicy.COST_AWARE,
        enable_gpu: bool = False,
        cache_size: int | None = NdftFramework.DEFAULT_CACHE_SIZE,
        snapshot_path: Path | str | None = None,
        inline: bool = False,
    ):
        if (
            isinstance(n_replicas, bool)
            or not isinstance(n_replicas, numbers.Integral)
            or n_replicas < 1
        ):
            raise ConfigError(
                "a worker pool needs an integer n_replicas >= 1, got "
                f"{n_replicas!r}"
            )
        self.n_replicas = n_replicas
        self.inline = inline
        self.snapshot_path = (
            None if snapshot_path is None else Path(snapshot_path)
        )
        #: The parent (router-side) replica: derives estimates, owns the
        #: shared snapshot, accumulates every worker's merge-back.
        self.framework = NdftFramework(
            system=system,
            policy=policy,
            enable_gpu=enable_gpu,
            cache_size=cache_size,
        )
        self._payload_template = {
            "system": self.framework.system,
            "policy": policy,
            "enable_gpu": enable_gpu,
            "cache_size": cache_size,
        }
        if self.snapshot_path is not None and self.snapshot_path.exists():
            self.framework.load_caches(self.snapshot_path)
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        self._pool = None

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Tear down worker processes and the temporary snapshot dir
        (a persistent ``snapshot_path`` keeps its merged state)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def _workdir(self) -> Path:
        if self._tmpdir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="ndft-fleet-")
        return Path(self._tmpdir.name)

    def _process_pool(self):
        if self._pool is None:
            context = multiprocessing.get_context(_START_METHOD)
            self._pool = context.Pool(processes=self.n_replicas)
        return self._pool

    # -- serving -------------------------------------------------------
    def serve(
        self,
        batch: Sequence[int],
        arrivals: Sequence[float] | None = None,
        backend: str | None = None,
        rounds: int = 1,
    ) -> FleetResult:
        """Route ``batch`` across the fleet and simulate it.

        ``batch`` entries are integer atom counts, NumPy integers
        included and ``bool`` not (the fleet routes by size; arbitrary
        pipeline objects do not cross a process boundary).
        ``arrivals`` turns the batch into an open queue exactly as in
        :meth:`~repro.core.framework.NdftFramework.run_many` — each
        worker receives the global release offsets of its jobs, so all
        replicas share one virtual timeline.  ``rounds`` (an integer
        >= 1) repeats the identical simulation per worker inside one
        measured wall (sustained-serving measurement; results are
        bit-identical across rounds).
        """
        if (
            isinstance(rounds, bool)
            or not isinstance(rounds, numbers.Integral)
            or rounds < 1
        ):
            raise ConfigError(f"rounds must be an integer >= 1, got {rounds!r}")
        rounds = int(rounds)
        sizes = []
        for entry in batch:
            # Exact ints skip the check: an isinstance test against the
            # numbers.Integral ABC is over ten times slower than a type
            # test, and this loop runs once per job.
            if type(entry) is not int:
                if isinstance(entry, bool) or not isinstance(entry, numbers.Integral):
                    raise ConfigError(
                        "fleet serving routes by problem size: batch entries "
                        f"must be int atom counts, got {entry!r}"
                    )
                entry = int(entry)
            sizes.append(entry)
        if not sizes:
            raise ConfigError("serve needs at least one job")
        if arrivals is not None:
            arrivals = tuple(validate_arrivals(arrivals, len(sizes)))
        started = time.perf_counter()
        solo_times, lanes = self.framework.job_estimates(sizes)
        plan = route_jobs(self.n_replicas, arrivals, solo_times, lanes)

        workdir = self._workdir()
        shared_snapshot = workdir / "fleet_shared.pkl"
        self.framework.save_caches(shared_snapshot)
        payloads = []
        for replica in range(self.n_replicas):
            indices = plan.jobs_for(replica)
            if not indices:
                continue
            payload = dict(self._payload_template)
            payload.update(
                replica=replica,
                sizes=[sizes[i] for i in indices],
                arrivals=(
                    None
                    if arrivals is None
                    else [arrivals[i] for i in indices]
                ),
                backend=backend,
                rounds=rounds,
                snapshot=str(shared_snapshot),
                out_snapshot=str(workdir / f"fleet_worker_{replica}.pkl"),
            )
            payloads.append(payload)

        if self.inline:
            raw = [_serve_replica(payload) for payload in payloads]
        else:
            raw = self._process_pool().map(_serve_replica, payloads)

        merged = 0
        for payload in payloads:
            merged += self.framework.merge_caches(payload["out_snapshot"])
        if self.snapshot_path is not None:
            self.framework.save_caches(self.snapshot_path)

        by_replica = {entry["replica"]: entry for entry in raw}
        summaries = tuple(
            ReplicaSummary(job_indices=plan.jobs_for(replica), **by_replica[replica])
            if replica in by_replica
            else ReplicaSummary(replica, (), (), 0.0, 0.0)
            for replica in range(self.n_replicas)
        )
        wall = time.perf_counter() - started
        return FleetResult(
            plan=plan,
            arrivals=arrivals,
            solo_times=solo_times,
            replicas=summaries,
            wall_seconds=wall,
            rounds=rounds,
            merged_entries=merged,
        )


__all__ = ["WorkerPool", "RoutingPlan", "route_jobs", "_serve_replica"]
