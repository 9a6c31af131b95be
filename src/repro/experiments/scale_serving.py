"""Scale-serving benchmark: wall-clock simulator throughput vs batch size.

The paper's framework is a per-run co-design pipeline; the serving
extension (:meth:`repro.core.framework.NdftFramework.run_many`) pushes
whole batches through one shared machine.  At serving scale the limiting
factor is no longer the modeled hardware but the simulator itself — how
many jobs per *wall-clock* second the scheduling + DES stack can turn
around.  This driver measures exactly that:

- sweep batch sizes (16 → 65536 by default, ``--batch-sizes`` to
  override) over a mixed job population (a handful of distinct Si_N
  sizes, round-robin);
- time ``run_many`` wall-clock with the serving fast path on (signature
  memoization + analytic solo runs) and, for comparison, with
  ``memoize=False`` — the "before" path that re-schedules, re-analyzes
  and re-solo-times every job (skipped above
  :data:`UNCACHED_COMPARE_MAX` jobs, where the baseline would dominate
  the sweep's wall clock);
- cross-check that both paths produce *identical* batch results (same
  makespan, same solo times, same per-job reports) — the fast path is an
  optimization, never an approximation;
- measure each point once more as an *open queue* (seeded Poisson
  arrivals at ``--arrival-rate`` jobs of virtual time per second) and
  record the p50/p99 completion latency and mean queueing delay — the
  serving-model metrics;
- record the per-point simulation-backend breakdown (who actually timed
  the batch — DAG replay, wave replay or the generator engine; see
  :mod:`repro.core.backends`) and the per-backend wall seconds
  (``backend_wall_seconds``), with ``--backend`` forcing one backend
  for every measurement (the replay-vs-engine A/B switch);
- optionally sweep offered load (``--arrival-sweep``): the same mix at
  each rate of a grid, recording the latency-vs-load curve, per-point
  per-lane utilization (which device or wire the load saturates), the
  shed rate under the requested admission policy (0.0 when admission is
  off), and the saturation knee with its dominant lane
  (:func:`run_arrival_sweep`);
- emit the measurements as ``BENCH_serving.json`` — tagged with host
  metadata (Python version, platform, CPU count) so CI trend
  comparisons (:mod:`repro.experiments.bench_compare`) are
  interpretable — to anchor the serving performance trajectory across
  PRs.

Every measurement uses a fresh framework (cold caches), so the reported
speedup is what one ``run_many`` call gains from intra-batch
deduplication alone; caches composing across calls only improve on it.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.core.arrivals import AdmissionPolicy, poisson_arrivals
from repro.core.faults import FaultPlan, RetryPolicy
from repro.core.framework import NdftBatchResult, NdftFramework, queueing_delays
from repro.fleet import FleetResult, WorkerPool

#: Default batch-size sweep (jobs per ``run_many`` call).  The top end
#: (65536) is two orders of magnitude past the pre-``vector_replay``
#: practical ceiling (~1k): the wave-replay backend keeps the closed
#: t=0 points tractable at fleet scale.
DEFAULT_BATCH_SIZES = (16, 64, 256, 1024, 4096, 16384, 65536)
#: Largest batch size whose memoization-free baseline is still measured
#: for the cached-vs-uncached comparison.  The uncached path
#: re-schedules and re-analyzes every job, so above this it would
#: dominate the whole sweep's wall clock; larger points report
#: ``wall_seconds_uncached``/``results_identical`` as ``None``.
UNCACHED_COMPARE_MAX = 4096
#: Default job-size mix: small interactive jobs alongside mid/large ones.
DEFAULT_MIX = (64, 128, 512, 1024)
#: Default offered load for the open-queue (arrival-process) point, in
#: jobs per second of *virtual* time — a bit over half the simulated
#: capacity of the default mix (~3.8 jobs/s), so queues form without
#: saturating.
DEFAULT_ARRIVAL_RATE = 2.0
#: Default offered-load grid for ``--arrival-sweep``: from comfortably
#: under the default mix's simulated capacity (~3.8 jobs/s) to past it,
#: so the latency-vs-load curve shows both the flat region and the
#: saturation blow-up.
DEFAULT_SWEEP_RATES = (1.0, 2.0, 3.0, 3.5, 4.0, 5.0)
#: Jobs per sweep point (one mid-sized batch keeps the sweep quick).
DEFAULT_SWEEP_BATCH = 256
#: A sweep point is past the saturation knee once its p99 latency
#: exceeds this multiple of the lowest-rate point's p99.
KNEE_LATENCY_FACTOR = 2.0
def _repo_root() -> Path:
    """The checkout root (where pyproject.toml lives) when running from
    a source tree; the current directory for installed copies, where
    ``__file__`` sits inside site-packages and walking up would land in
    the interpreter's installation."""
    for parent in Path(__file__).resolve().parents:
        if (parent / "pyproject.toml").exists():
            return parent
    return Path.cwd()


#: Default JSON artifact, at the repo root next to benchmarks_report.txt.
BENCH_JSON_PATH = _repo_root() / "BENCH_serving.json"


def job_mix(batch_size: int, mix: tuple[int, ...] = DEFAULT_MIX) -> list[int]:
    """The batch served at one sweep point: ``mix`` repeated round-robin."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return [mix[i % len(mix)] for i in range(batch_size)]


def host_metadata() -> dict:
    """Python/platform context recorded next to the wall-clock numbers,
    so CI trend comparisons can tell a real regression from a host or
    interpreter change."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def measure_run_many(
    sizes: list[int],
    memoize: bool,
    repeats: int = 3,
    arrivals: Sequence[float] | None = None,
    backend: str | None = None,
    admission: AdmissionPolicy | None = None,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
) -> tuple[float, NdftBatchResult]:
    """Best-of-``repeats`` wall-clock seconds for one cold ``run_many``.

    A fresh framework per repeat keeps every measurement cold-cache; the
    minimum over repeats is the standard noise filter for wall-clock
    micro-measurements.  ``arrivals`` forwards release offsets (the
    open-queue serving mode), ``backend`` forces one simulation backend
    (:mod:`repro.core.backends`) — the serve-bench A/B switch —
    ``admission`` applies an SLO-driven admission policy to the open
    queue, and ``faults``/``retry`` inject a deterministic fault plan
    (:mod:`repro.core.faults`)."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    best = float("inf")
    result: NdftBatchResult | None = None
    for _ in range(repeats):
        framework = NdftFramework(memoize=memoize)
        start = time.perf_counter()
        result = framework.run_many(
            sizes,
            arrivals=arrivals,
            backend=backend,
            admission=admission,
            faults=faults,
            retry=retry,
        )
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    assert result is not None
    return best, result


def dominant_lane(lane_utilization: dict) -> str | None:
    """The most-utilized device/wire lane — the saturation suspect.
    Ties break on the lane name so the verdict is deterministic;
    ``None`` for an empty (fully shed) measurement."""
    if not lane_utilization:
        return None
    return max(sorted(lane_utilization), key=lambda lane: lane_utilization[lane])


@dataclass(frozen=True)
class ArrivalPoint:
    """One open-queue measurement: the job mix released by a seeded
    Poisson process at ``rate`` instead of all at t=0 — a serve-bench
    point's companion run, or one offered-load point of the
    latency-vs-load sweep.

    ``lane_utilization`` is the per-device/per-wire busy fraction over
    the busy span, and :attr:`dominant_lane` says *where* the load
    goes; ``shed_rate``/``admitted``/``shed`` describe the admission
    outcome (rate 0.0 and a full batch when admission is off).  Latency
    percentiles are the SLO-counted (post-shed) ones when a policy ran:
    identical to the executed-batch percentiles in ``shed`` mode,
    excluding deferred jobs in ``deprioritize`` mode — a deferred job's
    latency is measured from its *deferred* release, so folding it into
    the tail would deflate the curve exactly where the backlog is
    worst."""

    rate: float
    wall_seconds: float
    makespan: float
    p50_latency: float
    p99_latency: float
    mean_queueing_delay: float
    lane_utilization: dict = None  # type: ignore[assignment]
    shed_rate: float = 0.0
    admitted: int | None = None
    shed: int = 0
    #: Resilience summary under fault injection (availability, goodput,
    #: recovered/abandoned, post-fault percentiles); ``None`` when no
    #: fault plan ran.
    resilience: dict | None = None
    #: The arrival process's seed.
    seed: int | None = None

    @classmethod
    def from_result(
        cls, rate: float, seed: int | None, wall: float, result: NdftBatchResult
    ) -> "ArrivalPoint":
        """The point one measured ``run_many`` result describes.  With
        admission off every submitted job counts as admitted — under
        faults too, where ``result.n_jobs`` counts only the completed
        jobs, so abandoned ones would otherwise vanish."""
        if result.admission is None:
            shed_rate, shed = 0.0, 0
            admitted = (
                result.n_jobs
                if result.resilience is None
                else result.resilience.submitted
            )
        else:
            report = result.admission
            shed_rate, admitted, shed = report.shed_rate, report.admitted, report.shed
        return cls(
            rate=rate,
            seed=seed,
            wall_seconds=wall,
            makespan=result.makespan,
            p50_latency=result.slo_p50_latency,
            p99_latency=result.slo_p99_latency,
            mean_queueing_delay=result.mean_queueing_delay,
            lane_utilization=dict(result.lane_utilization),
            shed_rate=shed_rate,
            admitted=admitted,
            shed=shed,
            resilience=(
                None
                if result.resilience is None
                else result.resilience.to_json_dict()
            ),
        )

    @property
    def dominant_lane(self) -> str | None:
        return dominant_lane(self.lane_utilization or {})

    def to_json_dict(self) -> dict:
        return {
            "rate_jobs_per_second": self.rate,
            "seed": self.seed,
            "wall_seconds": self.wall_seconds,
            "makespan_seconds": self.makespan,
            "p50_latency_seconds": self.p50_latency,
            "p99_latency_seconds": self.p99_latency,
            "mean_queueing_delay_seconds": self.mean_queueing_delay,
            "lane_utilization": self.lane_utilization,
            "dominant_lane": self.dominant_lane,
            "shed_rate": self.shed_rate,
            "admitted": self.admitted,
            "shed": self.shed,
            "resilience": self.resilience,
        }


@dataclass(frozen=True)
class FleetPoint:
    """The fleet (multi-process) breakdown of one sweep point.

    Wall numbers are *sustained-serving* measurements: each serve call
    repeats the identical simulation ``rounds`` times inside one
    measured wall on a warm pool, so process start-up and dispatch
    overhead amortize the way a long-running service amortizes them.
    ``replica_jobs``/``replica_utilization`` are the router's load split
    and each replica's share of the fleet busy span; virtual-time
    numbers are bit-identical to a single-process run of the same
    assignment."""

    replicas: int
    rounds: int
    wall_seconds: float
    jobs_per_second_wall: float
    virtual_throughput: float
    imbalance_ratio: float
    replica_jobs: tuple[int, ...]
    replica_utilization: tuple[float, ...]
    merged_entries: int

    def to_json_dict(self) -> dict:
        return {
            "replicas": self.replicas,
            "rounds": self.rounds,
            "wall_seconds": self.wall_seconds,
            "jobs_per_second_wall": self.jobs_per_second_wall,
            "virtual_throughput_jobs_per_second": self.virtual_throughput,
            "imbalance_ratio": self.imbalance_ratio,
            "replica_jobs": list(self.replica_jobs),
            "replica_utilization": list(self.replica_utilization),
            "merged_entries": self.merged_entries,
        }


@dataclass(frozen=True)
class ServePoint:
    """One sweep point: a batch of ``batch_size`` mixed-size jobs."""

    batch_size: int
    n_distinct: int
    wall_seconds_cached: float
    #: ``None`` when the uncached baseline was skipped (``--no-cache``
    #: runs only the baseline, cached-only sweeps skip the comparison).
    wall_seconds_uncached: float | None
    makespan: float
    simulated_throughput: float
    results_identical: bool | None
    #: Open-queue companion measurement (``None`` when disabled).
    arrival: ArrivalPoint | None = None
    #: Jobs per simulation backend in the reference run — the
    #: per-backend breakdown of who actually timed the batch.
    backend_jobs: dict | None = None
    #: Wall seconds per simulation backend in the reference run (see
    #: :attr:`repro.core.executor.BatchExecutionReport.backend_wall_seconds`)
    #: — where the simulator's own time went.
    backend_wall_seconds: dict | None = None
    #: Multi-process breakdown (``serve-bench --replicas N``); ``None``
    #: for single-process sweeps.
    fleet: FleetPoint | None = None

    @property
    def jobs_per_second_cached(self) -> float:
        return self.batch_size / self.wall_seconds_cached

    @property
    def jobs_per_second_uncached(self) -> float | None:
        if self.wall_seconds_uncached is None:
            return None
        return self.batch_size / self.wall_seconds_uncached

    @property
    def wall_speedup(self) -> float | None:
        """Fast-path gain: uncached wall time over cached wall time."""
        if self.wall_seconds_uncached is None:
            return None
        return self.wall_seconds_uncached / self.wall_seconds_cached


@dataclass(frozen=True)
class ArrivalSweep:
    """Latency vs offered load over a rate grid, plus the saturation
    knee: the lowest swept rate whose p99 latency exceeds
    :data:`KNEE_LATENCY_FACTOR` times the baseline p99 — the lowest
    swept rate with a *positive* p99, so a degenerate 0.0 baseline
    cannot declare every later point a knee (``None`` while every point
    stays under it).  ``knee_dominant_lane`` is the most-utilized lane
    at the knee point — which device or wire the knee comes from — and
    what the CI trend gate pins (a silently changed bottleneck class is
    a modeling regression even when the latencies still pass)."""

    batch_size: int
    seed: int
    points: tuple[ArrivalPoint, ...]
    knee_rate: float | None
    knee_dominant_lane: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "batch_size": self.batch_size,
            "seed": self.seed,
            "knee_latency_factor": KNEE_LATENCY_FACTOR,
            "knee_rate_jobs_per_second": self.knee_rate,
            "knee_dominant_lane": self.knee_dominant_lane,
            "points": [p.to_json_dict() for p in self.points],
        }


def find_saturation_knee(
    points: Sequence[ArrivalPoint],
    factor: float = KNEE_LATENCY_FACTOR,
) -> float | None:
    """The lowest swept rate whose p99 latency exceeds ``factor`` times
    the baseline p99 — the point the latency-vs-load curve turns the
    corner.  ``None`` when no point exceeds it (the sweep never reached
    saturation).

    The baseline is the lowest-rate point with a *positive* p99.  A
    0.0 baseline (a degenerate sweep where the lowest-rate batch saw no
    latency at all — single-job batches, or everything shed by an
    aggressive admission policy) used to make ``factor * baseline == 0``
    and every later point "knee"; such points now merely advance the
    baseline search, and a sweep whose every p99 is 0.0 has no knee."""
    if not points:
        return None
    ordered = sorted(points, key=lambda p: p.rate)
    baseline = next(
        (p.p99_latency for p in ordered if p.p99_latency > 0.0), None
    )
    if baseline is None:
        return None
    for point in ordered:
        if point.p99_latency > factor * baseline:
            return point.rate
    return None


def run_arrival_sweep(
    rates: Sequence[float] = DEFAULT_SWEEP_RATES,
    batch_size: int = DEFAULT_SWEEP_BATCH,
    mix: tuple[int, ...] = DEFAULT_MIX,
    repeats: int = 3,
    seed: int = 0,
    memoize: bool = True,
    backend: str | None = None,
    admission: AdmissionPolicy | None = None,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
) -> ArrivalSweep:
    """Sweep offered load over ``rates``: the same ``batch_size``-job mix
    released by a seeded Poisson process at each rate, recording the
    latency-vs-load curve (with per-lane utilization and, under
    ``admission``, the shed rate per point) and the saturation knee
    with its dominant lane.  ``faults``/``retry`` inject the same
    deterministic fault plan at every rate (availability and goodput
    land in each point's ``resilience`` record)."""
    if not rates:
        raise ValueError("arrival sweep needs at least one rate")
    if any(rate <= 0 for rate in rates):
        raise ValueError(f"arrival rates must be positive, got {rates!r}")
    sizes = job_mix(batch_size, mix)
    points = []
    for rate in sorted(rates):
        offsets = poisson_arrivals(len(sizes), rate, seed=seed)
        wall, result = measure_run_many(
            sizes,
            memoize=memoize,
            repeats=repeats,
            arrivals=offsets,
            backend=backend,
            admission=admission,
            faults=faults,
            retry=retry,
        )
        points.append(ArrivalPoint.from_result(rate, seed, wall, result))
    knee_rate = find_saturation_knee(points)
    knee_dominant = None
    if knee_rate is not None:
        knee_dominant = next(
            point.dominant_lane
            for point in points
            if point.rate == knee_rate
        )
    return ArrivalSweep(
        batch_size=batch_size,
        seed=seed,
        points=tuple(points),
        knee_rate=knee_rate,
        knee_dominant_lane=knee_dominant,
    )


@dataclass(frozen=True)
class ServeBenchReport:
    """The whole sweep, ready to print or serialize."""

    mix: tuple[int, ...]
    repeats: int
    points: tuple[ServePoint, ...]
    #: False for a ``--no-cache`` sweep: the "cached" columns then hold
    #: baseline numbers, and trend comparisons must not consume them.
    fast_path: bool = True
    #: Forced simulation backend (``None`` = registry auto-selection).
    backend: str | None = None
    #: Latency-vs-load sweep (``--arrival-sweep``), when requested.
    arrival_sweep: ArrivalSweep | None = None
    #: Admission policy applied to every open-queue measurement
    #: (``None`` = admission off; recorded so trend comparisons refuse
    #: mixing files measured under different policies).
    admission: AdmissionPolicy | None = None
    #: Fault plan injected into every open-queue measurement (``None`` =
    #: faults off; recorded — with its retry policy — so trend
    #: comparisons refuse mixing files measured under different plans).
    faults: FaultPlan | None = None
    retry: RetryPolicy | None = None
    #: Worker-process replica count the sweep was measured with
    #: (``serve-bench --replicas N``); 1 = the classic single-process
    #: sweep.  Recorded so trend comparisons refuse mixing fleet sizes.
    replicas: int = 1

    def to_json_dict(self) -> dict:
        return {
            "benchmark": "scale_serving",
            "unit": "wall-clock seconds per run_many call (best of repeats)",
            "fast_path": self.fast_path,
            "replicas": self.replicas,
            "backend": self.backend,
            "admission": (
                None if self.admission is None else self.admission.to_json_dict()
            ),
            "faults": (
                None
                if self.faults is None
                else {
                    "plan": self.faults.to_json_dict(),
                    "retry": (self.retry or RetryPolicy()).to_json_dict(),
                }
            ),
            "metadata": host_metadata(),
            "mix": list(self.mix),
            "repeats": self.repeats,
            "points": [
                {
                    "batch_size": p.batch_size,
                    "n_distinct_signatures": p.n_distinct,
                    "wall_seconds_cached": p.wall_seconds_cached,
                    "jobs_per_second_cached": p.jobs_per_second_cached,
                    "wall_seconds_uncached": p.wall_seconds_uncached,
                    "jobs_per_second_uncached": p.jobs_per_second_uncached,
                    "wall_speedup": p.wall_speedup,
                    "makespan_seconds": p.makespan,
                    "simulated_throughput_jobs_per_second": p.simulated_throughput,
                    "results_identical": p.results_identical,
                    "backend_jobs": p.backend_jobs,
                    "backend_wall_seconds": p.backend_wall_seconds,
                    "fleet": (
                        None if p.fleet is None else p.fleet.to_json_dict()
                    ),
                    "arrival": (
                        None if p.arrival is None else p.arrival.to_json_dict()
                    ),
                }
                for p in self.points
            ],
            "arrival_sweep": (
                None
                if self.arrival_sweep is None
                else self.arrival_sweep.to_json_dict()
            ),
        }

    def write_json(self, path: Path | str = BENCH_JSON_PATH) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")
        return path


def _batch_results_equal(a: NdftBatchResult, b: NdftBatchResult) -> bool:
    """Full-value equality of two batch results: makespan, solo times and
    every per-job execution report (exact floats, no tolerance)."""
    return (
        a.makespan == b.makespan
        and a.solo_times == b.solo_times
        and len(a.jobs) == len(b.jobs)
        and all(
            ja.report == jb.report and ja.schedule == jb.schedule
            for ja, jb in zip(a.jobs, b.jobs)
        )
    )


def run_serve_bench(
    batch_sizes: tuple[int, ...] = DEFAULT_BATCH_SIZES,
    mix: tuple[int, ...] = DEFAULT_MIX,
    repeats: int = 3,
    compare_uncached: bool = True,
    cached: bool = True,
    arrival_rate: float | None = DEFAULT_ARRIVAL_RATE,
    arrival_seed: int = 0,
    backend: str | None = None,
    arrival_sweep_rates: Sequence[float] | None = None,
    admission: AdmissionPolicy | None = None,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
) -> ServeBenchReport:
    """Run the sweep.

    ``cached=False`` is the escape hatch (CLI ``--no-cache``): measure
    only the memoization-free baseline.  With ``cached=True`` and
    ``compare_uncached=True`` (the default) each point measures both
    paths and verifies their results are identical.

    ``arrival_rate`` additionally measures each point as an open queue —
    the same mix released by a seeded Poisson process — and records the
    p50/p99 completion latency, mean queueing delay, per-lane
    utilization and admission outcome (``None`` or ``<= 0`` disables
    the extra run).

    ``backend`` forces one registered simulation backend for every
    measured batch — the A/B switch for replay-vs-engine comparisons
    (``serve-bench --backend engine``).  ``arrival_sweep_rates``
    additionally runs the latency-vs-load sweep
    (:func:`run_arrival_sweep`) over those offered loads and records it
    (with its saturation knee and the knee's dominant lane) in the
    report.  ``admission`` applies an SLO-driven admission policy to
    every open-queue measurement (the closed t=0 batches are never
    subject to admission) and is recorded in the report so trend
    comparisons can refuse mixed-policy files.

    ``faults``/``retry`` inject a deterministic fault plan
    (:mod:`repro.core.faults`) into every *open-queue* measurement —
    like admission, the closed t=0 wall-clock points measure the
    healthy fast path — and record availability/goodput per point plus
    the plan descriptor at the report's top level, which
    ``bench_compare`` uses to refuse cross-fault-plan trending.
    """
    points = []
    for batch_size in batch_sizes:
        sizes = job_mix(batch_size, mix)
        n_distinct = len(set(sizes))
        uncached_wall = uncached_result = None
        compare_here = compare_uncached and batch_size <= UNCACHED_COMPARE_MAX
        if not cached or compare_here:
            uncached_wall, uncached_result = measure_run_many(
                sizes, memoize=False, repeats=repeats, backend=backend
            )
        if cached:
            cached_wall, cached_result = measure_run_many(
                sizes, memoize=True, repeats=repeats, backend=backend
            )
            identical = (
                _batch_results_equal(cached_result, uncached_result)
                if uncached_result is not None
                else None
            )
            reference = cached_result
        else:
            assert uncached_wall is not None and uncached_result is not None
            cached_wall, identical, reference = uncached_wall, None, uncached_result
            uncached_wall = None  # baseline-only: report it as the main column
        arrival = None
        if arrival_rate is not None and arrival_rate > 0:
            offsets = poisson_arrivals(
                len(sizes), arrival_rate, seed=arrival_seed
            )
            arrival_wall, arrival_result = measure_run_many(
                sizes,
                memoize=cached,
                repeats=repeats,
                arrivals=offsets,
                backend=backend,
                admission=admission,
                faults=faults,
                retry=retry,
            )
            arrival = ArrivalPoint.from_result(
                arrival_rate, arrival_seed, arrival_wall, arrival_result
            )
        points.append(
            ServePoint(
                batch_size=batch_size,
                n_distinct=n_distinct,
                wall_seconds_cached=cached_wall,
                wall_seconds_uncached=uncached_wall,
                makespan=reference.makespan,
                simulated_throughput=reference.throughput,
                results_identical=identical,
                arrival=arrival,
                backend_jobs=dict(reference.batch_report.backend_jobs),
                backend_wall_seconds=dict(
                    reference.batch_report.backend_wall_seconds
                ),
            )
        )
    arrival_sweep = None
    if arrival_sweep_rates:
        arrival_sweep = run_arrival_sweep(
            rates=tuple(arrival_sweep_rates),
            mix=mix,
            repeats=repeats,
            seed=arrival_seed,
            memoize=cached,
            backend=backend,
            admission=admission,
            faults=faults,
            retry=retry,
        )
    return ServeBenchReport(
        mix=tuple(mix),
        repeats=repeats,
        points=tuple(points),
        fast_path=cached,
        backend=backend,
        arrival_sweep=arrival_sweep,
        admission=admission,
        faults=faults,
        retry=retry,
    )


#: Identical simulations per fleet serve call (sustained-serving
#: measurement): enough rounds that per-call routing/dispatch overhead
#: amortizes the way a long-running service amortizes it, few enough
#: that the smoke sweeps stay quick.
DEFAULT_FLEET_ROUNDS = 8


def _measure_fleet(
    pool: WorkerPool,
    sizes: list[int],
    repeats: int,
    rounds: int,
    arrivals: Sequence[float] | None = None,
    backend: str | None = None,
) -> FleetResult:
    """Best-of-``repeats`` fleet serve on a warm pool (the caller pays
    the pool's one-time warm-up first).  Virtual-time results are
    identical every repeat — only the measured wall varies — so the
    returned result is simply the fastest repeat's."""
    best: FleetResult | None = None
    for _ in range(repeats):
        result = pool.serve(
            sizes, arrivals=arrivals, backend=backend, rounds=rounds
        )
        if best is None or result.wall_seconds < best.wall_seconds:
            best = result
    assert best is not None
    return best


def run_fleet_bench(
    batch_sizes: tuple[int, ...] = DEFAULT_BATCH_SIZES,
    mix: tuple[int, ...] = DEFAULT_MIX,
    repeats: int = 3,
    replicas: int = 2,
    arrival_rate: float | None = DEFAULT_ARRIVAL_RATE,
    arrival_seed: int = 0,
    backend: str | None = None,
    rounds: int = DEFAULT_FLEET_ROUNDS,
) -> ServeBenchReport:
    """The fleet (multi-process) sweep behind ``serve-bench --replicas``.

    Each point serves the same round-robin mix through a
    :class:`~repro.fleet.WorkerPool` of ``replicas`` worker processes:
    the deterministic router splits the stream, workers start warm from
    the shared cache snapshot, and the measured wall is sustained
    serving (``rounds`` identical simulations per call, best of
    ``repeats`` calls on a warm pool — the first serve, which pays
    process start-up and cold derivation, is a discarded warm-up).
    The classic single-process columns are reused so the trend gates
    apply unchanged: ``wall_seconds_cached`` is the per-round fleet
    wall, hence ``jobs_per_second_cached`` is the sustained aggregate
    fleet throughput; the uncached comparison is skipped (fleet workers
    are warm by construction — that is the point) and the per-point
    ``fleet`` record carries the replica breakdown.  The open-queue
    measurement feeds the whole fleet from one Poisson stream and
    reports fleet-wide p50/p99.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    points = []
    for batch_size in batch_sizes:
        sizes = job_mix(batch_size, mix)
        n_distinct = len(set(sizes))
        with WorkerPool(replicas) as pool:
            pool.serve(sizes)  # warm-up: spawn + derivation + snapshot
            closed = _measure_fleet(
                pool, sizes, repeats=repeats, rounds=rounds, backend=backend
            )
            arrival = None
            if arrival_rate is not None and arrival_rate > 0:
                offsets = poisson_arrivals(
                    len(sizes), arrival_rate, seed=arrival_seed
                )
                open_result = _measure_fleet(
                    pool,
                    sizes,
                    repeats=repeats,
                    rounds=rounds,
                    arrivals=offsets,
                    backend=backend,
                )
                solo_times, _lanes = pool.framework.job_estimates(sizes)
                delays = queueing_delays(
                    open_result.completion_latencies,
                    solo_times,
                    open_result.arrivals,
                )
                arrival = ArrivalPoint(
                    rate=arrival_rate,
                    seed=arrival_seed,
                    wall_seconds=open_result.wall_seconds / rounds,
                    makespan=open_result.makespan,
                    p50_latency=open_result.p50_latency,
                    p99_latency=open_result.p99_latency,
                    mean_queueing_delay=sum(delays) / len(delays),
                    lane_utilization=dict(open_result.lane_utilization),
                    admitted=open_result.n_jobs,
                )
        points.append(
            ServePoint(
                batch_size=batch_size,
                n_distinct=n_distinct,
                wall_seconds_cached=closed.wall_seconds / rounds,
                wall_seconds_uncached=None,
                makespan=closed.makespan,
                simulated_throughput=closed.throughput,
                results_identical=None,
                arrival=arrival,
                backend_jobs=dict(closed.backend_jobs),
                backend_wall_seconds=None,
                fleet=FleetPoint(
                    replicas=replicas,
                    rounds=rounds,
                    wall_seconds=closed.wall_seconds,
                    jobs_per_second_wall=closed.jobs_per_second_wall,
                    virtual_throughput=closed.throughput,
                    imbalance_ratio=closed.imbalance_ratio,
                    replica_jobs=closed.plan.replica_job_counts,
                    replica_utilization=closed.replica_utilization,
                    merged_entries=closed.merged_entries,
                ),
            )
        )
    return ServeBenchReport(
        mix=tuple(mix),
        repeats=repeats,
        points=tuple(points),
        fast_path=True,
        backend=backend,
        replicas=replicas,
    )


def format_serve_bench(report: ServeBenchReport, cached: bool = True) -> str:
    mode = "fast path (memoized)" if cached else "baseline (--no-cache)"
    lines = [
        f"Scale serving - wall-clock simulator throughput, {mode}",
        f"job mix: {', '.join(f'Si_{n}' for n in report.mix)} (round-robin), "
        f"best of {report.repeats}",
    ]
    if report.backend is not None:
        lines.append(f"forced simulation backend: {report.backend}")
    fleet_points = [p for p in report.points if p.fleet is not None]
    if report.replicas != 1 or fleet_points:
        rounds = fleet_points[0].fleet.rounds if fleet_points else 1
        lines.append(
            f"fleet: {report.replicas} worker replicas, sustained over "
            f"{rounds} rounds per measurement (warm pool, shared snapshot)"
        )
    lines.append(
        f"{'batch':>6s} {'wall (s)':>10s} {'jobs/s':>10s} "
        f"{'no-cache (s)':>13s} {'speedup':>8s} {'identical':>10s} "
        f"{'backends':>20s}"
    )
    for p in report.points:
        uncached = (
            f"{p.wall_seconds_uncached:13.4f}"
            if p.wall_seconds_uncached is not None
            else f"{'-':>13s}"
        )
        speedup = (
            f"{p.wall_speedup:7.2f}x" if p.wall_speedup is not None else f"{'-':>8s}"
        )
        identical = (
            {True: "yes", False: "NO"}[p.results_identical]
            if p.results_identical is not None
            else "-"
        )
        backends = (
            "-"
            if not p.backend_jobs
            else ",".join(
                f"{name}:{count}" for name, count in sorted(p.backend_jobs.items())
            )
        )
        lines.append(
            f"{p.batch_size:6d} {p.wall_seconds_cached:10.4f} "
            f"{p.jobs_per_second_cached:10.1f} {uncached} {speedup} "
            f"{identical:>10s} {backends:>20s}"
        )
    if fleet_points:
        lines.append("\nfleet breakdown (closed batches):")
        lines.append(
            f"{'batch':>6s} {'wall jobs/s':>12s} {'virtual jobs/s':>15s} "
            f"{'imbalance':>10s} {'replica jobs':>20s} {'merged':>7s}"
        )
        for p in fleet_points:
            f = p.fleet
            split = "/".join(str(count) for count in f.replica_jobs)
            lines.append(
                f"{p.batch_size:6d} {f.jobs_per_second_wall:12.1f} "
                f"{f.virtual_throughput:15.1f} {f.imbalance_ratio:9.3f} "
                f"{split:>20s} {f.merged_entries:7d}"
            )
    arrivals = [p for p in report.points if p.arrival is not None]
    if arrivals:
        rate = arrivals[0].arrival.rate
        lines.append(
            f"\nopen queue (Poisson arrivals at {rate:g} jobs/s, "
            f"seed {arrivals[0].arrival.seed}):"
        )
        if report.admission is not None:
            policy = report.admission
            criteria = []
            if policy.slo_p99 is not None:
                criteria.append(f"slo_p99 {policy.slo_p99:g} s")
            if policy.max_queue_depth is not None:
                criteria.append(f"max_queue_depth {policy.max_queue_depth}")
            lines.append(
                f"admission: {policy.mode} past {', '.join(criteria)}"
            )
        checkpointing = False
        if report.faults is not None:
            plan = report.faults
            retry = report.retry or RetryPolicy()
            checkpointing = retry.checkpoint
            shapes = [
                f"{len(plan.outages)} outage window(s)",
                f"{len(plan.permanent)} permanent failure(s)",
            ]
            if plan.shock_rate is not None:
                shapes.append(
                    f"correlated shocks at {plan.shock_rate:g}/s over "
                    f"{len(plan.shock_groups)} group(s)"
                )
            if plan.slowdowns:
                shapes.append(
                    f"{len(plan.slowdowns)} slowdown window(s) "
                    f"({', '.join(sorted(plan.slowdown_lanes()))})"
                )
            lines.append(
                f"faults: {', '.join(shapes)} on "
                f"{', '.join(sorted(plan.lanes)) or 'no lanes'} "
                f"(seed {plan.seed}, digest {plan.digest()}); retry up to "
                f"{retry.max_attempts} attempts, backoff "
                f"{retry.backoff_base:g}s x{retry.backoff_factor:g}"
                + (", checkpoint/resume on" if checkpointing else "")
            )
        fault_cols = (
            "" if report.faults is None else f" {'avail':>6s} {'goodput':>9s}"
        )
        if checkpointing:
            fault_cols += f" {'resumed':>8s} {'saved (s)':>10s}"
        lines.append(
            f"{'batch':>6s} {'wall (s)':>10s} {'p50 lat (s)':>12s} "
            f"{'p99 lat (s)':>12s} {'queue delay':>12s} {'shed':>6s}"
            + fault_cols
        )
        for p in arrivals:
            a = p.arrival
            fault_cells = ""
            if a.resilience is not None:
                fault_cells = (
                    f" {a.resilience['availability']:5.0%} "
                    f"{a.resilience['goodput']:9.1f}"
                )
                if checkpointing:
                    fault_cells += (
                        f" {a.resilience['resumed_stages']:8d} "
                        f"{a.resilience['work_saved_seconds']:10.4f}"
                    )
            lines.append(
                f"{p.batch_size:6d} {a.wall_seconds:10.4f} "
                f"{a.p50_latency:12.4f} {a.p99_latency:12.4f} "
                f"{a.mean_queueing_delay:12.4f} {a.shed_rate:5.0%}"
                + fault_cells
            )
    sweep = report.arrival_sweep
    if sweep is not None:
        lines.append(
            f"\nlatency vs offered load ({sweep.batch_size} jobs, "
            f"seed {sweep.seed}):"
        )
        lines.append(
            f"{'rate':>6s} {'p50 lat (s)':>12s} {'p99 lat (s)':>12s} "
            f"{'queue delay':>12s} {'makespan (s)':>13s} {'shed':>6s} "
            f"{'busiest lane':>18s}"
        )
        for point in sweep.points:
            busiest = point.dominant_lane
            utilization = (
                "-"
                if busiest is None
                else f"{busiest} {point.lane_utilization[busiest]:.0%}"
            )
            lines.append(
                f"{point.rate:6.2f} {point.p50_latency:12.4f} "
                f"{point.p99_latency:12.4f} "
                f"{point.mean_queueing_delay:12.4f} {point.makespan:13.3f} "
                f"{point.shed_rate:5.0%} {utilization:>18s}"
            )
        if sweep.knee_rate is None:
            lines.append(
                "saturation knee: not reached "
                f"(p99 stayed within {KNEE_LATENCY_FACTOR:g}x of baseline)"
            )
        else:
            lines.append(
                f"saturation knee: ~{sweep.knee_rate:g} jobs/s "
                f"(first rate with p99 > {KNEE_LATENCY_FACTOR:g}x baseline; "
                f"dominant lane: {sweep.knee_dominant_lane})"
            )
    return "\n".join(lines)
