"""Scale-serving benchmark: wall-clock simulator throughput vs batch size.

The paper's framework is a per-run co-design pipeline; the serving
extension (:meth:`repro.core.framework.NdftFramework.run_many`) pushes
whole batches through one shared machine.  At serving scale the limiting
factor is no longer the modeled hardware but the simulator itself — how
many jobs per *wall-clock* second the scheduling + DES stack can turn
around.  This driver measures exactly that: it sweeps batch sizes (16 →
65536 by default) over a round-robin mix of a few Si_N sizes, times
``run_many`` with the serving fast path on and, up to
:data:`UNCACHED_COMPARE_MAX` jobs, with ``memoize=False`` (checking both
give identical results: the fast path is an optimization, never an
approximation), measures each point once more as an *open queue*
(seeded Poisson arrivals) for p50/p99 latency and queueing delay,
records which simulation backends ran and their wall seconds
(``--backend`` forces one), optionally sweeps offered load for the
latency-vs-load curve and its saturation knee (``--arrival-sweep``),
and writes ``BENCH_serving.json`` with host metadata for the CI trend
gate (:mod:`repro.experiments.bench_compare`).  Every measurement uses a
fresh framework (cold caches), so the speedup is what one ``run_many``
call gains from intra-batch deduplication alone.

The report *is* the JSON it writes: one function builds each JSON
object, so every key is written in one place, and
:func:`format_serve_bench` reads the same dicts ``bench_compare`` reads.
The schema (``null`` where a measurement is off or skipped):

- report (:func:`serve_report`): ``benchmark``, ``unit``,
  ``replicas``, ``backend`` (the forced one), ``admission``
  (the policy), ``faults`` (``plan``: the fault descriptor, ``retry``:
  the retry policy), ``metadata`` (:func:`host_metadata`), ``mix``,
  ``repeats``, ``points``, ``arrival_sweep``;
- point (:func:`serve_point`): ``batch_size``, ``n_distinct_signatures``,
  ``wall_seconds_cached``, ``jobs_per_second_cached``,
  ``wall_seconds_uncached``, ``jobs_per_second_uncached``,
  ``wall_speedup``, ``makespan_seconds``,
  ``simulated_throughput_jobs_per_second``, ``results_identical``,
  ``backend_jobs``, ``backend_wall_seconds``, ``fleet``, ``arrival``;
- fleet (:func:`fleet_point`): ``replicas``, ``rounds``,
  ``wall_seconds``, ``jobs_per_second_wall``,
  ``virtual_throughput_jobs_per_second``, ``imbalance_ratio``,
  ``replica_jobs``, ``replica_utilization``, ``merged_entries``;
- open-queue point (:func:`arrival_point`; a point's ``arrival`` and
  each sweep point): ``rate_jobs_per_second``, ``seed``,
  ``wall_seconds``, ``makespan_seconds``, ``p50_latency_seconds``,
  ``p99_latency_seconds``, ``mean_queueing_delay_seconds``,
  ``lane_utilization``, ``dominant_lane``, ``shed_rate``, ``admitted``,
  ``shed``, ``resilience`` (the fault run's resilience record);
- arrival sweep (:func:`run_arrival_sweep`): ``batch_size``, ``seed``,
  ``knee_latency_factor``, ``knee_rate_jobs_per_second``,
  ``knee_dominant_lane``, ``points``.
"""

from __future__ import annotations

import json
import numbers
import os
import platform
import time
from math import isfinite
from pathlib import Path
from typing import Sequence

from repro.core.arrivals import AdmissionPolicy, poisson_arrivals
from repro.core.faults import FaultPlan, RetryPolicy
from repro.core.framework import NdftBatchResult, NdftFramework, check_invariants
from repro.errors import ConfigError
from repro.fleet import FleetResult, WorkerPool, check_fleet_invariants

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
#: Identical simulations per fleet serve call (sustained-serving
#: measurement): enough rounds that per-call routing/dispatch overhead
#: amortizes the way a long-running service amortizes it, few enough
#: that the smoke sweeps stay quick.
DEFAULT_FLEET_ROUNDS = 8


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
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if not mix:
        raise ConfigError("the job mix needs at least one size")
    return [mix[i % len(mix)] for i in range(batch_size)]


def _check_count(name: str, value) -> None:
    """Refuse a count that is a ``bool``, not an integer, or below 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")


def _sweep_rates(rates: Sequence[float]) -> list[float]:
    """An arrival sweep's offered loads, ascending.  Refuses an empty
    grid and any rate that is not finite and positive."""
    if not rates:
        raise ConfigError("arrival sweep needs at least one rate")
    if not all(isfinite(rate) and rate > 0 for rate in rates):
        raise ConfigError(
            f"arrival rates must be finite and positive, got {rates!r}"
        )
    return sorted(rates)


def _checked_batches(
    batch_sizes: Sequence[int],
    mix: tuple[int, ...],
    arrival_rate: float | None,
    sweep_rates: Sequence[float] | None = None,
) -> list[list[int]]:
    """Each sweep point's batch, once every input is checked, so a bad
    batch size, open-queue rate (``None`` or ``<= 0`` turns it off, and
    ``nan`` or ``inf`` is refused) or sweep rate fails before anything
    is measured."""
    if arrival_rate is not None and not (arrival_rate <= 0 or isfinite(arrival_rate)):
        raise ConfigError(f"arrival_rate must be finite, got {arrival_rate!r}")
    if sweep_rates:
        _sweep_rates(sweep_rates)
    return [job_mix(batch_size, mix) for batch_size in batch_sizes]


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
    micro-measurements.  The other arguments go to ``run_many``.  The
    returned result is the fastest repeat's, whose backend walls lie
    inside the returned wall; it is checked with
    :func:`~repro.core.framework.check_invariants`, so a result that
    breaks one never reaches the JSON."""
    _check_count("repeats", repeats)
    best = float("inf")
    result: NdftBatchResult | None = None
    for _ in range(repeats):
        framework = NdftFramework(memoize=memoize)
        start = time.perf_counter()
        run = framework.run_many(
            sizes,
            arrivals=arrivals,
            backend=backend,
            admission=admission,
            faults=faults,
            retry=retry,
        )
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, result = elapsed, run
    assert result is not None
    check_invariants(result)
    return best, result


def arrival_point(
    rate: float,
    seed: int | None,
    wall: float,
    result: NdftBatchResult | FleetResult,
) -> dict:
    """The open-queue point one measured result describes, a batch's
    or a fleet's.  ``dominant_lane`` is the most-utilized lane (ties
    break on the name; ``None`` when nothing ran).  With admission off
    every submitted job counts as admitted — under faults too, where
    ``result.n_jobs`` counts only the completed jobs.  The percentiles
    are the SLO-counted (post-shed) ones, which leave out deferred
    jobs: their latency runs from the *deferred* release and would
    deflate the curve where the backlog is worst (a fleet's are its
    plain ones)."""
    admission, resilience = result.admission, result.resilience
    admitted = result.n_jobs if resilience is None else resilience.submitted
    lanes = dict(result.lane_utilization)
    return {
        "rate_jobs_per_second": rate,
        "seed": seed,
        "wall_seconds": wall,
        "makespan_seconds": result.makespan,
        "p50_latency_seconds": result.slo_p50_latency,
        "p99_latency_seconds": result.slo_p99_latency,
        "mean_queueing_delay_seconds": result.mean_queueing_delay,
        "lane_utilization": lanes,
        "dominant_lane": max(sorted(lanes), key=lanes.__getitem__, default=None),
        "shed_rate": 0.0 if admission is None else admission.shed_rate,
        "admitted": admitted if admission is None else admission.admitted,
        "shed": 0 if admission is None else admission.shed,
        "resilience": None if resilience is None else resilience.to_json_dict(),
    }


def fleet_point(result: FleetResult) -> dict:
    """The fleet breakdown of one sweep point: the sustained-serving
    wall of ``rounds`` simulations, the router's load split and each
    replica's share of the fleet busy span."""
    return {
        "replicas": result.n_replicas,
        "rounds": result.rounds,
        "wall_seconds": result.wall_seconds,
        "jobs_per_second_wall": result.jobs_per_second_wall,
        "virtual_throughput_jobs_per_second": result.throughput,
        "imbalance_ratio": result.imbalance_ratio,
        "replica_jobs": list(result.plan.replica_job_counts),
        "replica_utilization": list(result.replica_utilization),
        "merged_entries": result.merged_entries,
    }


def serve_point(
    sizes: list[int],
    wall: float,
    wall_uncached: float | None,
    reference: NdftBatchResult | FleetResult,
    identical: bool | None,
    arrival: dict | None,
) -> dict:
    """One sweep point: ``sizes`` served closed in ``wall`` seconds
    (per round for a fleet), the uncached baseline's wall, the result
    the virtual-time columns come from, whether the cached and uncached
    results matched, and the open-queue point."""
    if isinstance(reference, FleetResult):
        backend_jobs, backend_wall = reference.backend_jobs, None
        fleet = fleet_point(reference)
    else:
        report, fleet = reference.batch_report, None
        backend_jobs, backend_wall = report.backend_jobs, report.backend_wall_seconds
    n = len(sizes)
    return {
        "batch_size": n,
        "n_distinct_signatures": len(set(sizes)),
        "wall_seconds_cached": wall,
        "jobs_per_second_cached": n / wall,
        "wall_seconds_uncached": wall_uncached,
        "jobs_per_second_uncached": (
            None if wall_uncached is None else n / wall_uncached
        ),
        "wall_speedup": None if wall_uncached is None else wall_uncached / wall,
        "makespan_seconds": reference.makespan,
        "simulated_throughput_jobs_per_second": reference.throughput,
        "results_identical": identical,
        "backend_jobs": backend_jobs,
        "backend_wall_seconds": backend_wall,
        "fleet": fleet,
        "arrival": arrival,
    }


def serve_report(
    mix: Sequence[int],
    repeats: int,
    points: list[dict],
    replicas: int = 1,
    backend: str | None = None,
    admission: AdmissionPolicy | None = None,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    arrival_sweep: dict | None = None,
) -> dict:
    """The whole sweep.  The admission policy, the fault plan and the
    replica count are recorded so trend comparisons refuse to mix files
    measured under different ones."""
    return {
        "benchmark": "scale_serving",
        "unit": "wall-clock seconds per run_many call (best of repeats)",
        "replicas": replicas,
        "backend": backend,
        "admission": None if admission is None else admission.to_json_dict(),
        "faults": (
            None
            if faults is None
            else {
                "plan": faults.to_json_dict(),
                "retry": (retry or RetryPolicy()).to_json_dict(),
            }
        ),
        "metadata": host_metadata(),
        "mix": list(mix),
        "repeats": repeats,
        "points": points,
        "arrival_sweep": arrival_sweep,
    }


def write_json(report: dict, path: Path | str = BENCH_JSON_PATH) -> Path:
    """Write ``report`` as indented JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def find_saturation_knee(
    points: Sequence[dict],
    factor: float = KNEE_LATENCY_FACTOR,
) -> float | None:
    """The lowest swept rate whose p99 latency exceeds ``factor`` times
    the baseline p99 — the point the latency-vs-load curve turns the
    corner.  ``None`` when no point exceeds it (the sweep never reached
    saturation).  ``points`` are :func:`arrival_point` dicts.

    The baseline is the lowest-rate point with a *positive* p99.  A
    0.0 baseline (a degenerate sweep where the lowest-rate batch saw no
    latency at all — single-job batches, or everything shed by an
    aggressive admission policy) used to make ``factor * baseline == 0``
    and every later point "knee"; such points now merely advance the
    baseline search, and a sweep whose every p99 is 0.0 has no knee."""
    ordered = sorted(points, key=lambda p: p["rate_jobs_per_second"])
    baseline = next(
        (
            p["p99_latency_seconds"]
            for p in ordered
            if p["p99_latency_seconds"] > 0.0
        ),
        None,
    )
    if baseline is None:
        return None
    for point in ordered:
        if point["p99_latency_seconds"] > factor * baseline:
            return point["rate_jobs_per_second"]
    return None


def _open_point(
    sizes: list[int], rate: float, seed: int, repeats: int, **options
) -> dict:
    """Measure ``sizes`` released by a seeded Poisson process at ``rate``
    (``options`` go to :func:`measure_run_many`)."""
    offsets = poisson_arrivals(len(sizes), rate, seed=seed)
    wall, result = measure_run_many(sizes, True, repeats, arrivals=offsets, **options)
    return arrival_point(rate, seed, wall, result)


def run_arrival_sweep(
    rates: Sequence[float] = DEFAULT_SWEEP_RATES,
    batch_size: int = DEFAULT_SWEEP_BATCH,
    mix: tuple[int, ...] = DEFAULT_MIX,
    repeats: int = 3,
    seed: int = 0,
    backend: str | None = None,
    admission: AdmissionPolicy | None = None,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
) -> dict:
    """Sweep offered load over ``rates``: the same ``batch_size``-job mix
    released by a seeded Poisson process at each rate, under the same
    admission policy and fault plan, recording the latency-vs-load
    curve and the saturation knee (:func:`find_saturation_knee`).
    ``knee_dominant_lane`` is the most-utilized lane at the knee — the
    device or wire the knee comes from — which the CI trend gate pins:
    a silently changed bottleneck is a modeling regression even when
    the latencies still pass."""
    rates = _sweep_rates(rates)
    sizes = job_mix(batch_size, mix)
    options = dict(backend=backend, admission=admission, faults=faults, retry=retry)
    points = [_open_point(sizes, rate, seed, repeats, **options) for rate in rates]
    knee = find_saturation_knee(points)
    return {
        "batch_size": batch_size,
        "seed": seed,
        "knee_latency_factor": KNEE_LATENCY_FACTOR,
        "knee_rate_jobs_per_second": knee,
        "knee_dominant_lane": next(
            (p["dominant_lane"] for p in points if p["rate_jobs_per_second"] == knee),
            None,
        ),
        "points": points,
    }


def run_serve_bench(
    batch_sizes: tuple[int, ...] = DEFAULT_BATCH_SIZES,
    mix: tuple[int, ...] = DEFAULT_MIX,
    repeats: int = 3,
    arrival_rate: float | None = DEFAULT_ARRIVAL_RATE,
    arrival_seed: int = 0,
    backend: str | None = None,
    arrival_sweep_rates: Sequence[float] | None = None,
    admission: AdmissionPolicy | None = None,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
) -> dict:
    """Run the sweep and return its report (:func:`serve_report`).

    Each point up to :data:`UNCACHED_COMPARE_MAX` jobs also measures
    the memoization-free baseline and checks its results are identical
    to the last float.  ``arrival_rate`` (``None`` or ``<= 0``: off)
    measures each point once more as an open queue, and
    ``arrival_sweep_rates`` adds the latency-vs-load sweep
    (:func:`run_arrival_sweep`).  ``backend`` forces one
    simulation backend for every measurement.  ``admission`` and
    ``faults``/``retry`` apply to the open-queue measurements only (the
    closed t=0 points measure the healthy fast path), so without one
    they are refused.  Every input is checked before the first
    measurement."""
    batches = _checked_batches(batch_sizes, mix, arrival_rate, arrival_sweep_rates)
    open_queue = arrival_rate is not None and arrival_rate > 0
    if not (open_queue or arrival_sweep_rates) and any(
        option is not None for option in (admission, faults, retry)
    ):
        raise ConfigError(
            "admission, faults and retry act on open-queue measurements "
            "only: pass an arrival rate > 0 or an arrival sweep"
        )
    options = dict(backend=backend, admission=admission, faults=faults, retry=retry)
    points = []
    for sizes in batches:
        uncached_wall = uncached = identical = arrival = None
        if len(sizes) <= UNCACHED_COMPARE_MAX:
            uncached_wall, uncached = measure_run_many(
                sizes, False, repeats, backend=backend
            )
        wall, reference = measure_run_many(sizes, True, repeats, backend=backend)
        if uncached is not None:
            # Exact floats; the per-job views compare column by column,
            # building no per-job object.
            identical = (
                reference.makespan == uncached.makespan
                and reference.solo_times == uncached.solo_times
                and reference.jobs == uncached.jobs
            )
        if open_queue:
            arrival = _open_point(
                sizes, arrival_rate, arrival_seed, repeats, **options
            )
        points.append(
            serve_point(sizes, wall, uncached_wall, reference, identical, arrival)
        )
    sweep = None
    if arrival_sweep_rates:
        sweep = run_arrival_sweep(
            arrival_sweep_rates,
            mix=mix,
            repeats=repeats,
            seed=arrival_seed,
            **options,
        )
    return serve_report(mix, repeats, points, arrival_sweep=sweep, **options)


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
    returned result is simply the fastest repeat's.  Every result is
    checked with :func:`~repro.fleet.check_fleet_invariants`."""
    best: FleetResult | None = None
    for _ in range(repeats):
        result = pool.serve(
            sizes, arrivals=arrivals, backend=backend, rounds=rounds
        )
        check_fleet_invariants(result)
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
) -> dict:
    """The fleet (multi-process) sweep behind ``serve-bench --replicas``.

    Each point serves the mix through a :class:`~repro.fleet.WorkerPool`
    of ``replicas`` worker processes, warm from the shared snapshot.
    The measured wall is sustained serving: ``rounds`` identical
    simulations per call, best of ``repeats`` calls, after a discarded
    warm-up serve that pays process start-up and cold derivation.  The
    single-process columns carry the fleet so the trend gates apply
    unchanged: ``wall_seconds_cached`` is the per-round fleet wall, and
    the uncached comparison is skipped (the workers are warm by
    construction).  The open queue feeds the whole fleet from one
    Poisson stream; its queueing delays run against the router's solo
    estimates."""
    for name, value in (
        ("replicas", replicas), ("rounds", rounds), ("repeats", repeats)
    ):
        _check_count(name, value)
    batches = _checked_batches(batch_sizes, mix, arrival_rate)
    points = []
    for sizes in batches:
        with WorkerPool(replicas) as pool:
            pool.serve(sizes)  # warm-up: spawn + derivation + snapshot
            closed = _measure_fleet(
                pool, sizes, repeats=repeats, rounds=rounds, backend=backend
            )
            arrival = None
            if arrival_rate is not None and arrival_rate > 0:
                offsets = poisson_arrivals(len(sizes), arrival_rate, seed=arrival_seed)
                open_result = _measure_fleet(
                    pool,
                    sizes,
                    repeats=repeats,
                    rounds=rounds,
                    arrivals=offsets,
                    backend=backend,
                )
                arrival = arrival_point(
                    arrival_rate,
                    arrival_seed,
                    open_result.wall_seconds / rounds,
                    open_result,
                )
        wall = closed.wall_seconds / rounds
        points.append(serve_point(sizes, wall, None, closed, None, arrival))
    return serve_report(mix, repeats, points, replicas=replicas, backend=backend)


def format_serve_bench(report: dict) -> str:
    """The console summary of a serve-bench report (the JSON dict)."""
    lines = [
        "Scale serving - wall-clock simulator throughput, fast path (memoized)",
        f"job mix: {', '.join(f'Si_{n}' for n in report['mix'])} (round-robin), "
        f"best of {report['repeats']}",
    ]
    if report["backend"] is not None:
        lines.append(f"forced simulation backend: {report['backend']}")
    points = report["points"]
    fleet_points = [p for p in points if p["fleet"] is not None]
    if report["replicas"] != 1 or fleet_points:
        rounds = fleet_points[0]["fleet"]["rounds"] if fleet_points else 1
        lines.append(
            f"fleet: {report['replicas']} worker replicas, sustained over "
            f"{rounds} rounds per measurement (warm pool, shared snapshot)"
        )
    lines.append(
        f"{'batch':>6s} {'wall (s)':>10s} {'jobs/s':>10s} "
        f"{'uncached (s)':>13s} {'speedup':>8s} {'identical':>10s} "
        f"{'backends':>20s}"
    )
    for p in points:
        uncached, speedup = p["wall_seconds_uncached"], p["wall_speedup"]
        identical = {True: "yes", False: "NO", None: "-"}[p["results_identical"]]
        backends = ",".join(
            f"{name}:{count}" for name, count in sorted(p["backend_jobs"].items())
        )
        lines.append(
            f"{p['batch_size']:6d} {p['wall_seconds_cached']:10.4f} "
            f"{p['jobs_per_second_cached']:10.1f} "
            + (f"{'-':>13s}" if uncached is None else f"{uncached:13.4f}")
            + (f" {'-':>8s}" if speedup is None else f" {speedup:7.2f}x")
            + f" {identical:>10s} {backends or '-':>20s}"
        )
    if fleet_points:
        lines.append("\nfleet breakdown (closed batches):")
        lines.append(
            f"{'batch':>6s} {'wall jobs/s':>12s} {'virtual jobs/s':>15s} "
            f"{'imbalance':>10s} {'replica jobs':>20s} {'merged':>7s}"
        )
        for p in fleet_points:
            f = p["fleet"]
            split = "/".join(str(count) for count in f["replica_jobs"])
            lines.append(
                f"{p['batch_size']:6d} {f['jobs_per_second_wall']:12.1f} "
                f"{f['virtual_throughput_jobs_per_second']:15.1f} "
                f"{f['imbalance_ratio']:9.3f} {split:>20s} "
                f"{f['merged_entries']:7d}"
            )
    arrivals = [p for p in points if p["arrival"] is not None]
    if arrivals:
        first = arrivals[0]["arrival"]
        lines.append(
            f"\nopen queue (Poisson arrivals at {first['rate_jobs_per_second']:g} "
            f"jobs/s, seed {first['seed']}):"
        )
        policy = report["admission"]
        if policy is not None:
            criteria = []
            if policy["slo_p99"] is not None:
                criteria.append(f"slo_p99 {policy['slo_p99']:g} s")
            if policy["max_queue_depth"] is not None:
                criteria.append(f"max_queue_depth {policy['max_queue_depth']}")
            lines.append(f"admission: {policy['mode']} past {', '.join(criteria)}")
        faults = report["faults"]
        checkpointing = faults is not None and faults["retry"]["checkpoint"]
        if faults is not None:
            plan, retry = faults["plan"], faults["retry"]
            shapes = [
                f"{plan['n_outages']} outage window(s)",
                f"{plan['n_permanent']} permanent failure(s)",
            ]
            if plan["n_slowdowns"]:
                shapes.append(
                    f"{plan['n_slowdowns']} slowdown window(s) "
                    f"({', '.join(plan['slowdown_lanes'])})"
                )
            drawn = "".join(
                f"{record['helper']} seed {record['seed']}, "
                for record in plan["provenance"]
            )
            lines.append(
                f"faults: {', '.join(shapes)} on "
                f"{', '.join(plan['lanes']) or 'no lanes'} "
                f"({drawn}digest {plan['digest']}); retry up to "
                f"{retry['max_attempts']} attempts, backoff "
                f"{retry['backoff_base']:g}s x{retry['backoff_factor']:g}"
                + (", checkpoint/resume on" if checkpointing else "")
            )
        fault_cols = "" if faults is None else f" {'avail':>6s} {'goodput':>9s}"
        if checkpointing:
            fault_cols += f" {'resumed':>8s} {'saved (s)':>10s}"
        lines.append(
            f"{'batch':>6s} {'wall (s)':>10s} {'p50 lat (s)':>12s} "
            f"{'p99 lat (s)':>12s} {'queue delay':>12s} {'shed':>6s}"
            + fault_cols
        )
        for p in arrivals:
            a, fault_cells = p["arrival"], ""
            resilience = a["resilience"]
            if resilience is not None:
                fault_cells = (
                    f" {resilience['availability']:5.0%} "
                    f"{resilience['goodput']:9.1f}"
                )
                if checkpointing:
                    fault_cells += (
                        f" {resilience['resumed_stages']:8d} "
                        f"{resilience['work_saved_seconds']:10.4f}"
                    )
            lines.append(
                f"{p['batch_size']:6d} {a['wall_seconds']:10.4f} "
                f"{a['p50_latency_seconds']:12.4f} "
                f"{a['p99_latency_seconds']:12.4f} "
                f"{a['mean_queueing_delay_seconds']:12.4f} {a['shed_rate']:5.0%}"
                + fault_cells
            )
    sweep = report["arrival_sweep"]
    if sweep is not None:
        lines.append(
            f"\nlatency vs offered load ({sweep['batch_size']} jobs, "
            f"seed {sweep['seed']}):"
        )
        lines.append(
            f"{'rate':>6s} {'p50 lat (s)':>12s} {'p99 lat (s)':>12s} "
            f"{'queue delay':>12s} {'makespan (s)':>13s} {'shed':>6s} "
            f"{'busiest lane':>18s}"
        )
        for point in sweep["points"]:
            busiest = point["dominant_lane"]
            utilization = (
                "-"
                if busiest is None
                else f"{busiest} {point['lane_utilization'][busiest]:.0%}"
            )
            lines.append(
                f"{point['rate_jobs_per_second']:6.2f} "
                f"{point['p50_latency_seconds']:12.4f} "
                f"{point['p99_latency_seconds']:12.4f} "
                f"{point['mean_queueing_delay_seconds']:12.4f} "
                f"{point['makespan_seconds']:13.3f} "
                f"{point['shed_rate']:5.0%} {utilization:>18s}"
            )
        knee = sweep["knee_rate_jobs_per_second"]
        if knee is None:
            lines.append(
                "saturation knee: not reached "
                f"(p99 stayed within {KNEE_LATENCY_FACTOR:g}x of baseline)"
            )
        else:
            lines.append(
                f"saturation knee: ~{knee:g} jobs/s "
                f"(first rate with p99 > {KNEE_LATENCY_FACTOR:g}x baseline; "
                f"dominant lane: {sweep['knee_dominant_lane']})"
            )
    return "\n".join(lines)
