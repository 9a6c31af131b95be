"""Bench: the serving fast path (signature memoization + slimmed DES).

Asserts the PR's headline acceptance criterion: on a 256-job mixed-size
batch, one cold ``run_many`` call with memoization is >= 5x faster
wall-clock than the uncached path, with *identical* batch results
(makespan, throughput, solo times, per-job reports).

Unlike the paper-artifact benchmarks this file does not append to
``benchmarks_report.txt`` — wall-clock numbers are host-specific, so the
pre-existing report sections stay byte-identical across machines.  The
measurements land in ``BENCH_serving.json`` instead, the start of the
serving performance trajectory.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter

import pytest

from repro.core.executor import PipelineExecutor
from repro.core.framework import NdftFramework
from repro.core.pipeline import build_kpoint_pipeline, build_pipeline
from repro.core.sca import StaticCodeAnalyzer
from repro.core.scheduler import CostAwareScheduler
from repro.dft.workload import problem_size
from repro.experiments.scale_serving import (
    job_mix,
    measure_run_many,
    run_fleet_bench,
    run_serve_bench,
    write_json,
)
from repro.fleet import WorkerPool

#: The acceptance batch: 256 jobs over four distinct sizes.
ACCEPTANCE_BATCH = 256

#: The fleet acceptance batch and fleet size (the --replicas 4 target).
FLEET_BATCH = 1024
FLEET_REPLICAS = 4


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


@pytest.fixture(scope="module")
def comparison():
    """One cold cached-vs-uncached measurement of the acceptance batch."""
    sizes = job_mix(ACCEPTANCE_BATCH)
    # Best-of-5 per path: wall-clock minima are stable even on loaded CI
    # hosts, and the measured speedup (~6-8x) clears the 5x bar with
    # margin only when the noise floor is filtered out.
    uncached_wall, uncached = measure_run_many(sizes, memoize=False, repeats=5)
    cached_wall, cached = measure_run_many(sizes, memoize=True, repeats=5)
    return uncached_wall, uncached, cached_wall, cached


def test_fast_path_results_identical(comparison):
    """The fast path is an optimization, never an approximation: every
    number in the batch result matches the uncached path exactly."""
    _uw, uncached, _cw, cached = comparison
    assert cached.makespan == uncached.makespan
    assert cached.throughput == uncached.throughput
    assert cached.solo_times == uncached.solo_times
    assert len(cached.jobs) == len(uncached.jobs) == ACCEPTANCE_BATCH
    for job_c, job_u in zip(cached.jobs, uncached.jobs):
        assert job_c.report == job_u.report
        assert job_c.schedule == job_u.schedule
        assert job_c.sca_reports == job_u.sca_reports


def test_fast_path_wall_clock_speedup(comparison):
    """>= 5x wall-clock on the 256-job batch (measured ~6-8x)."""
    uncached_wall, _u, cached_wall, _c = comparison
    speedup = uncached_wall / cached_wall
    print(
        f"\nserving fast path: {ACCEPTANCE_BATCH} jobs, "
        f"uncached {uncached_wall*1e3:.1f} ms -> cached {cached_wall*1e3:.1f} ms "
        f"({speedup:.1f}x)"
    )
    assert speedup >= 5.0


def test_batch_work_is_deduplicated(monkeypatch):
    """256 jobs over 4 distinct signatures: exactly 4 schedules, 4 SCA
    passes and 4 solo runs, one lookup per distinct entry and none for
    the duplicates."""
    derived = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            derived[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(CostAwareScheduler, "schedule")
    count(PipelineExecutor, "execute")
    count(StaticCodeAnalyzer, "analyze_all")
    framework = NdftFramework()
    framework.run_many(job_mix(ACCEPTANCE_BATCH))
    stats = framework.cache_stats
    n_distinct = len(set(job_mix(ACCEPTANCE_BATCH)))
    for kind in ("pipeline", "entry"):
        assert stats[f"{kind}_misses"] == n_distinct
        assert stats[f"{kind}_hits"] == 0
    assert derived == dict.fromkeys(("schedule", "execute", "analyze_all"), n_distinct)


def test_serving_sweep_emits_bench_json(tmp_path):
    """The batch-size sweep runs end to end and writes a BENCH_serving
    JSON with host metadata and the open-queue latency block.  (Written
    to a temp path: the committed repo-root BENCH_serving.json is the
    previous PR's record, regenerated deliberately, and the CI trend
    gate diffs fresh measurements against it.)"""
    report = run_serve_bench(batch_sizes=(16, 64, 256), repeats=2)
    assert all(p["results_identical"] for p in report["points"])
    path = write_json(report, tmp_path / "BENCH_serving.json")
    assert path.exists()
    payload = json.loads(path.read_text())
    assert payload == report
    assert payload["metadata"]["python"]
    assert payload["metadata"]["platform"]
    for point in payload["points"]:
        # Per-backend breakdown: the all-chain default mix rides the
        # DAG replay for every job (a multi-signature shard never
        # tries vector_replay first, so it walks the registry order).
        assert point["backend_jobs"] == {"dag_replay": point["batch_size"]}
        # Per-backend wall breakdown: same keys, positive seconds.
        assert set(point["backend_wall_seconds"]) == {"dag_replay"}
        assert point["backend_wall_seconds"]["dag_replay"] > 0.0
        arrival = point["arrival"]
        assert arrival["rate_jobs_per_second"] > 0
        assert arrival["p50_latency_seconds"] <= arrival["p99_latency_seconds"]
        assert arrival["mean_queueing_delay_seconds"] >= 0.0
    # Throughput-oriented sanity: bigger batches amortize better, so
    # cached jobs/sec should not collapse as the batch grows.
    first, last = payload["points"][0], payload["points"][-1]
    assert last["jobs_per_second_cached"] > first["jobs_per_second_cached"] * 0.5


def test_scaleout_batch_des_speedup():
    """The tentpole: the signature-coalesced FIFO replay beats the
    uncollapsed generator DES on the executor's own 1024-job batch
    by >= 2x wall-clock (measured ~4-6x), with identical reports (the
    equivalence itself is asserted exactly in tests/core)."""
    framework = NdftFramework()
    jobs = []
    for n_atoms in job_mix(1024):
        pipeline = framework._build_pipeline(
            problem_size(n_atoms), build_pipeline
        )
        schedule = framework._record_for(
            pipeline, framework.job_signature(pipeline)
        ).schedule
        jobs.append((pipeline, schedule))

    def best_of(callable_, repeats=3):
        best, result = float("inf"), None
        for _ in range(repeats):
            start = time.perf_counter()
            result = callable_()
            best = min(best, time.perf_counter() - start)
        return best, result

    fast_wall, fast = best_of(lambda: framework.executor.execute_many(jobs))
    slow_wall, slow = best_of(
        lambda: framework.executor.execute_many(jobs, backend="engine")
    )
    assert fast.job_reports == slow.job_reports
    assert fast.makespan == slow.makespan
    speedup = slow_wall / fast_wall
    print(
        f"\nscale-out batch DES: 1024 jobs, engine {slow_wall*1e3:.1f} ms "
        f"-> replay {fast_wall*1e3:.1f} ms ({speedup:.1f}x)"
    )
    assert speedup >= 2.0


def test_dag_batch_replay_speedup():
    """The backend-layer tentpole: a DAG-heavy (k-point) 512-job batch
    runs the slim DAG replay — not the generator engine — and beats the
    forced-engine path by >= 2x wall-clock (measured ~3-4x), with
    bit-identical reports (the equivalence itself is property-tested in
    tests/core/test_dag_replay.py)."""
    framework = NdftFramework()
    jobs = []
    for n_atoms in job_mix(512):
        pipeline = framework._build_pipeline(
            problem_size(n_atoms), build_kpoint_pipeline
        )
        schedule = framework._record_for(
            pipeline, framework.job_signature(pipeline)
        ).schedule
        jobs.append((pipeline, schedule))

    def best_of(callable_, repeats=3):
        best, result = float("inf"), None
        for _ in range(repeats):
            start = time.perf_counter()
            result = callable_()
            best = min(best, time.perf_counter() - start)
        return best, result

    fast_wall, fast = best_of(lambda: framework.executor.execute_many(jobs))
    slow_wall, slow = best_of(
        lambda: framework.executor.execute_many(jobs, backend="engine")
    )
    assert fast.backend_jobs == {"dag_replay": 512}
    assert slow.backend_jobs == {"engine": 512}
    assert fast.job_reports == slow.job_reports
    assert fast.makespan == slow.makespan
    speedup = slow_wall / fast_wall
    print(
        f"\nDAG-batch replay: 512 k-point jobs, engine {slow_wall*1e3:.1f} ms "
        f"-> replay {fast_wall*1e3:.1f} ms ({speedup:.1f}x)"
    )
    assert speedup >= 2.0


def test_vector_replay_speedup():
    """The wave-replay tentpole: a 16384-job single-signature k-point
    shard runs the numpy wave recurrence >= 5x faster wall-clock than
    the generator engine, with bit-identical reports *and* lane
    occupancy (the equivalence itself is property-tested in
    tests/core/test_vector_replay.py).  The engine is the yardstick:
    ``dag_replay`` compacts single-predecessor stage runs into segments
    and comes within about 3x of the wave replay on this shard (2-vCPU
    Intel Xeon), too close for a 5x bound."""
    framework = NdftFramework()
    pipeline = framework._build_pipeline(
        problem_size(64), build_kpoint_pipeline
    )
    schedule = framework._record_for(
        pipeline, framework.job_signature(pipeline)
    ).schedule
    jobs = [(pipeline, schedule)] * 16384

    def best_of(callable_, repeats=3):
        best, result = float("inf"), None
        for _ in range(repeats):
            start = time.perf_counter()
            result = callable_()
            best = min(best, time.perf_counter() - start)
        return best, result

    engine_wall, engine = best_of(
        lambda: framework.executor.execute_many(jobs, backend="engine")
    )
    vector_wall, vector = best_of(
        lambda: framework.executor.execute_many(
            jobs, backend="vector_replay"
        )
    )
    assert vector.backend_jobs == {"vector_replay": 16384}
    assert engine.backend_jobs == {"engine": 16384}
    results_identical = (
        vector.job_reports == engine.job_reports
        and vector.makespan == engine.makespan
        and vector.lane_occupancy == engine.lane_occupancy
    )
    assert results_identical
    speedup = engine_wall / vector_wall
    print(
        f"\nwave replay: 16384 k-point jobs, engine "
        f"{engine_wall*1e3:.1f} ms -> vector_replay {vector_wall*1e3:.1f} ms "
        f"({speedup:.1f}x, results_identical={results_identical})"
    )
    assert speedup >= 5.0


def test_fleet_results_bit_identical_to_single_process():
    """The fleet tentpole's correctness half, asserted unconditionally:
    every per-job virtual completion time a 4-replica worker-process
    fleet reports is bit-identical to a single-process ``run_many`` of
    the same routed assignment."""
    sizes = job_mix(FLEET_BATCH)
    with WorkerPool(FLEET_REPLICAS) as pool:
        result = pool.serve(sizes)
    for summary in result.replicas:
        if not summary.job_indices:
            continue
        solo = NdftFramework().run_many(
            [sizes[i] for i in summary.job_indices]
        )
        assert summary.completion_times == tuple(
            job.report.total_time for job in solo.jobs
        )


@pytest.mark.skipif(
    _usable_cpus() < FLEET_REPLICAS,
    reason=f"fleet speedup needs >= {FLEET_REPLICAS} usable CPUs "
    f"(host has {_usable_cpus()}); the bit-identity half runs everywhere",
)
def test_fleet_wall_clock_speedup():
    """The fleet tentpole's throughput half: sustained serving of the
    1024-job mixed batch at --replicas 4 is >= 2.5x the single-process
    wall-clock jobs/s.  Measured on a warm pool over several rounds so
    per-serve dispatch overhead is amortized the way a serving loop
    amortizes it; best-of-3 filters scheduler noise."""
    sizes = job_mix(FLEET_BATCH)
    rounds = 8

    single = NdftFramework()
    single.run_many(sizes)  # warm caches: steady-state serving regime
    single_wall = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(rounds):
            single.run_many(sizes)
        single_wall = min(single_wall, time.perf_counter() - start)
    single_jps = (FLEET_BATCH * rounds) / single_wall

    with WorkerPool(FLEET_REPLICAS) as pool:
        pool.serve(sizes)  # warm-up: spawn workers, share the snapshot
        fleet_jps = 0.0
        for _ in range(3):
            result = pool.serve(sizes, rounds=rounds)
            fleet_jps = max(fleet_jps, result.jobs_per_second_wall)

    speedup = fleet_jps / single_jps
    print(
        f"\nfleet serving: {FLEET_BATCH} jobs x {rounds} rounds, "
        f"single-process {single_jps:.0f} jobs/s -> "
        f"{FLEET_REPLICAS} replicas {fleet_jps:.0f} jobs/s "
        f"({speedup:.1f}x)"
    )
    assert speedup >= 2.5


def test_fleet_bench_emits_replica_breakdown(tmp_path):
    """serve-bench --replicas: the fleet sweep records the per-replica
    breakdown and the fleet size in BENCH_serving.json, and the closed
    measurement's throughput column carries the fleet aggregate."""
    report = run_fleet_bench(
        batch_sizes=(16, 64), repeats=1, replicas=2, rounds=2
    )
    path = write_json(report, tmp_path / "BENCH_serving.json")
    payload = json.loads(path.read_text())
    assert payload == report
    assert payload["replicas"] == 2
    for point in payload["points"]:
        fleet = point["fleet"]
        assert fleet["replicas"] == 2
        assert fleet["rounds"] == 2
        assert sum(fleet["replica_jobs"]) == point["batch_size"]
        assert len(fleet["replica_utilization"]) == 2
        assert fleet["imbalance_ratio"] >= 1.0
        assert fleet["jobs_per_second_wall"] > 0
        assert point["jobs_per_second_cached"] > 0
        arrival = point["arrival"]
        assert arrival["p50_latency_seconds"] <= arrival["p99_latency_seconds"]
        assert arrival["mean_queueing_delay_seconds"] >= 0.0


def test_cached_run_many_throughput(benchmark):
    """pytest-benchmark timing of the fast path itself (warm caches —
    the steady-state serving regime)."""
    framework = NdftFramework()
    sizes = job_mix(64)
    framework.run_many(sizes)  # warm the entry store
    result = benchmark(framework.run_many, sizes)
    assert result.n_jobs == 64
