"""The faulted DAG replay against the same batch replayed healthy.

Under a fault plan :func:`repro.hw.engine.replay_dag_batch` resolves a
tie-free instant inline as on a healthy machine, and sends a grant to
:func:`repro.hw.engine.resolve_degraded_service` only when its service
may reach its lane's next fault span.  So a faulted batch in which few
jobs fail costs little more than the same batch replayed healthy.  This
checks it with wall time, best of :data:`REPEATS` runs timed in turn
with garbage collection off, on the first round of the faults-retry
benchmark at seed 0: a 2 048-job open chain mix (Si_64/128/512/1024,
round-robin) under Poisson outages on the NDP and its wire with a late
permanent NDP death, cpu+ndp shocks and CPU slowdowns, every job
released after the death placed off the NDP.  13 jobs fail.  Both
replays run on one compiled batch; the faulted one may take at most
:data:`BOUND` times the healthy one.  Routing every instant through
the hop bands and every grant through the resolver costs 3.6-3.9x
(measured on a 2-CPU Intel Xeon host, CPython 3.11).
"""

import gc
import random
import time

from repro.core.arrivals import poisson_arrivals
from repro.core.faults import (
    poisson_fault_plan,
    shock_fault_plan,
    slowdown_fault_plan,
)
from repro.core.pipeline import build_pipeline
from repro.core.scheduler import Placement
from repro.dft.workload import problem_size
from repro.hw.engine import replay_dag_batch

#: The faulted replay may take at most this multiple of the healthy one.
BOUND = 2.0
#: Timed runs per replay; the best one counts.
REPEATS = 5
N_JOBS = 2048
MIX = (64, 128, 512, 1024)


def faults_retry_inputs():
    """The faults-retry benchmark's seed-0 arrivals and fault plan."""
    rng = random.Random(0)
    arrival_seed, outage_seed, shock_seed, slow_seed = (
        rng.getrandbits(32) for _ in range(4)
    )
    arrivals = poisson_arrivals(N_JOBS, 2.0, seed=arrival_seed)
    horizon = arrivals[-1]
    outages = poisson_fault_plan(
        ["ndp", "link:cpu-ndp"],
        mtbf=50.0,
        mttr=1.0,
        horizon=horizon,
        seed=outage_seed,
        permanent_after=0.8 * horizon,
    )
    shocks = shock_fault_plan(
        [("cpu", "ndp")], rate=0.01, mttr=1.0, horizon=horizon, seed=shock_seed
    )
    slowdowns = slowdown_fault_plan(
        ["cpu"], mtbf=100.0, mttr=5.0, horizon=horizon, factor=2.0, seed=slow_seed
    )
    return arrivals, outages.merge(shocks).merge(slowdowns)


def chain_mix(framework, arrivals, dead_at):
    """The mix's jobs, duplicates sharing one pair through the caches.
    A job released at or after the NDP's death is placed off it, as the
    framework places it under the plan."""
    pairs = {}
    jobs = []
    for i, release in enumerate(arrivals):
        key = (MIX[i % len(MIX)], release >= dead_at)
        if key not in pairs:
            pipeline = framework._build_pipeline(
                problem_size(key[0]), build_pipeline
            )
            exclude = frozenset({Placement.NDP}) if key[1] else frozenset()
            record = framework._record_for(
                pipeline, framework.job_signature(pipeline), exclude
            )
            pairs[key] = (pipeline, record.schedule)
        jobs.append(pairs[key])
    return jobs


def best_seconds(batch, arrivals, timelines):
    """Best-of-:data:`REPEATS` wall seconds of the faulted and the
    healthy replay, timed in turn with garbage collection off, so a slow
    spell on the host hits both alike."""
    runs = {"faulted": timelines, "healthy": None}
    best = dict.fromkeys(runs, float("inf"))
    gc.collect()
    gc.disable()
    try:
        for _ in range(REPEATS):
            for name, faults in runs.items():
                start = time.perf_counter()
                replay_dag_batch(
                    batch.programs,
                    batch.member_group,
                    arrivals,
                    len(batch.lanes),
                    faults,
                )
                best[name] = min(best[name], time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def test_faulted_replay_near_healthy_cost(framework):
    arrivals, plan = faults_retry_inputs()
    jobs = chain_mix(framework, arrivals, plan.dead_lanes()["ndp"])
    batch = framework.executor.compile_batch(jobs, plan)
    timelines = list(map(plan.timeline, batch.lanes))
    failures = replay_dag_batch(
        batch.programs, batch.member_group, arrivals, len(batch.lanes), timelines
    )[3]
    # The plan strikes, but only a few jobs fail.
    assert 0 < len(failures) < N_JOBS // 100
    best = best_seconds(batch, arrivals, timelines)
    ratio = best["faulted"] / best["healthy"]
    assert ratio <= BOUND, (
        f"the faulted replay took {ratio:.2f}x the healthy one on "
        f"{N_JOBS} chain jobs"
    )
