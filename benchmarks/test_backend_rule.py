"""The static backend rule against every backend it could have picked.

An unforced shard walks the backends in the order
:func:`repro.core.backends.selection_order` derives from its shape:
closed single-signature shards of at least
:data:`~repro.core.backends.VECTOR_MIN_JOBS` jobs try ``vector_replay``
first, every other shard walks the registry order.  Every backend is
bit-identical on the shards it accepts, so the rule is purely a
wall-clock choice, and this checks it with wall time: on each batch,
auto mode must stay within :data:`SLACK` of the fastest non-engine
backend that accepts the shard.

The grid stays clear of the measured crossovers (on a 2-CPU Intel Xeon
host, ``vector_replay`` overtakes ``dag_replay`` at 64-96 k-point
replicas and at 64-128 chain replicas): 16 replicas below both, 256 and
2 048 at or above them, plus an open Poisson queue of 2 048, which
``vector_replay`` declines.  Replicas share one (pipeline, schedule)
pair through the framework caches, as duplicate jobs do in
``run_many``.
"""

import gc

import pytest

from repro.core.arrivals import poisson_arrivals
from repro.core.backends import backend_names
from repro.core.pipeline import build_kpoint_pipeline, build_pipeline
from repro.dft.workload import problem_size
from repro.errors import SimulationError

#: Auto mode may take at most this multiple of the fastest backend.
SLACK = 1.5
#: Timed runs per (batch, backend); the best one counts.
REPEATS = 5
TEMPLATES = {"chain": build_pipeline, "kpoint": build_kpoint_pipeline}
#: (replicas, open queue) per batch.
BATCHES = ((16, False), (256, False), (2048, False), (2048, True))


def replicas(framework, builder, n_jobs):
    """``n_jobs`` replicas of the Si_512 job, sharing one pair."""
    pipeline = framework._build_pipeline(problem_size(512), builder)
    schedule = framework._record_for(
        pipeline, framework.job_signature(pipeline)
    ).schedule
    return [(pipeline, schedule)] * n_jobs


def best_seconds(executor, jobs, arrivals):
    """Best-of-:data:`REPEATS` simulation wall seconds, declined
    attempts included, for auto mode (key ``None``) and each non-engine
    backend that can simulate the shard.  Each round times them all in
    turn, so a slow spell on the host hits every backend alike, and
    garbage collection is off while timing, as in :mod:`timeit`: a
    collection would land on whichever call trips it, and with the
    backends timed in a fixed rotation that is often the same one."""
    best = dict.fromkeys(
        [None] + [name for name in backend_names() if name != "engine"],
        float("inf"),
    )
    gc.collect()
    gc.disable()
    try:
        for _ in range(REPEATS):
            for backend in list(best):
                try:
                    report = executor.execute_many(
                        jobs, arrivals=arrivals, backend=backend
                    )
                except SimulationError:
                    del best[backend]
                    continue
                seconds = sum(t.wall_seconds for t in report.backend_timings)
                best[backend] = min(best[backend], seconds)
    finally:
        gc.enable()
    return best


def auto_over_best(executor, jobs, arrivals):
    """Auto mode's best wall over the fastest forced backend's."""
    best = best_seconds(executor, jobs, arrivals)
    auto = best.pop(None)
    return auto / min(best.values())


@pytest.mark.parametrize("template", sorted(TEMPLATES))
@pytest.mark.parametrize(("n_jobs", "open_queue"), BATCHES)
def test_auto_within_slack_of_fastest_backend(
    framework, template, n_jobs, open_queue
):
    jobs = replicas(framework, TEMPLATES[template], n_jobs)
    arrivals = poisson_arrivals(n_jobs, 3.0, seed=7) if open_queue else None
    ratio = auto_over_best(framework.executor, jobs, arrivals)
    assert ratio <= SLACK, (
        f"auto mode took {ratio:.2f}x the fastest backend on "
        f"{n_jobs} {template} replicas ({'open' if open_queue else 'closed'})"
    )
