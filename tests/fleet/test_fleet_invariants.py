"""check_fleet_invariants: a served fleet passes it, a result that lost
a completion or reports a negative one is refused with a message naming
the broken invariant, and serve-bench's fleet sweep checks every result
it records."""

import dataclasses

import pytest

from repro.core.arrivals import poisson_arrivals
from repro.core.framework import NdftFramework, queueing_delays
from repro.errors import SimulationError
from repro.experiments import scale_serving
from repro.experiments.scale_serving import job_mix
from repro.fleet import WorkerPool, check_fleet_invariants

SIZES = job_mix(64)


@pytest.fixture(scope="module", params=["closed", "open"])
def served(request):
    arrivals = (
        None
        if request.param == "closed"
        else poisson_arrivals(len(SIZES), 2.0, seed=0)
    )
    with WorkerPool(2, inline=True) as pool:
        return pool.serve(SIZES, arrivals=arrivals)


def _with_replica(result, replica, **changes):
    """``result`` with one replica summary's fields replaced."""
    replicas = list(result.replicas)
    replicas[replica] = dataclasses.replace(replicas[replica], **changes)
    return dataclasses.replace(result, replicas=tuple(replicas))


def test_served_fleet_passes(served):
    check_fleet_invariants(served)
    # The routing estimates are the framework's solo times, and the
    # queueing delays are the framework's function of them.
    assert served.solo_times == NdftFramework().job_estimates(SIZES)[0]
    delays = queueing_delays(
        served.completion_latencies, served.solo_times, served.arrivals
    )
    assert served.queueing_delays == delays
    assert served.mean_queueing_delay == sum(delays) / len(delays)


def test_dropped_completion_is_refused(served):
    last = served.replicas[-1]
    dropped = _with_replica(
        served, -1, completion_times=last.completion_times[:-1]
    )
    # The job without a completion reads 0.0, which the latency check
    # alone would accept.
    assert dropped.completion_times[last.job_indices[-1]] == 0.0
    with pytest.raises(
        SimulationError,
        match=(
            f"replica {last.replica} completed {last.n_jobs - 1} of its "
            f"{last.n_jobs} routed jobs"
        ),
    ):
        check_fleet_invariants(dropped)


def test_dropped_job_is_refused(served):
    last = served.replicas[-1]
    dropped = _with_replica(
        served,
        -1,
        job_indices=last.job_indices[:-1],
        completion_times=last.completion_times[:-1],
    )
    with pytest.raises(
        SimulationError,
        match=f"hold {len(SIZES) - 1} jobs, not each of the {len(SIZES)}",
    ):
        check_fleet_invariants(dropped)


def test_negative_completion_is_refused(served):
    first = served.replicas[0]
    negative = _with_replica(
        served, 0, completion_times=(-1.0, *first.completion_times[1:])
    )
    with pytest.raises(
        SimulationError, match="completion latencies are negative"
    ):
        check_fleet_invariants(negative)


def test_fleet_bench_checks_every_result(monkeypatch):
    class DroppingPool(WorkerPool):
        def __init__(self, n_replicas):
            super().__init__(n_replicas, inline=True)

        def serve(self, *args, **kwargs):
            result = super().serve(*args, **kwargs)
            last = result.replicas[-1]
            return _with_replica(
                result, -1, completion_times=last.completion_times[:-1]
            )

    monkeypatch.setattr(scale_serving, "WorkerPool", DroppingPool)
    with pytest.raises(SimulationError, match="fleet result violates"):
        scale_serving.run_fleet_bench(batch_sizes=(16,), repeats=1, rounds=1)
