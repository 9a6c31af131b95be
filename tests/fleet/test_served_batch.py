"""One machine and a one-replica fleet report the same serving
statistics.  Both result types inherit them from
:class:`~repro.core.framework.ServedBatch`, so the same batch served by
``NdftFramework.run_many`` and by ``WorkerPool(1).serve`` must agree
float for float, closed and as an open queue, and so must the
open-queue point serve-bench builds from each."""

import pytest

from repro.core.arrivals import poisson_arrivals
from repro.core.framework import NdftFramework, ServedBatch
from repro.experiments.scale_serving import arrival_point, job_mix
from repro.fleet import WorkerPool

SIZES = job_mix(256)

STATISTICS = (
    "completion_latencies",
    "queueing_delays",
    "p50_latency",
    "p99_latency",
    "slo_p50_latency",
    "slo_p99_latency",
    "mean_queueing_delay",
    "throughput",
    "busy_span",
    "makespan",
    "lane_busy_seconds",
    "lane_utilization",
)


@pytest.fixture(scope="module", params=["closed", "open"])
def pair(request):
    arrivals = (
        None
        if request.param == "closed"
        else poisson_arrivals(len(SIZES), 3.0, seed=0)
    )
    batch = NdftFramework().run_many(SIZES, arrivals=arrivals)
    with WorkerPool(1, inline=True) as pool:
        fleet = pool.serve(SIZES, arrivals=arrivals)
    return batch, fleet


def test_both_results_are_served_batches(pair):
    batch, fleet = pair
    assert isinstance(batch, ServedBatch) and isinstance(fleet, ServedBatch)
    assert fleet.admission is None and fleet.resilience is None


@pytest.mark.parametrize("name", STATISTICS)
def test_same_statistic(pair, name):
    batch, fleet = pair
    assert getattr(fleet, name) == getattr(batch, name)


def test_same_open_queue_point(pair):
    batch, fleet = pair
    assert arrival_point(3.0, 0, 1.0, fleet) == arrival_point(3.0, 0, 1.0, batch)
