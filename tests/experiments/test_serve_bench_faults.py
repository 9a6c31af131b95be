"""``serve-bench`` admission accounting under fault injection.

With admission off, every submitted job counts as admitted, so a point
must satisfy submitted = admitted + shed even when the fault plan makes
the retry loop abandon jobs (the batch result then holds only the
completed ones).  With admission on, a point reports the controller's
own outcome.
"""

import json

from repro.cli import main
from repro.core.arrivals import AdmissionPolicy, poisson_arrivals
from repro.core.faults import FaultPlan, RetryPolicy
from repro.core.framework import NdftFramework
from repro.experiments.scale_serving import arrival_point

#: The CI fault-injection smoke's flags: at 64 jobs two of them are
#: abandoned.
FAULT_FLAGS = [
    "--mtbf", "10", "--mttr", "1", "--fault-seed", "7",
    "--shock-rate", "0.2", "--slowdown-factor", "2.0", "--checkpoint",
]


def test_faulted_point_counts_abandoned_jobs_as_admitted(tmp_path):
    path = tmp_path / "faults.json"
    argv = ["serve-bench", "--batch-sizes", "64", "--repeats", "1"]
    assert main([*argv, *FAULT_FLAGS, "--json", str(path)]) == 0
    (point,) = json.loads(path.read_text())["points"]
    arrival = point["arrival"]
    resilience = arrival["resilience"]
    assert resilience["abandoned"] > 0  # the case this test exists for
    assert resilience["submitted"] == point["batch_size"] == 64
    assert arrival["admitted"] + arrival["shed"] == point["batch_size"]


def test_shed_stats_reports_the_submitted_count():
    framework = NdftFramework()
    sizes = [64, 128, 512, 1024]
    healthy = framework.run_many(sizes)
    start, end = max(
        healthy.batch_report.lane_occupancy["ndp"],
        key=lambda span: span[1] - span[0],
    )
    # An ndp outage that starts mid-service and outlasts every retry.
    plan = FaultPlan(outages=(("ndp", (start + end) / 2, 1e9),))
    result = framework.run_many(
        sizes, faults=plan, retry=RetryPolicy(max_attempts=1)
    )
    assert result.resilience.abandoned >= 1
    assert result.n_jobs < len(sizes)
    point = arrival_point(1.0, 0, 0.0, result)
    assert (point["shed_rate"], point["admitted"], point["shed"]) == (
        0.0,
        len(sizes),
        0,
    )


def test_from_result_reports_the_admission_outcome():
    framework = NdftFramework()
    sizes = [64, 128, 512, 1024] * 4
    result = framework.run_many(
        sizes,
        arrivals=poisson_arrivals(len(sizes), 30.0, seed=0),
        admission=AdmissionPolicy(slo_p99=2.0),
    )
    report = result.admission
    assert report.shed > 0  # past the knee, so the controller sheds
    point = arrival_point(30.0, 0, 0.5, result)
    assert (point["shed_rate"], point["admitted"], point["shed"]) == (
        report.shed_rate,
        report.admitted,
        report.shed,
    )
    assert (
        point["rate_jobs_per_second"],
        point["seed"],
        point["wall_seconds"],
    ) == (30.0, 0, 0.5)
    assert point["p99_latency_seconds"] == result.slo_p99_latency
    assert point["resilience"] is None
