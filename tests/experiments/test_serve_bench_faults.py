"""``serve-bench`` admission accounting under fault injection.

With admission off, every submitted job counts as admitted, so a point
must satisfy submitted = admitted + shed even when the fault plan makes
the retry loop abandon jobs (the batch result then holds only the
completed ones).
"""

import json

from repro.cli import main
from repro.core.faults import FaultPlan, RetryPolicy
from repro.core.framework import NdftFramework
from repro.experiments.scale_serving import _shed_stats

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
    assert _shed_stats(result) == (0.0, len(sizes), 0)
