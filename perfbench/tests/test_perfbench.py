"""Self-tests of the benchmark's own code: trace arithmetic, digests,
seeded inputs, and a toy-size run of every workload.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import math
import random
import time
from collections import Counter
from dataclasses import replace
from itertools import count

import numpy as np
import pytest

import digest
import hostspeed
import run
import spans
from repro.core.arrivals import poisson_arrivals
from repro.core.framework import NdftFramework
from repro.core.pipeline import build_kpoint_pipeline
from workloads import WORKLOADS, ColdSizes, FaultsRetry

#: Job counts small enough for every workload to finish in about a second.
TOY = {
    "closed-mix": {"n_chain": 64, "n_kpoint": 16},
    "open-kpoint-admit": {"n_jobs": 48},
    "cold-sizes": {"n_sizes": 12},
    "faults-retry": {"n_jobs": 96},
    "fleet-open": {"n_jobs": 48},
}


def test_self_time_subtracts_direct_children_only():
    # call [0, 10] > framework [1, 7] > executor [2, 6] > engine [3, 4]
    #             > pipeline [8, 9]
    spans_ = [
        [0, 0, None, "call", 0.0, 10.0],
        [0, 1, 0, "framework", 1.0, 7.0],
        [0, 2, 1, "executor", 2.0, 6.0],
        [0, 3, 2, "hw.engine", 3.0, 4.0],
        [0, 4, 0, "pipeline", 8.0, 9.0],
    ]
    assert spans.self_seconds(spans_) == {0: 3.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0}
    by_layer = spans.layer_self_seconds(spans_)
    assert by_layer == {
        "call": 3.0,
        "framework": 2.0,
        "executor": 3.0,
        "hw.engine": 1.0,
        "pipeline": 1.0,
    }
    assert sum(by_layer.values()) == 10.0


def test_recorder_nests_spans_and_counts_per_call():
    ticks = count()
    recorder = spans.Recorder(clock=lambda: float(next(ticks)))
    layer = spans.wrap(recorder, "scheduler", lambda x: x + 1)
    assert layer(1) == 2 and recorder.spans == []  # inactive: no span
    root = recorder.begin_call()
    outer = recorder.enter("framework")
    assert layer(2) == 3
    recorder.exit(outer)
    recorder.count("scheduler.calls", 2)
    recorder.end_call(root)
    metrics = spans.call_metrics(recorder, 0, Counter(), 0.0)
    assert [s[3] for s in recorder.spans] == ["call", "framework", "scheduler"]
    assert [s[2] for s in recorder.spans] == [None, 0, 1]
    assert metrics["scheduler.s"] == 1.0
    assert metrics["framework.self_s"] == 2.0
    assert metrics["trace.residual_s"] == 2.0
    assert metrics["scheduler.calls"] == 2
    assert {name for name, _unit in spans.PER_LAYER_METRICS} == set(metrics)


def _open_batch(backend=None):
    sizes = [64, 128, 512, 1024] * 4
    framework = NdftFramework()
    return (
        framework.run_many(sizes, backend=backend),
        framework.run_many(
            sizes,
            pipeline_builder=build_kpoint_pipeline,
            arrivals=poisson_arrivals(len(sizes), 3.0, seed=5),
            backend=backend,
        ),
    )


def _digest(results):
    d = digest.Digest()
    for result in results:
        digest.add_batch(d, result)
    return d.hexdigest()


def test_digest_moves_with_one_ulp_of_one_completion():
    closed, open_ = _open_batch()
    job = closed.jobs[5]
    moved = replace(
        job,
        report=replace(
            job.report, total_time=math.nextafter(job.report.total_time, math.inf)
        ),
    )
    jobs = closed.jobs[:5] + (moved,) + closed.jobs[6:]
    assert _digest((replace(closed, jobs=jobs), open_)) != _digest((closed, open_))


def test_digest_is_the_same_whichever_backend_simulates():
    routed = _open_batch()
    forced = _open_batch(backend="engine")
    assert forced[0].batch_report.backend_jobs == {"engine": 16}
    assert routed[0].batch_report.backend_jobs != {"engine": 16}
    assert _digest(forced) == _digest(routed)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    workload = WORKLOADS[name](**TOY[name])
    first = workload.inputs(7)
    random.seed(99)
    np.random.seed(99)
    assert WORKLOADS[name](**TOY[name]).inputs(7) == first
    assert (workload.inputs(8) != first) == workload.seeded


def test_cold_sizes_are_distinct_and_stratified():
    for seed in range(3):
        sizes = ColdSizes().inputs(seed)["sizes"]
        assert len(set(sizes)) == len(sizes) == ColdSizes.n_sizes
        assert sizes == sorted(sizes) and 8 <= sizes[0] and sizes[-1] <= 4096


def test_host_scale_cancels_a_uniform_slowdown():
    # A host twice as slow doubles the seconds of the call and of the
    # probes on either side of it alike.
    reference = hostspeed.REFERENCE_PROBE_S
    assert hostspeed.scale(reference, reference) == 1.0
    assert 3.0 * hostspeed.scale(2 * reference, 2 * reference) == 1.5
    assert hostspeed.scale(reference, 3 * reference) == 0.5
    assert hostspeed.probe() > 0


def test_fault_retries_release_after_every_outage():
    # The first retry of any job releases after the last outage ends, so
    # retries never move a first attempt and the retry loop takes two
    # rounds whatever the seed.
    for seed in range(4):
        inputs = FaultsRetry().inputs(seed)
        plan = inputs["plan"]
        assert plan.outages and plan.slowdowns
        last = max(end for _lane, _start, end in plan.outages)
        assert inputs["retry"].backoff(1) > max(last, *plan.event_times())


def test_reported_metrics_are_the_declared_ones():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(
        spans.PER_LAYER_METRICS
    )
    assert {m["name"] for m in declared["end_to_end"]} == {
        "jobs_per_s",
        "setup_s",
        "peak_rss_mb",
    }
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_toy_run_of_every_workload(name, trace, tmp_path):
    workload = WORKLOADS[name](**TOY[name])
    path = tmp_path / "spans.jsonl"
    result = run.measure(
        workload, 0, 0.0, trace, time.perf_counter(), spans_path=path
    )
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 * run.MIN_TRACED_PAIRS if trace else 3)
    if trace:
        expected = {name for name, _unit in spans.PER_LAYER_METRICS}
        assert path.stat().st_size > 0
    else:
        expected = {"jobs_per_s", "setup_s", "peak_rss_mb"}
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(result["metrics"]) == expected


def test_a_call_with_unexpected_outputs_fails_the_run():
    workload = WORKLOADS["cold-sizes"](**TOY["cold-sizes"])
    result = run.measure(workload, 0, 0.0, 0, time.perf_counter(), expected="0")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 3
    assert result["metrics"]["jobs_per_s"]["value"] > 0
