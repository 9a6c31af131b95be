"""serve-bench's report: every key the committed baselines carry is
still written, bad inputs are refused before anything is measured, and
a point's wall and result come from the same repeat."""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.core.arrivals import AdmissionPolicy
from repro.core.faults import RetryPolicy, poisson_fault_plan
from repro.core.framework import NdftFramework
from repro.errors import ConfigError
from repro.experiments import scale_serving

ROOT = Path(__file__).resolve().parents[2]

#: CI's fault-injection smoke flags (``.github/workflows/ci.yml``).
FAULT_FLAGS = [
    "--mtbf", "10", "--mttr", "1", "--fault-seed", "7",
    "--shock-rate", "0.2", "--slowdown-factor", "2.0", "--checkpoint",
]

#: An admission policy and a fault plan for the input checks.
POLICY = AdmissionPolicy(slo_p99=2.0)
PLAN = poisson_fault_plan(lanes=["ndp"], mtbf=10.0, mttr=1.0, horizon=60.0)

#: Objects whose keys vary from run to run or host to host: the key
#: itself must be written, its contents are compared as a map.
MAPS = {"backend_jobs", "backend_wall_seconds", "lane_utilization", "metadata"}


def key_paths(node, prefix="$"):
    """Every key path in a JSON value; list items share a ``[]`` step."""
    paths = set()
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}"
            paths.add(path)
            if key not in MAPS:
                paths |= key_paths(value, path)
    elif isinstance(node, list):
        for item in node:
            paths |= key_paths(item, f"{prefix}[]")
    return paths


@pytest.mark.parametrize(
    ("baseline", "flags"),
    [
        ("BENCH_serving.json", []),
        ("BENCH_faults.json", FAULT_FLAGS),
        ("BENCH_fleet.json", ["--replicas", "2"]),
    ],
)
def test_fresh_report_carries_every_committed_key(baseline, flags, tmp_path):
    """The mode CI trends against ``baseline``, at toy size, writes
    every key path the committed file carries (newer keys may add)."""
    committed = json.loads((ROOT / baseline).read_text())
    path = tmp_path / baseline
    argv = ["serve-bench", "--batch-sizes", "4", "--repeats", "1"]
    assert main([*argv, *flags, "--json", str(path)]) == 0
    fresh = json.loads(path.read_text())
    assert not key_paths(committed) - key_paths(fresh)


@pytest.fixture
def no_measurement(monkeypatch):
    """Fail any measurement or fleet the benchmark starts."""

    def refuse(*args, **kwargs):
        raise AssertionError("measured before checking its inputs")

    monkeypatch.setattr(scale_serving, "measure_run_many", refuse)
    monkeypatch.setattr(scale_serving, "WorkerPool", refuse)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(batch_sizes=(16, 65536, 0)),
        dict(batch_sizes=(16,), arrival_sweep_rates=(1.0, -2.0)),
        dict(batch_sizes=(16,), arrival_sweep_rates=(1.0, float("nan"))),
        dict(batch_sizes=(16,), arrival_rate=float("inf")),
        dict(batch_sizes=(16,), arrival_rate=float("nan")),
        dict(batch_sizes=(16,), mix=()),
        # Settings that act on the open queue only, with it off.
        dict(batch_sizes=(16,), arrival_rate=0.0, admission=POLICY),
        dict(batch_sizes=(16,), arrival_rate=None, faults=PLAN),
        dict(batch_sizes=(16,), arrival_rate=0.0, faults=PLAN, retry=RetryPolicy()),
    ],
)
def test_serve_bench_checks_inputs_first(no_measurement, kwargs):
    with pytest.raises(ConfigError):
        scale_serving.run_serve_bench(repeats=1, **kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(batch_sizes=(16, 0)),
        dict(replicas=0),
        dict(rounds=0),
        dict(repeats=0),
        dict(arrival_rate=float("inf")),
    ],
)
def test_fleet_bench_checks_inputs_first(no_measurement, kwargs):
    with pytest.raises(ConfigError):
        scale_serving.run_fleet_bench(**{"batch_sizes": (16,), **kwargs})


@pytest.mark.parametrize("repeats", [True, 1.5, 2.0, "3", None])
def test_repeats_must_be_an_integer(monkeypatch, repeats):
    """``repeats=True`` would measure once and write ``"repeats": true``
    into the report, and ``1.5`` would end in ``range``'s TypeError:
    both sweeps refuse them before building a framework or a pool."""

    def refuse(*args, **kwargs):
        raise AssertionError("measured before checking its inputs")

    monkeypatch.setattr(scale_serving, "NdftFramework", refuse)
    monkeypatch.setattr(scale_serving, "WorkerPool", refuse)
    with pytest.raises(ConfigError, match="repeats"):
        scale_serving.run_serve_bench(
            batch_sizes=(4,), repeats=repeats, arrival_rate=0
        )
    with pytest.raises(ConfigError, match="repeats"):
        scale_serving.run_fleet_bench(batch_sizes=(4,), repeats=repeats)


@pytest.mark.parametrize("name", ["replicas", "rounds"])
def test_fleet_counts_must_be_integers(no_measurement, name):
    with pytest.raises(ConfigError, match=name):
        scale_serving.run_fleet_bench(batch_sizes=(4,), **{name: True})


def test_measure_run_many_returns_the_fastest_repeats_result(monkeypatch):
    """The published wall and the published backend breakdown come from
    the same repeat: with the middle of three repeats scripted to be the
    fastest, its result object is the one returned."""
    # start/stop pairs: 3 s, then 1 s, then 2 s.
    clock = iter([0.0, 3.0, 10.0, 11.0, 20.0, 22.0])
    monkeypatch.setattr(
        scale_serving, "time", SimpleNamespace(perf_counter=lambda: next(clock))
    )
    runs = []
    run_many = NdftFramework.run_many

    def recorded(self, *args, **kwargs):
        runs.append(run_many(self, *args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(NdftFramework, "run_many", recorded)
    wall, result = scale_serving.measure_run_many([64, 128], True, repeats=3)
    assert len(runs) == 3
    assert wall == 1.0
    assert result is runs[1]
