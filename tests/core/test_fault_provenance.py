"""Fault plans redraw from their own JSON descriptors.

Each drawing helper records its name and keyword arguments in the plan's
``provenance``, and :meth:`FaultPlan.merge` concatenates the records in
call order.  So a descriptor written to JSON and read back draws the
same plan again: calling each record's helper with its parameters and
merging the parts in order gives the same ``digest()`` and the same
``to_json_dict()``.  The committed fault baseline, ``BENCH_faults.json``,
is held to the same property.
"""

import argparse
import json
import random
from pathlib import Path

import pytest

from repro.cli import _fault_setup
from repro.core import faults
from repro.core.arrivals import poisson_arrivals
from repro.core.faults import (
    FaultPlan,
    poisson_fault_plan,
    shock_fault_plan,
    slowdown_fault_plan,
)

HELPERS = ("poisson_fault_plan", "shock_fault_plan", "slowdown_fault_plan")
LANES = ("cpu", "ndp", "gpu", "link:cpu-ndp", "link:cpu-gpu")
BASELINE = Path(__file__).resolve().parents[2] / "BENCH_faults.json"


def redraw(records) -> FaultPlan:
    """The plan a descriptor's ``provenance`` records describe."""
    plan = None
    for record in records:
        params = dict(record)
        helper = params.pop("helper")
        assert helper in HELPERS
        part = getattr(faults, helper)(**params)
        plan = part if plan is None else plan.merge(part)
    return plan


def assert_redraws(plan: FaultPlan) -> None:
    descriptor = json.loads(json.dumps(plan.to_json_dict()))
    again = redraw(descriptor["provenance"])
    assert again.digest() == plan.digest()
    assert again.to_json_dict() == plan.to_json_dict() == descriptor


def _lanes(rng, as_generator):
    lanes = rng.sample(LANES, rng.randint(1, 3))
    return (lane for lane in lanes) if as_generator else lanes


def _clock(rng):
    return dict(
        mttr=rng.uniform(0.1, 3.0),
        horizon=rng.uniform(5.0, 80.0),
        seed=rng.randrange(2**32),
    )


def random_poisson(rng, as_generator=False):
    lanes = _lanes(rng, False)
    if rng.random() < 0.3:
        lanes.append(lanes[0])  # the draw walks a duplicate lane twice
    clock = _clock(rng)
    permanent_after = (
        rng.uniform(0.0, clock["horizon"]) if rng.random() < 0.5 else None
    )
    return poisson_fault_plan(
        (lane for lane in lanes) if as_generator else lanes,
        mtbf=rng.uniform(1.0, 20.0),
        permanent_after=permanent_after,
        **clock,
    )


def random_shock(rng, as_generator=False):
    groups = [
        _lanes(rng, as_generator) if rng.random() < 0.7 else rng.choice(LANES)
        for _ in range(rng.randint(1, 3))
    ]
    return shock_fault_plan(groups, rate=rng.uniform(0.05, 1.0), **_clock(rng))


def random_slowdown(rng, as_generator=False):
    return slowdown_fault_plan(
        _lanes(rng, as_generator),
        mtbf=rng.uniform(1.0, 20.0),
        factor=rng.uniform(1.1, 4.0),
        **_clock(rng),
    )


DRAWS = {
    "poisson_fault_plan": random_poisson,
    "shock_fault_plan": random_shock,
    "slowdown_fault_plan": random_slowdown,
}


@pytest.mark.parametrize("helper", HELPERS)
@pytest.mark.parametrize("seed", range(12))
def test_every_helper_redraws(helper, seed):
    rng = random.Random(seed)
    plan = DRAWS[helper](rng, as_generator=seed % 2 == 1)
    ((recorded, _params),) = plan.provenance
    assert recorded == helper
    assert_redraws(plan)


@pytest.mark.parametrize("seed", range(20))
def test_random_merges_redraw(seed):
    rng = random.Random(1000 + seed)
    # One slowdown draw per plan: two on one lane would overlap, which a
    # plan refuses.
    kinds = rng.choices(HELPERS[:2], k=rng.randint(1, 3))
    kinds.insert(rng.randint(0, len(kinds)), HELPERS[2])
    parts = [DRAWS[kind](rng, as_generator=rng.random() < 0.5) for kind in kinds]
    plan = parts[0]
    for part in parts[1:]:
        plan = plan.merge(part)
    assert [helper for helper, _params in plan.provenance] == kinds
    assert_redraws(plan)


def test_explicit_plan_has_no_provenance():
    plan = FaultPlan(outages=(("ndp", 1.0, 2.0),))
    assert plan.provenance == ()
    assert plan.to_json_dict()["provenance"] == []
    drawn = poisson_fault_plan(["cpu"], mtbf=5.0, mttr=1.0, horizon=30.0)
    assert plan.merge(drawn).provenance == drawn.provenance


def test_cli_composition_redraws(framework):
    """CI's fault-smoke flags: outages and shocks under seed 7, and
    slowdowns under seed 8."""
    args = argparse.Namespace(
        mtbf=10.0,
        mttr=1.0,
        fault_seed=7,
        fault_horizon=60.0,
        fault_lanes=["ndp"],
        shock_rate=0.2,
        shock_groups=None,
        slowdown_factor=2.0,
        checkpoint=True,
    )
    plan, _retry = _fault_setup(args, framework)
    assert plan.digest() == "34db6de726618f62"
    assert (len(plan.outages), len(plan.slowdowns)) == (50, 3)
    records = plan.to_json_dict()["provenance"]
    assert [(r["helper"], r["seed"]) for r in records] == [
        ("poisson_fault_plan", 7),
        ("shock_fault_plan", 7),
        ("slowdown_fault_plan", 8),
    ]
    assert records[2]["factor"] == 2.0
    assert_redraws(plan)


@pytest.mark.parametrize("seed", [0, 914237])
def test_perfbench_faults_retry_composition_redraws(seed):
    """The faults-retry benchmark workload's plan: permanent deaths late
    in the horizon and three sub-seeds."""
    rng = random.Random(seed)
    arrival_seed, outage_seed, shock_seed, slow_seed = (
        rng.getrandbits(32) for _ in range(4)
    )
    horizon = poisson_arrivals(2048, 2.0, seed=arrival_seed)[-1]
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
    plan = outages.merge(shocks).merge(slowdowns)
    assert plan.permanent and plan.slowdowns
    assert_redraws(plan)


def test_committed_fault_baseline_redraws():
    """``BENCH_faults.json``'s fault descriptor reproduces its plan."""
    committed = json.loads(BASELINE.read_text())["faults"]["plan"]
    plan = redraw(committed["provenance"])
    assert plan.digest() == committed["digest"]
    assert len(plan.outages) == committed["n_outages"]
    assert len(plan.slowdowns) == committed["n_slowdowns"]
    assert sorted(plan.lanes) == committed["lanes"]
    assert plan.to_json_dict() == committed
