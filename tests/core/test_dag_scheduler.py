"""The topological-DP scheduler vs the exhaustive oracle, and the target
registry (GPU as a third schedulable device)."""

import random

import pytest

from repro.core.framework import NdftFramework
from repro.core.pipeline import build_kpoint_pipeline, build_pipeline
from repro.core.scheduler import Placement, SchedulingPolicy
from repro.core.trace import build_timeline, validate_timeline
from repro.dft.workload import problem_size
from repro.errors import SchedulingError
from repro.hw.timing import PhaseTime

from tests.core.dag_helpers import (
    diamond_pipeline,
    random_pipeline,
    relabelled_pipeline,
)


@pytest.fixture(scope="module")
def gpu_framework():
    return NdftFramework(enable_gpu=True)


class TestDpMatchesOracle:
    """The acceptance property: the DP is exact, enumeration is the oracle."""

    @pytest.mark.parametrize("n_atoms", [16, 64, 200, 512, 1024, 2048])
    def test_chain_matches_exhaustive(self, framework, n_atoms):
        pipeline = build_pipeline(problem_size(n_atoms))
        dp = framework.scheduler.schedule(pipeline, SchedulingPolicy.COST_AWARE)
        oracle = framework.scheduler._exhaustive_best(pipeline)
        assert dp.predicted_total == oracle.predicted_total
        assert dp.assignments == oracle.assignments

    def test_diamond_matches_exhaustive(self, framework):
        pipeline = diamond_pipeline()
        dp = framework.scheduler.schedule(pipeline, SchedulingPolicy.COST_AWARE)
        oracle = framework.scheduler._exhaustive_best(pipeline)
        assert dp.predicted_total == pytest.approx(
            oracle.predicted_total, rel=1e-12
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_random_dags_match_exhaustive(self, framework, seed):
        """Property-style sweep: random <= 8-stage DAGs, DP == oracle."""
        rng = random.Random(20260729 + seed)
        pipeline = random_pipeline(rng, n_stages=rng.randint(3, 8))
        dp = framework.scheduler.schedule(pipeline, SchedulingPolicy.COST_AWARE)
        oracle = framework.scheduler._exhaustive_best(pipeline)
        assert dp.predicted_total == pytest.approx(
            oracle.predicted_total, rel=1e-12
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_cost_aware_dominates_other_policies(self, framework, seed):
        """COST_AWARE <= ALL_CPU, ALL_NDP and NAIVE on arbitrary DAGs."""
        rng = random.Random(31337 + seed)
        pipeline = random_pipeline(rng, n_stages=rng.randint(3, 8))
        best = framework.scheduler.schedule(
            pipeline, SchedulingPolicy.COST_AWARE
        ).predicted_total
        for policy in (
            SchedulingPolicy.ALL_CPU,
            SchedulingPolicy.ALL_NDP,
            SchedulingPolicy.NAIVE,
        ):
            other = framework.scheduler.schedule(pipeline, policy)
            assert best <= other.predicted_total * (1 + 1e-12)

    def test_kpoint_dag_matches_exhaustive(self, framework):
        pipeline = build_kpoint_pipeline(problem_size(64), n_kpoints=2)
        assert len(pipeline.stages) == 8
        dp = framework.scheduler.schedule(pipeline, SchedulingPolicy.COST_AWARE)
        oracle = framework.scheduler._exhaustive_best(pipeline)
        assert dp.predicted_total == pytest.approx(
            oracle.predicted_total, rel=1e-12
        )

    @pytest.mark.parametrize(
        "builder",
        [build_pipeline, build_kpoint_pipeline],
        ids=["chain", "kpoint"],
    )
    def test_relabelled_pipeline_places_identically(
        self, framework, builder
    ):
        """The DP keys its states by stage name, yet the placement is a
        function of work and bytes only: a relabelled copy gets the same
        target at every position and the same predicted total, bit for
        bit."""
        pipeline = builder(problem_size(512))
        relabelled = relabelled_pipeline(pipeline, "alias/")
        original = framework.scheduler.schedule(
            pipeline, SchedulingPolicy.COST_AWARE
        )
        renamed = framework.scheduler.schedule(
            relabelled, SchedulingPolicy.COST_AWARE
        )
        assert [renamed.assignments[s.name] for s in relabelled.stages] == [
            original.assignments[s.name] for s in pipeline.stages
        ]
        assert renamed.predicted_total == original.predicted_total


class TestGpuTarget:
    def test_registry_defaults_to_paper_targets(self, framework):
        assert framework.scheduler.targets == (Placement.CPU, Placement.NDP)

    def test_gpu_registered_as_third_target(self, gpu_framework):
        assert gpu_framework.scheduler.targets == (
            Placement.CPU,
            Placement.NDP,
            Placement.GPU,
        )

    def test_unregistered_target_rejected(self, framework):
        pipeline = build_pipeline(problem_size(64))
        with pytest.raises(SchedulingError, match="no machine registered"):
            framework.scheduler.evaluate(
                pipeline,
                {name: Placement.GPU for name in pipeline.stage_names},
            )

    def test_three_target_dp_matches_exhaustive(self, gpu_framework):
        """3^6 oracle vs the DP with the GPU in the registry."""
        pipeline = build_pipeline(problem_size(1024))
        dp = gpu_framework.scheduler.schedule(
            pipeline, SchedulingPolicy.COST_AWARE
        )
        oracle = gpu_framework.scheduler._exhaustive_best(pipeline)
        assert dp.predicted_total == pytest.approx(
            oracle.predicted_total, rel=1e-12
        )
        assert dp.assignments == oracle.assignments

    def test_cost_aware_mixes_device_kinds(self, gpu_framework):
        """A pipeline whose cost-aware placement uses >= 2 device kinds."""
        pipeline = build_pipeline(problem_size(1024))
        schedule = gpu_framework.scheduler.schedule(
            pipeline, SchedulingPolicy.COST_AWARE
        )
        assert len(schedule.placements_used) >= 2

    def test_extra_target_never_hurts(self, gpu_framework, framework):
        """Adding a target can only keep or lower the optimum."""
        for n_atoms in (64, 1024):
            pipeline = build_pipeline(problem_size(n_atoms))
            two = framework.scheduler.schedule(
                pipeline, SchedulingPolicy.COST_AWARE
            )
            three = gpu_framework.scheduler.schedule(
                pipeline, SchedulingPolicy.COST_AWARE
            )
            assert three.predicted_total <= two.predicted_total * (1 + 1e-12)

    def test_gpu_schedule_executes_end_to_end(self, gpu_framework):
        """A schedule that may include the GPU still runs through the DES
        (the executor builds device lanes from the assignment set)."""
        result = gpu_framework.run(n_atoms=1024)
        assert result.total_time > 0

    def test_gpu_boundaries_priced_on_pcie(self, gpu_framework):
        """CPU<->GPU crossings must pay the PCIe wire, NDP<->GPU the
        serialized host-link + PCIe path — not the CPU<->NDP link."""
        model = gpu_framework.cost_model
        nbytes = 1e9
        cpu_ndp = model.boundary_cost(nbytes, (Placement.CPU, Placement.NDP))
        cpu_gpu = model.boundary_cost(nbytes, (Placement.CPU, Placement.GPU))
        ndp_gpu = model.boundary_cost(nbytes, (Placement.NDP, Placement.GPU))
        assert cpu_gpu != cpu_ndp
        # PCIe (32 GB/s aggregate) is slower than the halved 64 GB/s CXL
        # link, and the staged NDP->GPU path pays both wires.
        assert cpu_gpu > cpu_ndp
        assert ndp_gpu > max(cpu_ndp, cpu_gpu)
        # order of the pair must not matter
        assert cpu_gpu == model.boundary_cost(
            nbytes, (Placement.GPU, Placement.CPU)
        )

    def test_multi_wire_timeline_validates(self, gpu_framework):
        """Two branches crossing onto different wires transfer
        concurrently; per-wire lanes keep validate_timeline happy."""
        pipeline = build_kpoint_pipeline(problem_size(64), n_kpoints=2)
        assignments = {
            "pseudopotential": Placement.CPU,
            "face_split[k0]": Placement.NDP,
            "fft[k0]": Placement.NDP,
            "face_split[k1]": Placement.GPU,
            "fft[k1]": Placement.GPU,
            "global_comm": Placement.NDP,
            "gemm": Placement.CPU,
            "syevd": Placement.CPU,
        }
        schedule = gpu_framework.scheduler.evaluate(pipeline, assignments)
        events = build_timeline(pipeline, schedule, gpu_framework.cost_model)
        validate_timeline(events)  # must not flag cross-wire concurrency
        link_lanes = {e.lane for e in events if e.lane.startswith("link")}
        assert {"link:cpu-ndp", "link:cpu-gpu"} <= link_lanes

    def test_register_target_swaps_machine(self, framework):
        """Plugging a dominant custom machine redirects every stage."""

        class InstantMachine:
            def execute(self, workload):
                return PhaseTime(
                    name=str(workload.name),
                    compute_time=1e-9,
                    memory_time=1e-9,
                )

        scheduler = NdftFramework().scheduler  # private copy, not the fixture
        scheduler.register_target(Placement.GPU, InstantMachine())
        pipeline = build_pipeline(problem_size(64))
        schedule = scheduler.schedule(pipeline, SchedulingPolicy.COST_AWARE)
        assert set(schedule.assignments.values()) == {Placement.GPU}
