"""DAG pipeline validation, branch-parallel execution and batching."""

import pytest

from repro.core.executor import PipelineExecutor
from repro.core.pipeline import (
    Edge,
    Pipeline,
    build_kpoint_pipeline,
    build_pipeline,
)
from repro.core.scheduler import Placement, SchedulingPolicy
from repro.core.trace import build_timeline, validate_timeline
from repro.dft.workload import problem_size
from repro.errors import ConfigError, SimulationError
from repro.model import PhaseName

from tests.core.dag_helpers import diamond_pipeline, make_stage


@pytest.fixture(scope="module")
def diamond():
    return diamond_pipeline()


class TestDagValidation:
    def test_cycle_rejected(self):
        stages = tuple(make_stage(n, 1e10, 1e9) for n in ("a", "b", "c"))
        edges = (Edge("a", "b", 1.0), Edge("b", "c", 1.0), Edge("c", "a", 1.0))
        with pytest.raises(ConfigError, match="cycle"):
            Pipeline(problem=problem_size(64), stages=stages, edges=edges)

    def test_two_node_cycle_rejected(self):
        stages = tuple(make_stage(n, 1e10, 1e9) for n in ("a", "b"))
        edges = (Edge("a", "b", 1.0), Edge("b", "a", 1.0))
        with pytest.raises(ConfigError, match="cycle"):
            Pipeline(problem=problem_size(64), stages=stages, edges=edges)

    def test_self_edge_rejected(self):
        with pytest.raises(ConfigError, match="self-edge"):
            Edge("a", "a", 1.0)

    def test_unknown_edge_endpoint_rejected(self):
        stages = (make_stage("a", 1e10, 1e9),)
        with pytest.raises(ConfigError, match="unknown stage"):
            Pipeline(
                problem=problem_size(64),
                stages=stages,
                edges=(Edge("a", "ghost", 1.0),),
            )

    def test_duplicate_stage_names_rejected(self):
        stages = (make_stage("a", 1e10, 1e9), make_stage("a", 2e10, 2e9))
        with pytest.raises(ConfigError, match="duplicate"):
            Pipeline(problem=problem_size(64), stages=stages, edges=())

    def test_unknown_stage_lookup(self, diamond):
        with pytest.raises(ConfigError, match="no stage named"):
            diamond.stage("nonexistent")
        with pytest.raises(ConfigError):
            diamond.in_edges("nonexistent")


class TestDagStructure:
    def test_diamond_adjacency(self, diamond):
        assert diamond.predecessors("d") == ("b", "c")
        assert diamond.successors("a") == ("b", "c")
        assert diamond.entry_stages == ("a",)
        assert diamond.exit_stages == ("d",)
        assert not diamond.is_chain

    def test_diamond_topological_order(self, diamond):
        order = diamond.topological_order
        position = {name: i for i, name in enumerate(order)}
        for edge in diamond.edges:
            assert position[edge.src] < position[edge.dst]

    def test_chain_is_chain(self):
        chain = build_pipeline(problem_size(64))
        assert chain.is_chain
        assert chain.topological_order == tuple(chain.stage_names)

    def test_critical_path_excludes_parallel_branch(self, diamond):
        weights = {"a": 1.0, "b": 5.0, "c": 3.0, "d": 2.0}
        assert diamond.critical_path_length(weights.__getitem__) == 8.0


class TestKpointBuilder:
    @pytest.fixture(scope="class")
    def kpoint(self):
        return build_kpoint_pipeline(problem_size(256), n_kpoints=2)

    def test_branch_fan_out_and_in(self, kpoint):
        pseudo = str(PhaseName.PSEUDOPOTENTIAL)
        comm = str(PhaseName.GLOBAL_COMM)
        assert len(kpoint.successors(pseudo)) == 2
        assert len(kpoint.predecessors(comm)) == 2
        assert not kpoint.is_chain

    def test_work_is_conserved(self, kpoint):
        """Splitting into k-point branches must not change total FLOPs."""
        chain = build_pipeline(problem_size(256))
        for phase in (PhaseName.FACE_SPLIT, PhaseName.FFT):
            whole = chain.stage(str(phase)).workload
            parts = [
                kpoint.stage(f"{phase}[k{k}]").workload for k in range(2)
            ]
            assert sum(p.flops for p in parts) == pytest.approx(whole.flops)
            assert sum(p.bytes_total for p in parts) == pytest.approx(
                whole.bytes_total
            )

    def test_invalid_kpoint_count(self):
        with pytest.raises(ConfigError):
            build_kpoint_pipeline(problem_size(64), n_kpoints=0)


class TestDagExecutor:
    def test_diamond_branches_overlap(self, framework, diamond):
        """Independent branches on different devices must run concurrently:
        the DES makespan beats the serialized sum of stage times."""
        schedule = framework.scheduler.evaluate(
            diamond,
            {
                "a": Placement.CPU,
                "b": Placement.CPU,
                "c": Placement.NDP,
                "d": Placement.CPU,
            },
        )
        report = framework.executor.execute(diamond, schedule)
        stage_sum = sum(report.phase_seconds.values())
        assert report.total_time < stage_sum
        # ... and the saving is real overlap, not rounding: the shorter
        # branch is fully hidden (plus at most its boundary transfer).
        shorter = min(
            report.phase_seconds["b"], report.phase_seconds["c"]
        )
        saving = stage_sum + report.scheduling_overhead - report.total_time
        assert shorter * (1 - 1e-9) <= saving
        assert saving <= shorter + report.scheduling_overhead + 1e-9

    def test_diamond_timeline_shows_concurrency(self, framework, diamond):
        schedule = framework.scheduler.evaluate(
            diamond,
            {
                "a": Placement.CPU,
                "b": Placement.CPU,
                "c": Placement.NDP,
                "d": Placement.CPU,
            },
        )
        events = build_timeline(diamond, schedule, framework.cost_model)
        validate_timeline(events)  # per-lane occupancy stays exclusive
        b = next(e for e in events if e.label == "b")
        c = next(e for e in events if e.label == "c")
        assert b.start < c.end and c.start < b.end  # genuine overlap

    def test_same_device_branches_serialize(self, framework, diamond):
        """Both branches on one device: capacity 1 forces serialization and
        the makespan returns to the serial sum."""
        schedule = framework.scheduler.evaluate(
            diamond, {n: Placement.CPU for n in diamond.stage_names}
        )
        report = framework.executor.execute(diamond, schedule)
        assert report.total_time == pytest.approx(
            sum(report.phase_seconds.values()), rel=1e-9
        )

    def test_kpoint_dag_executes(self, framework):
        pipeline = build_kpoint_pipeline(problem_size(256), n_kpoints=2)
        result = framework.run(pipeline=pipeline)
        assert result.total_time > 0
        assert set(result.report.phase_seconds) == set(pipeline.stage_names)


class TestBatchExecutor:
    def test_empty_batch_rejected(self, framework):
        with pytest.raises(SimulationError, match="at least one job"):
            framework.executor.execute_many([])

    @pytest.mark.parametrize("n_atoms", [True, 64.5, "64"])
    def test_non_integer_atom_count_rejected(self, framework, n_atoms):
        """``True`` is an int but no atom count (it would build Si_1), and
        a float or a string is no integer at all: every size-taking
        entry point refuses them as a ConfigError."""
        for call in (
            lambda: framework.run_many([n_atoms]),
            lambda: framework.job_estimates([n_atoms]),
            lambda: framework.run(n_atoms=n_atoms),
        ):
            with pytest.raises(ConfigError, match="n_atoms must be an integer"):
                call()

    def test_mixed_batch_overlaps(self, framework):
        """Si_64 + Si_512 through one shared machine: aggregate makespan
        below the sum of the standalone runs (the acceptance criterion for
        the batching front-end)."""
        batch = framework.run_many([64, 512])
        assert batch.n_jobs == 2
        assert batch.makespan < batch.serial_time
        assert batch.batching_speedup > 1.0
        assert batch.throughput == pytest.approx(2 / batch.makespan)

    def test_batch_jobs_no_faster_than_solo(self, framework):
        """Sharing can only delay an individual job, never speed it up."""
        batch = framework.run_many([64, 512])
        for job, solo in zip(batch.jobs, batch.solo_times):
            assert job.report.total_time >= solo * (1 - 1e-9)

    def test_batch_report_consistency(self, framework):
        batch = framework.run_many([64, 64])
        assert batch.makespan == pytest.approx(
            max(job.report.total_time for job in batch.jobs)
        )
        completion = batch.job_completion_times()
        # Duplicate sizes stay distinct entries, one per submitted job.
        assert [label for label, _t in completion] == ["Si_64", "Si_64"]
        assert all(t > 0 for _label, t in completion)

    def test_executor_batch_matches_framework(self, framework):
        """The executor-level API and the framework front-end agree."""
        jobs = []
        for n in (64, 512):
            pipeline = build_pipeline(problem_size(n))
            schedule = framework.scheduler.schedule(
                pipeline, SchedulingPolicy.COST_AWARE
            )
            jobs.append((pipeline, schedule))
        report = PipelineExecutor(
            cost_model=framework.cost_model
        ).execute_many(jobs)
        batch = framework.run_many([64, 512])
        assert report.makespan == pytest.approx(batch.makespan, rel=1e-12)
