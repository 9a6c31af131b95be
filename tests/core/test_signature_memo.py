"""Job signatures and the framework's serving-fast-path memoization."""

import pytest

from repro.core.arrivals import poisson_arrivals
from repro.core.faults import FaultPlan, RetryPolicy
from repro.core.framework import NdftFramework, check_invariants
from repro.core.pipeline import build_kpoint_pipeline, build_pipeline
from repro.core.scheduler import Placement, SchedulingPolicy
from repro.core.signature import job_signature
from repro.dft.workload import problem_size
from repro.hw.timing import PhaseTime

from tests.core.dag_helpers import relabelled_pipeline


def _fresh():
    return NdftFramework()


class TestStructuralHash:
    def test_same_problem_same_hash(self):
        a = build_pipeline(problem_size(64))
        b = build_pipeline(problem_size(64))
        assert a is not b
        assert a.structural_hash == b.structural_hash

    def test_different_size_different_hash(self):
        a = build_pipeline(problem_size(64))
        b = build_pipeline(problem_size(128))
        assert a.structural_hash != b.structural_hash

    def test_builder_shape_changes_hash(self):
        chain = build_pipeline(problem_size(64))
        dag = build_kpoint_pipeline(problem_size(64), n_kpoints=2)
        assert chain.structural_hash != dag.structural_hash

    def test_hash_is_cached_on_the_object(self):
        pipeline = build_pipeline(problem_size(64))
        assert pipeline.structural_hash is pipeline.structural_hash

    def test_segment_contents_change_hash(self):
        """Two hand-built pipelines that differ only *inside* a stage's
        segments (same totals, same segment count) must hash apart: the
        SCA's consistency verdict depends on the per-segment split, so
        a shared hash would alias their memoized reports."""
        from dataclasses import replace

        from repro.core.ir import CodeSegment

        base = build_pipeline(problem_size(64))
        stage = base.stages[0]
        seg_a, seg_b = stage.function.segments[:2]
        moved = (
            replace(seg_a, flops=seg_a.flops * 0.5),
            replace(seg_b, flops=seg_b.flops * 1.5),
        ) + stage.function.segments[2:]
        assert isinstance(moved[0], CodeSegment)
        skewed_stage = replace(
            stage, function=replace(stage.function, segments=moved)
        )
        skewed = replace(base, stages=(skewed_stage, *base.stages[1:]))
        assert skewed.structural_hash != base.structural_hash


class TestJobSignature:
    def test_equal_jobs_share_signature(self):
        framework = _fresh()
        a = framework.job_signature(build_pipeline(problem_size(64)))
        b = framework.job_signature(build_pipeline(problem_size(64)))
        assert a == b
        assert hash(a) == hash(b)

    def test_policy_distinguishes(self):
        pipeline = build_pipeline(problem_size(64))
        framework = _fresh()
        cost_aware = job_signature(
            pipeline,
            SchedulingPolicy.COST_AWARE,
            framework.scheduler,
            framework.cost_model,
        )
        naive = job_signature(
            pipeline,
            SchedulingPolicy.NAIVE,
            framework.scheduler,
            framework.cost_model,
        )
        assert cost_aware != naive

    def test_register_target_changes_signature(self):
        framework = _fresh()
        pipeline = build_pipeline(problem_size(64))
        before = framework.job_signature(pipeline)
        framework.register_target(Placement.NDP, framework.ndp)
        after = framework.job_signature(pipeline)
        assert before != after
        assert after.registry_fingerprint[0] > before.registry_fingerprint[0]


class _GlacialMachine:
    """An execution target so slow no sane schedule keeps work on it."""

    def execute(self, workload) -> PhaseTime:
        return PhaseTime(
            name=str(workload.name), compute_time=1e6, memory_time=1e6
        )


class TestFrameworkMemoization:
    def test_duplicate_jobs_hit_every_cache(self, derivations):
        """Each distinct entry of a call is one lookup and is derived
        once — one placement, one solo run, one SCA pass; a duplicate
        job is no lookup at all."""
        framework = _fresh()
        framework.run_many([64, 64, 64, 512])
        stats = framework.cache_stats
        for kind in ("pipeline", "entry"):
            assert stats[f"{kind}_misses"] == 2
            assert stats[f"{kind}_hits"] == 0
        assert derivations == {"schedule": 2, "solo": 2, "sca": 2}

    def test_caches_compose_across_calls(self):
        framework = _fresh()
        framework.run(n_atoms=64)
        framework.run(n_atoms=64)
        assert framework.cache_stats["entry_hits"] == 1
        batch = framework.run_many([64, 64])
        assert framework.cache_stats["entry_misses"] == 1
        assert framework.cache_stats["entry_hits"] == 2
        assert batch.n_jobs == 2

    def test_cached_and_uncached_results_identical(self):
        sizes = [64, 64, 512, 1024, 64]
        cached = _fresh().run_many(sizes)
        uncached = NdftFramework(memoize=False).run_many(sizes)
        assert cached.makespan == uncached.makespan
        assert cached.solo_times == uncached.solo_times
        for job_c, job_u in zip(cached.jobs, uncached.jobs):
            assert job_c.report == job_u.report
            assert job_c.schedule == job_u.schedule
            assert job_c.sca_reports == job_u.sca_reports

    def test_duplicate_entries_share_built_pipeline(self):
        framework = _fresh()
        batch = framework.run_many([64, 64])
        assert batch.jobs[0].schedule is batch.jobs[1].schedule
        assert len(framework._pipeline_cache) == 1

    def test_memoize_false_bypasses_caches(self):
        framework = NdftFramework(memoize=False)
        framework.run_many([64, 64])
        assert framework._store == {}
        assert all(count == 0 for count in framework.cache_stats.values())

    def test_register_target_invalidates_and_reschedules(self):
        """A cached schedule must not survive a registry change: replacing
        the NDP side with a glacial machine has to push every stage back
        onto the CPU on the very next run."""
        framework = _fresh()
        before = framework.run(n_atoms=1024)
        assert Placement.NDP in before.schedule.placements_used
        framework.register_target(Placement.NDP, _GlacialMachine())
        assert framework._store == {}
        after = framework.run(n_atoms=1024)
        assert after.schedule.placements_used == {Placement.CPU}
        assert after.total_time != before.total_time

    def test_clear_caches(self):
        framework = _fresh()
        framework.run(n_atoms=64)
        assert framework._store
        framework.clear_caches()
        assert not framework._store
        assert not framework._pipeline_cache

    def test_solo_cache_returns_standalone_times_inside_batches(self):
        """Solo times reported by a batch equal dedicated-machine runs."""
        framework = _fresh()
        solo = framework.run(n_atoms=512).total_time
        batch = framework.run_many([512, 512])
        assert batch.solo_times == (solo, solo)

    def test_duplicate_heavy_mixed_batch_counters_across_calls(
        self, derivations
    ):
        """Each distinct entry of a call is one lookup and a duplicate
        job is none.  Sizes are entries by value, problems and pipelines
        by identity: ``64`` and an equal ``ProblemSize`` are two entries
        whose pipeline-cache key is shared, so the second hits, and an
        equal-content distinct pipeline hits the store under the same
        signature.  Each signature is derived once (placement, solo run,
        SCA pass)."""
        framework = _fresh()
        p64 = problem_size(64)
        pipe = build_pipeline(problem_size(128))
        batch = [64, 64, p64, p64, pipe, pipe, 512, 64, 512]
        framework.run_many(batch)
        stats = framework.cache_stats
        assert set(stats) == {
            f"{kind}_{counter}"
            for kind in ("pipeline", "entry")
            for counter in ("hits", "misses", "evictions")
        }
        assert (stats["pipeline_misses"], stats["pipeline_hits"]) == (2, 1)
        assert (stats["entry_misses"], stats["entry_hits"]) == (3, 1)
        assert derivations == {"schedule": 3, "solo": 3, "sca": 3}

        twin = build_pipeline(problem_size(128))  # equal content, new id
        framework.run_many([*batch, twin, twin])
        stats = framework.cache_stats
        assert (stats["pipeline_misses"], stats["pipeline_hits"]) == (2, 4)
        assert (stats["entry_misses"], stats["entry_hits"]) == (3, 6)
        assert derivations == {"schedule": 3, "solo": 3, "sca": 3}

    def test_kpoint_builder_keys_separately_from_chain(self):
        framework = _fresh()
        framework.run_many([64])
        framework.run_many([64], pipeline_builder=build_kpoint_pipeline)
        assert framework.cache_stats["pipeline_misses"] == 2
        assert framework.cache_stats["entry_misses"] == 2

    def test_relabelled_pipeline_is_its_own_entry(self):
        """Stage labels are part of the signature, so a relabelled copy
        never gets served the original's schedule under the original's
        names; it derives its own, with the same standalone makespan."""
        framework = _fresh()
        pipeline = build_pipeline(problem_size(512))
        relabelled = relabelled_pipeline(pipeline, "alias_")
        batch = framework.run_many([pipeline, relabelled])
        assert framework.cache_stats["entry_misses"] == 2
        assert set(batch.jobs[1].schedule.assignments) == set(
            relabelled.stage_names
        )
        assert batch.solo_times[0] == batch.solo_times[1]


class TestFaultedCallLookups:
    """A retry run is an index into the call's entry table, as a job
    is: each base entry and each distinct degraded or residual record
    is one store lookup per call, however many runs use it."""

    SIZES = [64, 128, 512, 1024] * 8

    @pytest.mark.parametrize("checkpoint", [False, True])
    def test_warm_faulted_call_looks_up_each_record_once(self, checkpoint):
        arrivals = poisson_arrivals(32, 2.0, seed=3)
        outages = (
            (
                ("ndp", arrivals[5], arrivals[5] + 0.5),
                ("ndp", arrivals[12], arrivals[12] + 0.5),
            )
            if checkpoint
            else ()
        )
        plan = FaultPlan(outages=outages, permanent=(("ndp", arrivals[16]),))
        retry = RetryPolicy(checkpoint=checkpoint)
        framework = _fresh()
        framework.run_many(self.SIZES, arrivals=arrivals, faults=plan, retry=retry)
        before = framework.cache_stats["entry_hits"]
        result = framework.run_many(
            self.SIZES, arrivals=arrivals, faults=plan, retry=retry
        )
        check_invariants(result)
        assert sum(result.resilience.degraded) == 17
        # Permanent death: 4 base entries and 4 degraded records.  With
        # checkpoints, also two residual pipelines, one of them degraded.
        expected = 11 if checkpoint else 8
        assert framework.cache_stats["entry_hits"] - before == expected


class TestPolicyRespectedUnderMemoization:
    @pytest.mark.parametrize(
        "policy", [SchedulingPolicy.ALL_CPU, SchedulingPolicy.ALL_NDP]
    )
    def test_homogeneous_policies(self, policy):
        framework = NdftFramework(policy=policy)
        batch = framework.run_many([64, 64])
        expected = {
            SchedulingPolicy.ALL_CPU: Placement.CPU,
            SchedulingPolicy.ALL_NDP: Placement.NDP,
        }[policy]
        for job in batch.jobs:
            assert job.schedule.placements_used == {expected}
