"""Bounded memo structures (LRU) and the warm-started placement DP."""

import pytest

from repro.core.framework import NdftFramework
from repro.core.lru import LruCache
from repro.core.pipeline import build_kpoint_pipeline, build_pipeline
from repro.core.scheduler import SchedulingPolicy
from repro.dft.workload import problem_size
from repro.errors import ConfigError


class TestLruCache:
    def test_hit_miss_counters(self):
        cache = LruCache(maxsize=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.evictions == 0

    def test_eviction_is_lru_order(self):
        cache = LruCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a": "b" is now LRU
        cache.put("c", 3)
        assert cache.evictions == 1
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_unbounded_never_evicts(self):
        cache = LruCache(maxsize=None)
        for i in range(1000):
            cache.put(i, i)
        assert len(cache) == 1000
        assert cache.evictions == 0

    def test_clear_keeps_counters(self):
        cache = LruCache(maxsize=1)
        cache.put("a", 1)
        cache.put("b", 2)  # evicts "a"
        cache.get("b")
        cache.clear()
        assert len(cache) == 0
        assert not cache
        assert cache.evictions == 1
        assert cache.hits == 1

    def test_dict_equality_and_len(self):
        cache = LruCache()
        assert cache == {}
        cache.put("a", 1)
        assert cache == {"a": 1}
        assert len(cache) == 1

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            LruCache(maxsize=0)


class TestBoundedFrameworkCaches:
    def test_eviction_never_changes_results(self):
        """A cache_size=1 framework thrashes every cache on the mixed
        batch yet reports the same floats as an unbounded one — eviction
        is a capacity decision, never a semantic one."""
        sizes = [64, 512, 64, 1024, 128, 512, 64]
        tiny = NdftFramework(cache_size=1)
        unbounded = NdftFramework(cache_size=None)
        tight = tiny.run_many(sizes)
        loose = unbounded.run_many(sizes)
        assert tiny.cache_stats["entry_evictions"] > 0
        assert unbounded.cache_stats["entry_evictions"] == 0
        assert tight.makespan == loose.makespan
        assert tight.solo_times == loose.solo_times
        assert (
            tight.batch_report.job_reports == loose.batch_report.job_reports
        )

    def test_eviction_counters_in_cache_stats(self):
        framework = NdftFramework(cache_size=2)
        framework.run_many([64, 128, 512, 1024])
        stats = framework.cache_stats
        for kind in ("pipeline", "entry"):
            assert f"{kind}_evictions" in stats
        assert stats["entry_evictions"] >= 2
        # Within the bound nothing is evicted.
        roomy = NdftFramework(cache_size=4)
        roomy.run_many([64, 128, 512, 1024])
        assert roomy.cache_stats["entry_evictions"] == 0

    def test_default_bound_is_finite(self):
        framework = NdftFramework()
        assert framework.cache_size == NdftFramework.DEFAULT_CACHE_SIZE
        assert framework._store.maxsize == framework.cache_size

    @pytest.mark.parametrize("cache_size", [0, -1])
    def test_rejects_nonpositive_cache_size(self, cache_size):
        with pytest.raises(ConfigError, match="cache_size"):
            NdftFramework(cache_size=cache_size)


class TestWarmStartedPlacementDp:
    def test_warm_start_hits_counted(self):
        framework = NdftFramework()
        framework.run_many([64, 128, 512, 1024])
        stats = framework.cache_stats
        # First distinct size is a cold search, the rest warm-start off
        # the nearest same-structure neighbor.
        assert stats["warm_start_misses"] == 1
        assert stats["warm_start_hits"] == 3

    @pytest.mark.parametrize("n_atoms", [16, 64, 200, 512, 1024, 2048])
    def test_warm_started_schedule_is_exact_optimum(self, n_atoms):
        """The warm-start bound only prunes provably suboptimal DP
        states: the hinted search returns the *same* schedule (same
        assignments, same floats) as a cold search — cross-checked
        against the exhaustive oracle as well."""
        framework = NdftFramework()
        framework.run(n_atoms=4000)  # seed the warm-start index far away
        pipeline = build_pipeline(problem_size(n_atoms))
        hinted = framework._record_for(
            pipeline, framework.job_signature(pipeline)
        ).schedule
        assert framework.cache_stats["warm_start_hits"] >= 1
        cold = framework.scheduler._dag_optimal(pipeline)
        oracle = framework.scheduler._exhaustive_best(pipeline)
        assert hinted.assignments == cold.assignments
        assert hinted.predicted_total == cold.predicted_total
        assert hinted.predicted_total == oracle.predicted_total

    def test_warm_start_is_structure_scoped(self):
        """A chain placement never seeds a k-point DAG search (different
        stage names -> different structure signature)."""
        framework = NdftFramework()
        framework.run(n_atoms=512)
        framework.run_many([512], pipeline_builder=build_kpoint_pipeline)
        assert framework.cache_stats["warm_start_hits"] == 0
        assert framework.cache_stats["warm_start_misses"] == 2

    def test_invalid_hint_degrades_to_cold_search(self):
        framework = NdftFramework()
        pipeline = build_pipeline(problem_size(64))
        cold = framework.scheduler._dag_optimal(pipeline)
        stale = framework.scheduler._dag_optimal(
            pipeline, warm_start={"not-a-stage": None}
        )
        assert stale.assignments == cold.assignments
        assert stale.predicted_total == cold.predicted_total

    def test_non_cost_aware_policies_skip_warm_start(self):
        framework = NdftFramework(policy=SchedulingPolicy.ALL_NDP)
        framework.run_many([64, 128, 512])
        assert framework.cache_stats["warm_start_hits"] == 0
        assert framework.cache_stats["warm_start_misses"] == 0

    def test_register_target_drops_warm_start_index(self, ndp_model):
        from repro.core.scheduler import Placement

        framework = NdftFramework()
        framework.run(n_atoms=512)
        assert framework._warm_start_index
        framework.register_target(Placement.NDP, ndp_model)
        assert not framework._warm_start_index


def _renamed(pipeline, prefix):
    """The same pipeline under different stage names — the shape the
    name-normalized structure signature must treat as one structure."""
    from repro.core.pipeline import Edge, Pipeline, Stage

    stages = tuple(
        Stage(
            name=f"{prefix}{stage.name}",
            workload=stage.workload,
            function=stage.function,
        )
        for stage in pipeline.stages
    )
    edges = tuple(
        Edge(
            src=f"{prefix}{edge.src}",
            dst=f"{prefix}{edge.dst}",
            nbytes=edge.nbytes,
        )
        for edge in pipeline.edges
    )
    return Pipeline(problem=pipeline.problem, stages=stages, edges=edges)


class TestNameNormalizedWarmStart:
    def test_renamed_same_shape_pipeline_hits_warm_start(self):
        """A same-shape pipeline whose stages are merely labelled
        differently warm-starts off the original's placement instead of
        restarting cold — counter-verified, and still the exact
        optimum."""
        framework = NdftFramework()
        framework.run(n_atoms=64)  # seeds the 6-chain structure
        assert framework.cache_stats["warm_start_hits"] == 0
        renamed = _renamed(build_pipeline(problem_size(512)), "alias_")
        hinted = framework._record_for(
            renamed, framework.job_signature(renamed)
        ).schedule
        stats = framework.cache_stats
        assert stats["warm_start_hits"] == 1
        cold = framework.scheduler._dag_optimal(renamed)
        assert hinted.assignments == cold.assignments
        assert hinted.predicted_total == cold.predicted_total

    def test_renamed_kpoint_dag_hits_warm_start(self):
        framework = NdftFramework()
        framework.run_many([64], pipeline_builder=build_kpoint_pipeline)
        renamed = _renamed(
            build_kpoint_pipeline(problem_size(512)), "other/"
        )
        framework._record_for(renamed, framework.job_signature(renamed)).schedule
        assert framework.cache_stats["warm_start_hits"] == 1

    def test_normalize_rehydrate_round_trip(self):
        from repro.core.scheduler import CostAwareScheduler

        framework = NdftFramework()
        pipeline = build_pipeline(problem_size(64))
        schedule = framework.scheduler.schedule(pipeline)
        normalized = CostAwareScheduler.normalize_placements(
            pipeline, schedule.assignments
        )
        assert CostAwareScheduler.rehydrate_placements(
            pipeline, normalized
        ) == schedule.assignments
        # Length mismatch degrades to no hint, never an error.
        assert (
            CostAwareScheduler.rehydrate_placements(
                pipeline, normalized[:-1]
            )
            is None
        )
