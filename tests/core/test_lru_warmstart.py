"""Bounded memo structures (LRU)."""

import pytest

from repro.core.framework import NdftFramework
from repro.core.lru import LruCache
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
        for maxsize in (float("nan"), 2.5, True):
            with pytest.raises(ValueError, match="maxsize"):
                LruCache(maxsize)


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

    @pytest.mark.parametrize("cache_size", [0, -1, float("nan"), 2.5, True])
    def test_rejects_nonpositive_cache_size(self, cache_size):
        with pytest.raises(ConfigError, match="cache_size"):
            NdftFramework(cache_size=cache_size)
