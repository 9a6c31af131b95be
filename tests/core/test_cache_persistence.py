"""Cache snapshot persistence: save/load keyed by the registry/cost-model
fingerprint, refusing mismatches — the serving deployment's warm restart.
"""

import pickle

import pytest

from repro.core.framework import NdftFramework
from repro.core.scheduler import Placement, SchedulingPolicy
from repro.errors import ConfigError

SIZES = [64, 128, 512, 1024]


class TestSaveLoadRoundTrip:
    def test_loaded_caches_skip_rederivation(self, tmp_path):
        """A fresh process that loads the snapshot re-derives nothing
        for previously-seen jobs — and reports the same floats."""
        warm = NdftFramework()
        before = warm.run_many(SIZES)
        path = warm.save_caches(tmp_path / "caches.pkl")
        assert path.exists()

        restarted = NdftFramework()
        loaded = restarted.load_caches(path)
        assert loaded > 0
        after = restarted.run_many(SIZES)
        stats = restarted.cache_stats
        assert stats["schedule_misses"] == 0
        assert stats["solo_misses"] == 0
        assert stats["sca_misses"] == 0
        assert after.makespan == before.makespan
        assert after.solo_times == before.solo_times
        assert (
            after.batch_report.job_reports == before.batch_report.job_reports
        )

    def test_warm_start_index_survives_restart(self, tmp_path):
        """A never-snapshotted *size* still warm-starts off the loaded
        placement index."""
        warm = NdftFramework()
        warm.run_many(SIZES)
        path = warm.save_caches(tmp_path / "caches.pkl")

        restarted = NdftFramework()
        restarted.load_caches(path)
        restarted.run(n_atoms=2048)  # never seen by the saver
        assert restarted.cache_stats["warm_start_hits"] == 1
        assert restarted.cache_stats["warm_start_misses"] == 0

    def test_load_merges_warm_start_index_per_size(self, tmp_path):
        """Warm-start entries are workload-history-dependent, so a load
        must not wipe locally learned sizes under a shared structure
        key: snapshot sizes merge in under the already-known ones."""
        saver = NdftFramework()
        saver.run(n_atoms=1024)
        path = saver.save_caches(tmp_path / "caches.pkl")

        loader = NdftFramework()
        loader.run(n_atoms=64)  # learns size 64 under the same structure
        loader.load_caches(path)
        merged = next(
            sizes for _key, sizes in loader._warm_start_index.items()
        )
        assert set(merged) == {64, 1024}

    def test_load_merges_instead_of_clobbering(self, tmp_path):
        saver = NdftFramework()
        saver.run(n_atoms=64)
        path = saver.save_caches(tmp_path / "caches.pkl")

        loader = NdftFramework()
        loader.run(n_atoms=512)
        loader.load_caches(path)
        loader.run_many([64, 512])
        assert loader.cache_stats["schedule_misses"] == 1  # only the 512

    def test_snapshot_roundtrips_through_clear(self, tmp_path):
        framework = NdftFramework()
        framework.run(n_atoms=64)
        path = framework.save_caches(tmp_path / "caches.pkl")
        framework.clear_caches()
        framework.load_caches(path)
        framework.run(n_atoms=64)
        assert framework.cache_stats["schedule_misses"] == 1  # pre-save only


class TestOlderSnapshotLayout:
    """Format-1 snapshots written by earlier versions also carry a
    ``backend_tuner`` table of measured rows next to the caches.  This
    version neither reads nor writes it, and the format stays 1: older
    loaders read that key with a default and newer ones ignore it, so
    files stay compatible in both directions."""

    ROWS = [
        (11, "chain_replay", 0.5, 1024.0),
        (11, "vector_replay", 0.25, 1024.0),
        (11, "dag_replay", float("nan"), 1024.0),
        (11, "chain_replay", "fast", 1024.0),
        (11, "retired_backend", 0.5, 1024.0),
    ]

    def _older_snapshot(self, tmp_path):
        """A snapshot in the older layout and its ``caches`` payload."""
        saver = NdftFramework()
        saver.run_many(SIZES)
        path = saver.save_caches(tmp_path / "older.pkl")
        payload = pickle.loads(path.read_bytes())
        payload["backend_tuner"] = self.ROWS
        path.write_bytes(pickle.dumps(payload))
        return path, payload["caches"]

    def test_load_takes_exactly_the_cache_entries(self, tmp_path):
        path, caches = self._older_snapshot(tmp_path)
        entries = sum(len(items) for items in caches.values())
        assert NdftFramework().load_caches(path) == entries

    def test_merge_takes_exactly_the_cache_entries_once(self, tmp_path):
        path, caches = self._older_snapshot(tmp_path)
        # Merging counts warm-start sizes, not structure keys.
        entries = sum(
            len(items) for name, items in caches.items() if name != "warm_start"
        ) + sum(len(sizes) for _key, sizes in caches["warm_start"])
        receiver = NdftFramework()
        assert receiver.merge_caches(path) == entries
        assert receiver.merge_caches(path) == 0

    def test_save_writes_no_backend_table(self, tmp_path):
        framework = NdftFramework()
        framework.run_many(SIZES)
        path = framework.save_caches(tmp_path / "caches.pkl")
        payload = pickle.loads(path.read_bytes())
        assert set(payload) == {"format", "fingerprint", "caches"}
        assert payload["format"] == NdftFramework.CACHE_SNAPSHOT_FORMAT == 1


class TestFingerprintRefusal:
    def test_policy_mismatch_refused(self, tmp_path):
        saver = NdftFramework()
        saver.run(n_atoms=64)
        path = saver.save_caches(tmp_path / "caches.pkl")
        other = NdftFramework(policy=SchedulingPolicy.ALL_CPU)
        with pytest.raises(ConfigError, match="fingerprint"):
            other.load_caches(path)

    def test_registry_change_refused(self, tmp_path, ndp_model):
        """Once register_target has run, snapshot traffic is refused in
        *both* directions: a custom-registered machine object has no
        cross-process fingerprint (the registration counter only counts
        within one process), so neither saving under it nor loading a
        foreign snapshot into it can be proven sound."""
        saver = NdftFramework()
        saver.run(n_atoms=64)
        path = saver.save_caches(tmp_path / "caches.pkl")
        changed = NdftFramework()
        changed.register_target(Placement.NDP, ndp_model)
        with pytest.raises(ConfigError, match="register_target"):
            changed.load_caches(path)
        with pytest.raises(ConfigError, match="register_target"):
            changed.save_caches(tmp_path / "unsound.pkl")

    def test_system_config_mismatch_refused(self, tmp_path):
        """Machine parameters (not just cost-model links) are part of
        the fingerprint: a framework built on a different SystemConfig
        derives different stage times, so its snapshot must be
        refused — the sensitivity sweeps build exactly such frameworks."""
        from dataclasses import replace

        from repro.hw.config import ndft_system_config

        saver = NdftFramework()
        saver.run(n_atoms=256)
        path = saver.save_caches(tmp_path / "caches.pkl")
        base = ndft_system_config()
        slower_mesh = replace(
            base, ndp=replace(base.ndp, mesh_link_bandwidth=12e9)
        )
        other = NdftFramework(system=slower_mesh)
        with pytest.raises(ConfigError, match="fingerprint"):
            other.load_caches(path)

    def test_gpu_framework_refuses_cpu_ndp_snapshot(self, tmp_path):
        saver = NdftFramework()
        saver.run(n_atoms=64)
        path = saver.save_caches(tmp_path / "caches.pkl")
        gpu = NdftFramework(enable_gpu=True)
        with pytest.raises(ConfigError, match="fingerprint"):
            gpu.load_caches(path)

    def test_garbage_file_refused(self, tmp_path):
        path = tmp_path / "garbage.pkl"
        path.write_bytes(pickle.dumps({"something": "else"}))
        with pytest.raises(ConfigError, match="format"):
            NdftFramework().load_caches(path)

    def test_truncated_snapshot_refused(self, tmp_path):
        """A half-written snapshot (crash or disk error mid-save) must
        raise ConfigError naming the file, never a raw EOFError or
        UnpicklingError."""
        saver = NdftFramework()
        saver.run_many([64, 128])
        path = saver.save_caches(tmp_path / "caches.pkl")
        blob = path.read_bytes()
        for cut in (0, 1, len(blob) // 2, len(blob) - 1):
            truncated = tmp_path / f"truncated_{cut}.pkl"
            truncated.write_bytes(blob[:cut])
            with pytest.raises(ConfigError, match="truncated or corrupt"):
                NdftFramework().load_caches(truncated)

    def test_corrupt_snapshot_refused(self, tmp_path):
        """Arbitrary bytes that are not a pickle stream at all are
        rejected the same way."""
        path = tmp_path / "noise.pkl"
        path.write_bytes(b"\x00\xffnot a pickle stream")
        with pytest.raises(ConfigError, match="truncated or corrupt"):
            NdftFramework().load_caches(path)

    def test_fingerprints_equal_across_fresh_frameworks(self):
        assert (
            NdftFramework().cache_fingerprint()
            == NdftFramework().cache_fingerprint()
        )
