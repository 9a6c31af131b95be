"""Cache snapshot persistence: save/load keyed by the registry/cost-model
fingerprint, refusing mismatches — the serving deployment's warm restart.
"""

import pickle

import pytest

from repro.core.framework import (
    _SNAPSHOT_HEADER_BYTES,
    _SNAPSHOT_MAGIC,
    NdftFramework,
)
from repro.core.scheduler import Placement, SchedulingPolicy
from repro.errors import ConfigError

SIZES = [64, 128, 512, 1024]


class TestSaveLoadRoundTrip:
    def test_loaded_caches_skip_rederivation(self, tmp_path, derivations):
        """A fresh process that loads the snapshot re-derives nothing
        for previously-seen jobs — and reports the same floats."""
        warm = NdftFramework()
        before = warm.run_many(SIZES)
        path = warm.save_caches(tmp_path / "caches.pkl")
        assert path.exists()

        restarted = NdftFramework()
        loaded = restarted.load_caches(path)
        assert loaded > 0
        derivations.clear()
        after = restarted.run_many(SIZES)
        assert restarted.cache_stats["entry_misses"] == 0
        assert not derivations  # no placement, solo run or SCA pass
        assert after.makespan == before.makespan
        assert after.solo_times == before.solo_times
        assert (
            after.batch_report.job_reports == before.batch_report.job_reports
        )

    def test_load_merges_instead_of_clobbering(self, tmp_path):
        saver = NdftFramework()
        saver.run(n_atoms=64)
        path = saver.save_caches(tmp_path / "caches.pkl")

        loader = NdftFramework()
        loader.run(n_atoms=512)
        loader.load_caches(path)
        loader.run_many([64, 512])
        assert loader.cache_stats["entry_misses"] == 1  # only the 512

    def test_snapshot_roundtrips_through_clear(self, tmp_path):
        framework = NdftFramework()
        framework.run(n_atoms=64)
        path = framework.save_caches(tmp_path / "caches.pkl")
        framework.clear_caches()
        framework.load_caches(path)
        framework.run(n_atoms=64)
        assert framework.cache_stats["entry_misses"] == 1  # pre-save only


class TestOlderSnapshotLayout:
    """Format 3 is a header (magic, format, SHA-256) ahead of the pickled
    entry store.  Headerless format-1 and format-2 files are refused,
    never misread."""

    def test_format_1_snapshot_refused(self, tmp_path):
        framework = NdftFramework()
        framework.run_many(SIZES)
        path = tmp_path / "older.pkl"
        path.write_bytes(
            pickle.dumps(
                {
                    "format": 1,
                    "fingerprint": framework.cache_fingerprint(),
                    "caches": {"schedule": [], "solo": [], "sca": []},
                }
            )
        )
        for absorb in (NdftFramework().load_caches, NdftFramework().merge_caches):
            with pytest.raises(ConfigError, match="format 1, expected format 3"):
                absorb(path)

    def test_format_2_snapshot_refused(self, tmp_path):
        """Format 2 pickled the entry store and the retired warm-start
        index with no header ahead of them."""
        framework = NdftFramework()
        framework.run_many(SIZES)
        path = tmp_path / "older.pkl"
        path.write_bytes(
            pickle.dumps(
                {
                    "format": 2,
                    "fingerprint": framework.cache_fingerprint(),
                    "entries": framework._store.items(),
                    "warm_start": [],
                }
            )
        )
        for absorb in (NdftFramework().load_caches, NdftFramework().merge_caches):
            with pytest.raises(ConfigError, match="format 2, expected format 3"):
                absorb(path)

    def test_other_header_format_refused(self, tmp_path):
        """A headered file of another format number (a newer writer) is
        refused on its header alone, whatever its payload holds."""
        framework = NdftFramework()
        framework.run(n_atoms=64)
        blob = framework.save_caches(tmp_path / "caches.pkl").read_bytes()
        at = len(_SNAPSHOT_MAGIC)
        newer = tmp_path / "newer.pkl"
        newer.write_bytes(blob[:at] + (4).to_bytes(4, "big") + blob[at + 4 :])
        loader = NdftFramework()
        with pytest.raises(ConfigError, match="format 4, expected format 3"):
            loader.load_caches(newer)
        assert not loader._store

    def test_save_writes_no_backend_table(self, tmp_path):
        framework = NdftFramework()
        framework.run_many(SIZES)
        path = framework.save_caches(tmp_path / "caches.pkl")
        payload = framework._read_snapshot(path, "load")
        assert set(payload) == {"format", "fingerprint", "entries"}
        assert payload["format"] == NdftFramework.CACHE_SNAPSHOT_FORMAT == 3


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

    def test_bit_flipped_snapshots_refused(self, tmp_path):
        """One flipped bit in the header or the payload is refused with
        ConfigError before anything is unpickled: never a raw exception
        from inside the unpickler, never a load that serves other
        numbers."""
        saver = NdftFramework()
        saver.run_many([64, 128])
        blob = saver.save_caches(tmp_path / "caches.pkl").read_bytes()
        loader = NdftFramework()
        flipped = tmp_path / "flipped.pkl"
        for offset in range(0, len(blob), 3):
            corrupt = bytearray(blob)
            corrupt[offset] ^= 1 << (offset % 8)
            flipped.write_bytes(corrupt)
            with pytest.raises(ConfigError):
                loader.load_caches(flipped)
        assert not loader._store

    def test_payload_under_another_header_refused(self, tmp_path):
        """A file stitched from two snapshots: the payload unpickles
        cleanly and carries this framework's fingerprint, yet it is not
        the payload the header was written for, so the checksum refuses
        it instead of serving the other snapshot's numbers."""
        small = NdftFramework()
        small.run(n_atoms=64)
        small_blob = small.save_caches(tmp_path / "small.pkl").read_bytes()
        large = NdftFramework()
        large.run(n_atoms=1024)
        large_path = large.save_caches(tmp_path / "large.pkl")
        large_blob = large_path.read_bytes()
        stitched = tmp_path / "stitched.pkl"
        stitched.write_bytes(
            small_blob[:_SNAPSHOT_HEADER_BYTES]
            + large_blob[_SNAPSHOT_HEADER_BYTES:]
        )
        loader = NdftFramework()
        with pytest.raises(ConfigError, match="SHA-256"):
            loader.load_caches(stitched)
        assert not loader._store
        assert loader.load_caches(large_path) > 0  # the payload is sound

    def test_fingerprints_equal_across_fresh_frameworks(self):
        assert (
            NdftFramework().cache_fingerprint()
            == NdftFramework().cache_fingerprint()
        )
