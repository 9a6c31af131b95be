"""WorkerPool: the shared-snapshot lifecycle, merge-back idempotence,
fleet-mode fingerprint refusal, and the bit-identity contract between
worker processes and a single-process run of the same assignment.

Everything that needs real worker processes uses the spawn context the
pool defaults to; the inline pool runs the identical worker code
in-process and is the deterministic reference.
"""

import numpy as np
import pytest

from repro.core.arrivals import poisson_arrivals
from repro.core.framework import NdftFramework
from repro.core.scheduler import Placement, SchedulingPolicy
from repro.errors import ConfigError
from repro.experiments.scale_serving import job_mix
from repro.fleet import WorkerPool

SIZES = job_mix(32)


def _single_process_completions(plan, sizes, arrivals=None):
    """Per-replica completion times from a plain single-process
    ``run_many`` of the routed assignment — the bit-identity oracle."""
    completions = {}
    for replica in range(plan.n_replicas):
        indices = plan.jobs_for(replica)
        if not indices:
            continue
        framework = NdftFramework()
        result = framework.run_many(
            [sizes[i] for i in indices],
            arrivals=(
                None if arrivals is None else [arrivals[i] for i in indices]
            ),
        )
        completions[replica] = tuple(
            job.report.total_time for job in result.jobs
        )
    return completions


class TestInlineServe:
    def test_serve_is_deterministic(self):
        with WorkerPool(2, inline=True) as pool:
            first = pool.serve(SIZES)
            second = pool.serve(SIZES)
        assert first.plan == second.plan
        assert first.completion_times == second.completion_times

    def test_closed_batch_bit_identical_to_single_process(self):
        with WorkerPool(3, inline=True) as pool:
            result = pool.serve(SIZES)
        oracle = _single_process_completions(result.plan, SIZES)
        for summary in result.replicas:
            if not summary.job_indices:
                continue
            assert summary.completion_times == oracle[summary.replica]

    def test_open_queue_bit_identical_to_single_process(self):
        arrivals = poisson_arrivals(len(SIZES), 2.0, seed=0)
        with WorkerPool(2, inline=True) as pool:
            result = pool.serve(SIZES, arrivals=arrivals)
        oracle = _single_process_completions(result.plan, SIZES, arrivals)
        for summary in result.replicas:
            if not summary.job_indices:
                continue
            assert summary.completion_times == oracle[summary.replica]
        # Latencies subtract the global release offsets.
        for latency, completion, release in zip(
            result.completion_latencies, result.completion_times, arrivals
        ):
            assert latency == completion - release

    def test_rounds_do_not_change_results(self):
        with WorkerPool(2, inline=True) as pool:
            once = pool.serve(SIZES, rounds=1)
            thrice = pool.serve(SIZES, rounds=3)
        assert once.completion_times == thrice.completion_times
        assert thrice.rounds == 3

    def test_aggregation_shape(self):
        with WorkerPool(4, inline=True) as pool:
            result = pool.serve(SIZES)
        assert result.n_replicas == 4
        assert result.n_jobs == len(SIZES)
        assert len(result.completion_times) == len(SIZES)
        assert all(c > 0 for c in result.completion_times)
        assert result.p50_latency <= result.p99_latency
        assert result.imbalance_ratio >= 1.0
        assert len(result.replica_utilization) == 4
        assert max(result.replica_utilization) <= 1.0 + 1e-12
        assert sum(result.backend_jobs.values()) == len(SIZES)
        assert result.throughput > 0
        assert result.jobs_per_second_wall > 0


class TestSpawnServe:
    def test_spawn_matches_inline_bit_for_bit(self):
        """Real worker processes return exactly the numbers the inline
        (single-process) pool computes: OS scheduling can reorder the
        workers, never the results."""
        with WorkerPool(2, inline=True) as pool:
            reference = pool.serve(SIZES)
        with WorkerPool(2) as pool:
            spawned = pool.serve(SIZES)
        assert spawned.plan == reference.plan
        assert spawned.completion_times == reference.completion_times
        for got, want in zip(spawned.replicas, reference.replicas):
            assert got.completion_times == want.completion_times
            assert got.makespan == want.makespan
            assert got.lane_busy_seconds == want.lane_busy_seconds


class TestSharedSnapshotLifecycle:
    def test_merge_back_collects_worker_entries(self, derivations):
        """The parent framework never ran a batch — it only derived
        routing estimates — yet after one serve the workers' SCA passes
        are in its records via merge-back; the next serve has nothing
        left to merge."""
        with WorkerPool(2, inline=True) as pool:
            result = pool.serve(SIZES)
            assert result.merged_entries > 0
            records = [record for _key, record in pool.framework._store.items()]
            assert records
            assert all(record.sca is not None for record in records)
            assert pool.serve(SIZES).merged_entries == 0
            derivations.clear()
            pool.framework.run_many(SIZES)
            assert derivations["sca"] == 0

    def test_merge_caches_is_idempotent(self, tmp_path):
        donor = NdftFramework()
        donor.run_many(SIZES)
        path = donor.save_caches(tmp_path / "donor.pkl")
        receiver = NdftFramework()
        first = receiver.merge_caches(path)
        assert first > 0
        assert receiver.merge_caches(path) == 0  # union-if-absent

    def test_merge_fills_missing_sca_verdicts(self, tmp_path):
        """A receiver that only ran job_estimates holds every record but
        none of their SCA verdicts: a merge adds exactly those fields."""
        donor = NdftFramework()
        donor.run_many(SIZES)
        path = donor.save_caches(tmp_path / "donor.pkl")
        receiver = NdftFramework()
        receiver.job_estimates(SIZES)

        def with_sca():
            return sum(
                record.sca is not None
                for _key, record in receiver._store.items()
            )

        assert with_sca() == 0
        assert receiver.merge_caches(path) == with_sca() > 0
        assert with_sca() == len(receiver._store)
        assert receiver.merge_caches(path) == 0

    def test_merge_caches_keeps_local_entries(self, tmp_path):
        """Merge-back is union-only: an entry the receiver already owns
        is never overwritten by the snapshot's copy."""
        donor = NdftFramework()
        donor.run_many([64, 128])
        path = donor.save_caches(tmp_path / "donor.pkl")
        receiver = NdftFramework()
        receiver.run_many([64, 512])
        before = receiver.cache_stats["entry_misses"]
        receiver.merge_caches(path)
        receiver.run_many([64, 128, 512])
        assert receiver.cache_stats["entry_misses"] == before  # no re-derive

    def test_persistent_snapshot_warms_next_pool(self, tmp_path, derivations):
        snapshot = tmp_path / "fleet.pkl"
        with WorkerPool(2, inline=True, snapshot_path=snapshot) as pool:
            pool.serve(SIZES)
        assert snapshot.exists()
        derivations.clear()
        with WorkerPool(2, inline=True, snapshot_path=snapshot) as warm:
            warm.serve(SIZES)
            stats = warm.framework.cache_stats
        # The second pool derived nothing: estimates came off the merged
        # snapshot the first pool persisted.
        assert stats["entry_misses"] == 0
        assert derivations["solo"] == 0

    def test_fleet_snapshot_fingerprint_refusal(self, tmp_path):
        """A shared snapshot written under a different policy is refused
        at pool construction — the fleet-mode mirror of load_caches'
        refusal rules."""
        snapshot = tmp_path / "fleet.pkl"
        with WorkerPool(1, inline=True, snapshot_path=snapshot) as pool:
            pool.serve([64, 128])
        with pytest.raises(ConfigError, match="fingerprint"):
            WorkerPool(
                1,
                inline=True,
                policy=SchedulingPolicy.ALL_CPU,
                snapshot_path=snapshot,
            )
        with pytest.raises(ConfigError, match="fingerprint"):
            WorkerPool(1, inline=True, enable_gpu=True, snapshot_path=snapshot)

    def test_merge_caches_refuses_mismatched_fingerprint(self, tmp_path):
        donor = NdftFramework(policy=SchedulingPolicy.ALL_CPU)
        donor.run_many([64])
        path = donor.save_caches(tmp_path / "other.pkl")
        with pytest.raises(ConfigError, match="fingerprint"):
            NdftFramework().merge_caches(path)

    def test_merge_caches_refuses_after_register_target(
        self, tmp_path, ndp_model
    ):
        donor = NdftFramework()
        donor.run_many([64])
        path = donor.save_caches(tmp_path / "donor.pkl")
        changed = NdftFramework()
        changed.register_target(Placement.NDP, ndp_model)
        with pytest.raises(ConfigError, match="register_target"):
            changed.merge_caches(path)


class TestServeValidation:
    def test_rejects_nonpositive_replicas(self):
        with pytest.raises(ConfigError, match="n_replicas"):
            WorkerPool(0)
        for n_replicas in (2.5, True):
            with pytest.raises(ConfigError, match="n_replicas"):
                WorkerPool(n_replicas, inline=True)

    @pytest.mark.parametrize("cache_size", [0, -1, float("nan"), 2.5, True])
    def test_rejects_nonpositive_cache_size(self, cache_size):
        with pytest.raises(ConfigError, match="cache_size"):
            WorkerPool(2, cache_size=cache_size)

    def test_rejects_empty_batch(self):
        with WorkerPool(1, inline=True) as pool:
            with pytest.raises(ConfigError, match="at least one job"):
                pool.serve([])

    def test_rejects_non_int_entries(self):
        with WorkerPool(1, inline=True) as pool:
            with pytest.raises(ConfigError, match="atom counts"):
                pool.serve([64, "128"])
            with pytest.raises(ConfigError, match="atom counts"):
                pool.serve([True])
            # NumPy integer sizes are atom counts, as run_many takes them.
            as_int = pool.serve([64, 128, 512])
            as_numpy = pool.serve([np.int64(64), np.int64(128), np.int64(512)])
        assert as_numpy.plan == as_int.plan
        assert as_numpy.completion_times == as_int.completion_times

    def test_numpy_array_batches(self):
        framework = NdftFramework()
        sizes = np.array([64, 128])
        assert framework.job_estimates(sizes) == framework.job_estimates([64, 128])
        as_array = framework.run_many(sizes).batch_report
        as_list = framework.run_many([64, 128]).batch_report
        assert as_array.completion_times == as_list.completion_times
        with pytest.raises(ConfigError, match="at least one job"):
            framework.run_many(np.array([], dtype=np.int64))

    def test_rejects_misaligned_arrivals(self):
        with WorkerPool(1, inline=True) as pool:
            with pytest.raises(ConfigError, match="arrival offsets"):
                pool.serve([64, 128], arrivals=[0.0])
            for bad in (float("nan"), float("inf"), -1.0):
                with pytest.raises(ConfigError, match="arrival offsets"):
                    pool.serve([64, 128, 512], arrivals=[0.0, bad, 1.0])

    def test_rejects_nonpositive_rounds(self):
        with WorkerPool(1, inline=True) as pool:
            for rounds in (0, True, 2.5, "2"):
                with pytest.raises(ConfigError, match="rounds"):
                    pool.serve([64], rounds=rounds)
