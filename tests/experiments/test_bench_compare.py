"""The serving-benchmark trend gate (CI bench-smoke comparison)."""

import json

import pytest

from repro.errors import ConfigError
from repro.experiments.bench_compare import (
    compare_serving_reports,
    format_comparison,
    hosts_comparable,
    main,
)


def _report(points, metadata=None, speedups=None, arrivals=None):
    out = {
        "benchmark": "scale_serving",
        "points": [
            {"batch_size": size, "jobs_per_second_cached": jps}
            for size, jps in points
        ],
    }
    if speedups:
        for point, speedup in zip(out["points"], speedups):
            point["wall_speedup"] = speedup
    if arrivals:
        for point, arrival in zip(out["points"], arrivals):
            if arrival is not None:
                p99, rate, seed = arrival
                point["arrival"] = {
                    "p99_latency_seconds": p99,
                    "rate_jobs_per_second": rate,
                    "seed": seed,
                }
    if metadata:
        out["metadata"] = metadata
    return out


class TestCompareServingReports:
    def test_within_tolerance_passes(self):
        committed = _report([(16, 1000.0), (64, 2000.0)])
        fresh = _report([(16, 800.0), (64, 1500.0)])  # -20%, -25%
        assert compare_serving_reports(committed, fresh) == []

    def test_regression_beyond_tolerance_fails(self):
        committed = _report([(16, 1000.0), (64, 2000.0)])
        fresh = _report([(16, 999.0), (64, 1000.0)])  # -50% at 64
        failures = compare_serving_reports(committed, fresh)
        assert len(failures) == 1
        assert "batch 64" in failures[0]

    def test_only_shared_batch_sizes_compared(self):
        committed = _report([(16, 1000.0), (1024, 9000.0)])
        fresh = _report([(16, 950.0), (32, 1.0)])  # 32/1024 unshared
        assert compare_serving_reports(committed, fresh) == []

    def test_no_shared_sizes_is_a_failure(self):
        failures = compare_serving_reports(
            _report([(16, 1000.0)]), _report([(32, 1000.0)])
        )
        assert failures and "no shared batch sizes" in failures[0]

    def test_improvements_always_pass(self):
        committed = _report([(16, 1000.0)])
        fresh = _report([(16, 5000.0)])
        assert compare_serving_reports(committed, fresh) == []

    def test_tolerance_validation(self):
        with pytest.raises(ConfigError):
            compare_serving_reports(_report([]), _report([]), max_regression=1.0)

    def test_absent_new_fields_are_not_regressions(self):
        """A committed baseline written before the per-backend fields
        existed (no ``backend_jobs``/``backend_wall_seconds``, no
        ``wall_speedup``) must compare cleanly against a fresh report
        that has them all — absent is advisory, never a failure."""
        committed = _report([(16, 1000.0), (64, 2000.0)])
        fresh = _report(
            [(16, 900.0), (64, 1900.0)], speedups=[12.0, 20.0]
        )
        for point in fresh["points"]:
            point["backend_jobs"] = {"vector_replay": point["batch_size"]}
            point["backend_wall_seconds"] = {"vector_replay": 0.01}
        assert compare_serving_reports(committed, fresh) == []
        # Symmetric: trending a new-format committed file against a
        # fresh one whose large points skipped the uncached baseline
        # (wall_speedup null past UNCACHED_COMPARE_MAX) skips that gate.
        committed = _report(
            [(16384, 30000.0), (65536, 50000.0)], speedups=[8.0, 9.0]
        )
        fresh = _report([(16384, 29000.0), (65536, 48000.0)])
        for point in fresh["points"]:
            point["wall_speedup"] = None
            point["backend_wall_seconds"] = None
        assert compare_serving_reports(committed, fresh) == []

    def test_hosts_comparable(self):
        same = {"python": "3.12.1", "machine": "x86_64", "cpu_count": 4}
        assert hosts_comparable(_report([], metadata=same), _report([], metadata=same))
        assert not hosts_comparable(
            _report([], metadata=same),
            _report([], metadata=dict(same, cpu_count=64)),
        )
        assert not hosts_comparable(
            _report([], metadata=same),
            _report([], metadata=dict(same, python="3.11.7")),
        )
        # Patch releases and kernel-build churn do not break comparability.
        assert hosts_comparable(
            _report([], metadata=dict(same, platform="Linux-6.1-x")),
            _report([], metadata=dict(same, python="3.12.9", platform="Linux-6.8-y")),
        )
        # Missing metadata (older files) stays conservative: comparable.
        assert hosts_comparable(_report([]), _report([], metadata=same))

    def test_speedup_regression_gates_across_hosts(self):
        """wall_speedup is host-relative, so it fails the gate even when
        the absolute-throughput comparison is suppressed by a host
        mismatch."""
        meta_a = {"python": "3.11.7", "machine": "x86_64", "cpu_count": 1}
        meta_b = {"python": "3.12.1", "machine": "x86_64", "cpu_count": 4}
        committed = _report([(16, 9000.0)], metadata=meta_a, speedups=[8.0])
        fresh = _report([(16, 900.0)], metadata=meta_b, speedups=[2.0])
        failures = compare_serving_reports(committed, fresh)
        assert len(failures) == 1
        assert "speedup" in failures[0]

    def test_absolute_throughput_not_gated_across_hosts(self):
        meta_a = {"python": "3.11.7", "machine": "x86_64", "cpu_count": 1}
        meta_b = {"python": "3.12.1", "machine": "x86_64", "cpu_count": 4}
        committed = _report([(16, 9000.0)], metadata=meta_a, speedups=[8.0])
        fresh = _report([(16, 900.0)], metadata=meta_b, speedups=[7.9])
        assert compare_serving_reports(committed, fresh) == []

    def test_mismatched_forced_backends_are_refused(self):
        """A --backend-forced sweep is a different experiment (an
        engine-forced run is legitimately several times slower), so it
        cannot be trended against an auto-selected file."""
        auto = _report([(16, 1000.0)])
        forced = dict(_report([(16, 300.0)]), backend="engine")
        for committed, fresh in ((auto, forced), (forced, auto)):
            failures = compare_serving_reports(committed, fresh)
            assert failures and "backend" in failures[0]
        # Two files forced to the same backend trend normally.
        also_forced = dict(_report([(16, 290.0)]), backend="engine")
        assert compare_serving_reports(forced, also_forced) == []

    def test_mismatched_admission_policies_are_refused(self):
        """Shed rates and post-shed latencies from one admission policy
        are a different experiment from another's (or from no policy):
        refused like mismatched forced backends."""
        off = _report([(16, 1000.0)])
        slo = dict(
            _report([(16, 1000.0)]),
            admission={"slo_p99": 2.0, "max_queue_depth": None, "mode": "shed"},
        )
        for committed, fresh in ((off, slo), (slo, off)):
            failures = compare_serving_reports(committed, fresh)
            assert failures and "admission" in failures[0]
        # Two files under the same policy trend normally.
        same = dict(
            _report([(16, 990.0)]),
            admission={"slo_p99": 2.0, "max_queue_depth": None, "mode": "shed"},
        )
        assert compare_serving_reports(slo, same) == []
        # A different SLO is still a mismatch.
        other = dict(
            _report([(16, 990.0)]),
            admission={"slo_p99": 9.0, "max_queue_depth": None, "mode": "shed"},
        )
        assert compare_serving_reports(slo, other)

    def test_mismatched_fault_plans_are_refused(self):
        """Availability, goodput and retry-inflated latencies under one
        fault plan cannot be trended against a healthy run (or a run
        under a different plan) — refused like mismatched admission.
        A file predating the field (no "faults" key) reads as off."""

        def _faulted(jps, digest):
            return dict(
                _report([(16, jps)]),
                faults={
                    "plan": {"seed": 7, "digest": digest},
                    "retry": {"max_attempts": 3},
                },
            )

        healthy = _report([(16, 1000.0)])
        faulted = _faulted(500.0, "abc123")
        for committed, fresh in ((healthy, faulted), (faulted, healthy)):
            failures = compare_serving_reports(committed, fresh)
            assert failures and "fault plans" in failures[0]
            assert "cannot be trended" in failures[0]
        # The refusal names the plans compactly by digest.
        assert "plan abc123" in compare_serving_reports(healthy, faulted)[0]
        # Two files under the identical plan trend normally; a
        # different plan is still a mismatch.
        assert compare_serving_reports(faulted, _faulted(450.0, "abc123")) == []
        assert compare_serving_reports(faulted, _faulted(500.0, "def456"))
        # Legacy files without the key trend against explicit faults-off.
        explicit_off = dict(_report([(16, 990.0)]), faults=None)
        assert compare_serving_reports(healthy, explicit_off) == []

    def test_same_timeline_refusal_names_the_differing_keys(self):
        """Two descriptors of one fault timeline (equal digests) that
        differ elsewhere are still refused, and the refusal says that
        the timeline matched and which descriptor keys differ."""

        def _faulted(plan, retry):
            return dict(_report([(16, 500.0)]), faults={"plan": plan, "retry": retry})

        committed = _faulted(
            {"seed": None, "mtbf": 10.0, "digest": "abc123"}, {"max_attempts": 3}
        )
        fresh = _faulted(
            {"provenance": [], "mtbf": 10.0, "digest": "abc123"},
            {"max_attempts": 4},
        )
        (failure,) = compare_serving_reports(committed, fresh)
        assert "share the fault timeline of plan abc123" in failure
        assert (
            "differ in plan.provenance, plan.seed, retry.max_attempts;" in failure
        )
        assert "cannot be trended" in failure

    def test_mismatched_replica_counts_are_refused(self):
        """A fleet aggregate (--replicas N) is legitimately a multiple
        of the single-process throughput: trending across different
        fleet sizes is refused like mismatched forced backends.  A file
        predating the field (no "replicas" key) reads as one replica."""
        solo = _report([(16, 1000.0)])
        fleet = dict(_report([(16, 3600.0)]), replicas=4)
        for committed, fresh in ((solo, fleet), (fleet, solo)):
            failures = compare_serving_reports(committed, fresh)
            assert failures and "fleet sizes" in failures[0]
            assert "cannot be trended" in failures[0]
        assert "1 vs 4 replicas" in compare_serving_reports(solo, fleet)[0]
        # Two files at the same fleet size trend normally — including
        # the ordinary throughput gate over the fleet aggregate.
        same_fleet = dict(_report([(16, 3500.0)]), replicas=4)
        assert compare_serving_reports(fleet, same_fleet) == []
        regressed = dict(_report([(16, 1000.0)]), replicas=4)
        failures = compare_serving_reports(fleet, regressed)
        assert len(failures) == 1 and "throughput" in failures[0]
        # A different fleet size is still a mismatch.
        other_fleet = dict(_report([(16, 1800.0)]), replicas=2)
        assert compare_serving_reports(fleet, other_fleet)

    def test_explicit_single_replica_matches_legacy_files(self):
        """replicas: 1 (a fresh single-process run) trends against a
        legacy file without the key."""
        legacy = _report([(16, 1000.0)])
        explicit = dict(_report([(16, 990.0)]), replicas=1)
        assert compare_serving_reports(legacy, explicit) == []
        assert compare_serving_reports(explicit, legacy) == []

    @staticmethod
    def _resilient(jps, availability, goodput, rate=2.0, seed=0, digest="abc123"):
        report = dict(
            _report([(16, jps)]),
            faults={
                "plan": {"seed": 7, "digest": digest},
                "retry": {"max_attempts": 3, "checkpoint": True},
            },
        )
        report["points"][0]["arrival"] = {
            "rate_jobs_per_second": rate,
            "seed": seed,
            "resilience": {"availability": availability, "goodput": goodput},
        }
        return report

    def test_availability_and_goodput_gated_at_matching_descriptors(self):
        """Under *matching* fault descriptors the resilience numbers are
        trended, not refused: a >tolerance drop in availability or
        goodput fails CI."""
        committed = self._resilient(1000.0, 1.0, 1.8)
        within = self._resilient(990.0, 0.9, 1.5)
        assert compare_serving_reports(committed, within) == []
        worse_avail = self._resilient(990.0, 0.5, 1.8)
        failures = compare_serving_reports(committed, worse_avail)
        assert len(failures) == 1
        assert "availability" in failures[0]
        worse_goodput = self._resilient(990.0, 1.0, 0.9)
        failures = compare_serving_reports(committed, worse_goodput)
        assert len(failures) == 1
        assert "goodput" in failures[0]

    def test_resilience_not_compared_across_rates_or_hosts(self):
        """Same comparability rules as throughput/p99: a different
        arrival process skips the gate, and so does a host-class
        mismatch."""
        committed = self._resilient(1000.0, 1.0, 1.8)
        other_rate = self._resilient(1000.0, 0.1, 0.1, rate=9.0)
        assert compare_serving_reports(committed, other_rate) == []
        meta_a = {"python": "3.11.7", "machine": "x86_64", "cpu_count": 1}
        meta_b = {"python": "3.12.1", "machine": "x86_64", "cpu_count": 4}
        cross_host = dict(self._resilient(1000.0, 0.1, 0.1), metadata=meta_b)
        committed_meta = dict(committed, metadata=meta_a)
        assert compare_serving_reports(committed_meta, cross_host) == []

    def test_resilience_gate_skips_missing_blocks(self):
        committed = self._resilient(1000.0, 1.0, 1.8)
        missing = self._resilient(1000.0, 1.0, 1.8)
        del missing["points"][0]["arrival"]["resilience"]
        assert compare_serving_reports(committed, missing) == []

    def test_format_shows_resilience_trend(self):
        committed = self._resilient(1000.0, 1.0, 1.8)
        fresh = self._resilient(1000.0, 0.5, 0.9)
        failures = compare_serving_reports(committed, fresh)
        text = format_comparison(committed, fresh, failures)
        assert "avail 100% -> 50%" in text
        assert "goodput 1.80 -> 0.90" in text

    @staticmethod
    def _sweep(knee_lane, seed=0, batch_size=256, rates=(1.0, 2.0), knee_rate=None):
        return {
            "seed": seed,
            "batch_size": batch_size,
            "knee_rate_jobs_per_second": (
                rates[-1] if knee_rate is None else knee_rate
            ),
            "knee_dominant_lane": knee_lane,
            "points": [{"rate_jobs_per_second": rate} for rate in rates],
        }

    def test_knee_dominant_lane_change_fails(self):
        committed = dict(_report([(16, 1000.0)]), arrival_sweep=self._sweep("ndp"))
        fresh = dict(
            _report([(16, 1000.0)]), arrival_sweep=self._sweep("link:cpu-ndp")
        )
        failures = compare_serving_reports(committed, fresh)
        assert len(failures) == 1
        assert "dominant lane" in failures[0]
        assert "'ndp'" in failures[0] and "'link:cpu-ndp'" in failures[0]

    def test_knee_lane_gate_requires_matching_sweeps(self):
        """A different seed, batch size or rate grid is a different
        experiment: the lane gate skips rather than fails."""
        committed = dict(_report([(16, 1000.0)]), arrival_sweep=self._sweep("ndp"))
        for other in (
            self._sweep("cpu", seed=7),
            self._sweep("cpu", batch_size=64),
            self._sweep("cpu", rates=(1.0, 4.0)),
            # A knee at a different rate is a different operating point:
            # its dominant lane is legitimately allowed to differ.
            self._sweep("cpu", knee_rate=1.0),
        ):
            fresh = dict(_report([(16, 1000.0)]), arrival_sweep=other)
            assert compare_serving_reports(committed, fresh) == []

    def test_knee_lane_gate_skips_missing_knees(self):
        """No sweep, or a sweep that never kneed (lane None), cannot be
        gated — older files and unsaturated sweeps still trend."""
        with_knee = dict(_report([(16, 1000.0)]), arrival_sweep=self._sweep("ndp"))
        no_sweep = _report([(16, 1000.0)])
        no_knee = dict(_report([(16, 1000.0)]), arrival_sweep=self._sweep(None))
        assert compare_serving_reports(with_knee, no_sweep) == []
        assert compare_serving_reports(with_knee, no_knee) == []
        assert compare_serving_reports(no_knee, with_knee) == []

    def test_matching_knee_lane_passes(self):
        committed = dict(_report([(16, 1000.0)]), arrival_sweep=self._sweep("ndp"))
        fresh = dict(_report([(16, 990.0)]), arrival_sweep=self._sweep("ndp"))
        assert compare_serving_reports(committed, fresh) == []

    def test_knee_lane_gates_across_host_classes(self):
        """Lane identity is virtual-time accounting: a host mismatch
        does not suppress it (unlike absolute throughput)."""
        meta_a = {"python": "3.11.7", "machine": "x86_64", "cpu_count": 1}
        meta_b = {"python": "3.12.1", "machine": "x86_64", "cpu_count": 4}
        committed = dict(
            _report([(16, 1000.0)], metadata=meta_a),
            arrival_sweep=self._sweep("ndp"),
        )
        fresh = dict(
            _report([(16, 1000.0)], metadata=meta_b),
            arrival_sweep=self._sweep("cpu"),
        )
        failures = compare_serving_reports(committed, fresh)
        assert failures and "dominant lane" in failures[0]

    def test_p99_regression_beyond_tolerance_fails(self):
        committed = _report([(16, 1000.0)], arrivals=[(1.0, 2.0, 0)])
        fresh = _report([(16, 1000.0)], arrivals=[(1.5, 2.0, 0)])  # +50%
        failures = compare_serving_reports(committed, fresh)
        assert len(failures) == 1
        assert "p99" in failures[0]

    def test_p99_within_tolerance_and_improvements_pass(self):
        committed = _report([(16, 1000.0)], arrivals=[(1.0, 2.0, 0)])
        within = _report([(16, 1000.0)], arrivals=[(1.2, 2.0, 0)])
        better = _report([(16, 1000.0)], arrivals=[(0.5, 2.0, 0)])
        assert compare_serving_reports(committed, within) == []
        assert compare_serving_reports(committed, better) == []

    def test_p99_not_compared_across_rates_or_seeds(self):
        """A different offered load (or arrival seed) is a different
        experiment: the latency numbers are incomparable, so the gate
        skips them instead of failing."""
        committed = _report([(16, 1000.0)], arrivals=[(1.0, 2.0, 0)])
        other_rate = _report([(16, 1000.0)], arrivals=[(9.0, 4.0, 0)])
        other_seed = _report([(16, 1000.0)], arrivals=[(9.0, 2.0, 7)])
        assert compare_serving_reports(committed, other_rate) == []
        assert compare_serving_reports(committed, other_seed) == []

    def test_p99_not_gated_across_host_classes(self):
        """Same refusal rules as absolute throughput: a host-class
        mismatch suppresses the p99 gate (advisory context only)."""
        meta_a = {"python": "3.11.7", "machine": "x86_64", "cpu_count": 1}
        meta_b = {"python": "3.12.1", "machine": "x86_64", "cpu_count": 4}
        committed = _report(
            [(16, 1000.0)], metadata=meta_a, arrivals=[(1.0, 2.0, 0)]
        )
        fresh = _report(
            [(16, 1000.0)], metadata=meta_b, arrivals=[(5.0, 2.0, 0)]
        )
        assert compare_serving_reports(committed, fresh) == []
        same_host = _report(
            [(16, 1000.0)], metadata=meta_a, arrivals=[(5.0, 2.0, 0)]
        )
        assert compare_serving_reports(committed, same_host)

    def test_missing_arrival_blocks_skip_the_p99_gate(self):
        committed = _report([(16, 1000.0)], arrivals=[(1.0, 2.0, 0)])
        fresh = _report([(16, 1000.0)])  # no open-queue block (older file)
        assert compare_serving_reports(committed, fresh) == []
        assert compare_serving_reports(fresh, committed) == []

    def test_format_shows_p99_trend(self):
        committed = _report([(16, 1000.0)], arrivals=[(1.0, 2.0, 0)])
        fresh = _report([(16, 1000.0)], arrivals=[(1.5, 2.0, 0)])
        failures = compare_serving_reports(committed, fresh)
        text = format_comparison(committed, fresh, failures)
        assert "p99 1.0000 -> 1.5000 s" in text
        assert "FAIL" in text

    def test_format_mentions_metadata_and_verdict(self):
        committed = _report([(16, 1000.0)], metadata={"python": "3.11.7"})
        fresh = _report([(16, 100.0)])
        failures = compare_serving_reports(committed, fresh)
        text = format_comparison(committed, fresh, failures)
        assert "python=3.11.7" in text
        assert "FAIL" in text
        ok_text = format_comparison(committed, committed, [])
        assert "OK" in ok_text


class TestMain:
    def test_exit_codes(self, tmp_path, capsys):
        committed = tmp_path / "committed.json"
        fresh = tmp_path / "fresh.json"
        committed.write_text(json.dumps(_report([(16, 1000.0)])))
        fresh.write_text(json.dumps(_report([(16, 990.0)])))
        assert main([str(committed), str(fresh)]) == 0
        fresh.write_text(json.dumps(_report([(16, 10.0)])))
        assert main([str(committed), str(fresh)]) == 1
        capsys.readouterr()

    def test_missing_input_is_a_usage_error(self, tmp_path, capsys):
        """A missing committed or fresh file exits 2 with one error
        line, so CI cannot mistake it for a regression (exit 1)."""
        present = tmp_path / "present.json"
        present.write_text(json.dumps(_report([(16, 1000.0)])))
        missing = tmp_path / "missing.json"
        for args in ([missing, present], [present, missing]):
            with pytest.raises(SystemExit) as excinfo:
                main(list(map(str, args)))
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert f"error: cannot read {missing}: " in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["truncated", "list"])
    def test_malformed_input_is_a_usage_error(self, tmp_path, capsys, kind):
        """A file cut off mid-write (not valid JSON) or JSON that is not
        an object exits 2 with one error line, not a traceback."""
        present = tmp_path / "present.json"
        text = json.dumps(_report([(16, 1000.0)]))
        present.write_text(text)
        malformed = tmp_path / "malformed.json"
        malformed.write_text(
            text[: len(text) // 2] if kind == "truncated" else "[]"
        )
        for args in ([malformed, present], [present, malformed]):
            with pytest.raises(SystemExit) as excinfo:
                main(list(map(str, args)))
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert f"error: cannot read {malformed}: " in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("tolerance", ["1.5", "nan", "-0.1"])
    def test_bad_tolerance_is_a_usage_error(self, tmp_path, capsys, tolerance):
        """A tolerance outside [0, 1) exits 2 with argparse's one-line
        error, not a traceback."""
        committed = tmp_path / "committed.json"
        committed.write_text(json.dumps(_report([(16, 1000.0)])))
        args = [str(committed), str(committed), "--max-regression", tolerance]
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"error: max_regression must be in [0, 1), got {tolerance}" in err

    def test_custom_tolerance(self, tmp_path, capsys):
        committed = tmp_path / "committed.json"
        fresh = tmp_path / "fresh.json"
        committed.write_text(json.dumps(_report([(16, 1000.0)])))
        fresh.write_text(json.dumps(_report([(16, 550.0)])))
        assert main([str(committed), str(fresh)]) == 1
        assert (
            main([str(committed), str(fresh), "--max-regression", "0.5"]) == 0
        )
        capsys.readouterr()

    def test_host_mismatch_suppresses_only_absolute_throughput(
        self, tmp_path, capsys
    ):
        """A throughput drop measured on a *different* host class is not
        regression signal (exit 0, context note); the same files on one
        host fail.  Structural refusals fail regardless of hosts."""
        committed = tmp_path / "committed.json"
        fresh = tmp_path / "fresh.json"
        meta_a = {"python": "3.12.1", "machine": "x86_64", "cpu_count": 64}
        meta_b = {"python": "3.11.7", "machine": "aarch64", "cpu_count": 2}
        committed.write_text(json.dumps(_report([(16, 9000.0)], metadata=meta_a)))
        fresh.write_text(json.dumps(_report([(16, 900.0)], metadata=meta_b)))
        assert main([str(committed), str(fresh)]) == 0
        out = capsys.readouterr().out
        assert "hosts differ" in out
        # Same host: the identical regression fails.
        fresh.write_text(json.dumps(_report([(16, 900.0)], metadata=meta_a)))
        assert main([str(committed), str(fresh)]) == 1
        # Files from different forced backends fail even across hosts.
        committed.write_text(
            json.dumps(
                {**_report([(16, 900.0)], metadata=meta_a), "backend": "engine"}
            )
        )
        fresh.write_text(
            json.dumps(
                {**_report([(16, 900.0)], metadata=meta_b), "backend": "dag_replay"}
            )
        )
        assert main([str(committed), str(fresh)]) == 1
        capsys.readouterr()
