"""Sensitivity sweeps and the CLI front end."""

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.experiments.sensitivity import (
    format_sweep,
    sweep_host_link_bandwidth,
    sweep_mesh_link_bandwidth,
    sweep_stack_count,
    sweep_units_per_stack,
)


class TestMeshSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return sweep_mesh_link_bandwidth(256, bandwidths=(12e9, 24e9, 96e9))

    def test_speedup_monotone_in_link_bandwidth(self, points):
        """Faster mesh links can only help: Global Comm is mesh-limited."""
        speedups = [p.speedup_vs_cpu for p in points]
        assert speedups == sorted(speedups)

    def test_diminishing_returns(self, points):
        """Doubling links from the Table III point buys less than the
        doubling into it (comm stops being the bottleneck)."""
        gain_into = points[1].speedup_vs_cpu - points[0].speedup_vs_cpu
        gain_beyond = points[2].speedup_vs_cpu - points[1].speedup_vs_cpu
        assert gain_into > 0
        assert gain_beyond < gain_into * 2  # saturating, not superlinear

    def test_format(self, points):
        text = format_sweep("mesh sweep", points)
        assert "speedup" in text and len(text.splitlines()) == 5


class TestOtherSweeps:
    def test_stack_count_scaling(self):
        points = sweep_stack_count(256, mesh_sides=(2, 4))
        assert points[1].speedup_vs_cpu > points[0].speedup_vs_cpu

    def test_host_link_reduces_overhead(self):
        points = sweep_host_link_bandwidth(256, bandwidths=(32e9, 256e9))
        assert (
            points[1].scheduling_overhead_pct
            <= points[0].scheduling_overhead_pct
        )

    def test_units_sweep_runs_and_keeps_spm_budget(self):
        points = sweep_units_per_stack(64, unit_counts=(4, 8))
        assert all(p.speedup_vs_cpu > 0 for p in points)

    def test_validation(self):
        with pytest.raises(ConfigError):
            sweep_mesh_link_bandwidth(64, bandwidths=())
        with pytest.raises(ConfigError):
            sweep_stack_count(64, mesh_sides=(0,))


class TestArrivalSweep:
    def test_knee_detection(self):
        from repro.experiments.scale_serving import find_saturation_knee

        def point(rate, p99):
            return {
                "rate_jobs_per_second": rate,
                "p50_latency_seconds": p99 / 2,
                "p99_latency_seconds": p99,
            }

        flat = [point(1.0, 1.0), point(2.0, 1.1), point(3.0, 1.3)]
        assert find_saturation_knee(flat) is None
        bent = flat + [point(4.0, 5.0), point(5.0, 40.0)]
        assert find_saturation_knee(bent) == 4.0
        # Order-insensitive: the baseline is the lowest rate.
        assert find_saturation_knee(list(reversed(bent))) == 4.0
        assert find_saturation_knee([]) is None

    def test_zero_baseline_does_not_knee_everything(self):
        """Regression: a 0.0 p99 at the lowest rate (degenerate sweep)
        made ``factor * baseline == 0``, so *every* later point with any
        latency at all "kneed".  The baseline must instead advance to
        the first positive p99."""
        from repro.experiments.scale_serving import find_saturation_knee

        def point(rate, p99):
            return {
                "rate_jobs_per_second": rate,
                "p50_latency_seconds": p99 / 2,
                "p99_latency_seconds": p99,
            }

        # Flat-after-zero: no knee (1.1 < 2x the 1.0 baseline).
        flat = [point(1.0, 0.0), point(2.0, 1.0), point(3.0, 1.1)]
        assert find_saturation_knee(flat) is None
        # A real blow-up past the positive baseline still knees.
        bent = [point(1.0, 0.0), point(2.0, 1.0), point(3.0, 2.5)]
        assert find_saturation_knee(bent) == 3.0
        # All-zero sweep: nothing to compare against, no knee.
        zeros = [point(1.0, 0.0), point(2.0, 0.0)]
        assert find_saturation_knee(zeros) is None

    def test_sweep_points_record_lane_utilization_and_shed(self):
        """Every sweep point carries the per-lane utilization (and its
        dominant lane), plus the admission outcome — 0.0 shed when
        admission is off."""
        from repro.experiments.scale_serving import run_arrival_sweep

        sweep = run_arrival_sweep(rates=(1.0, 30.0), batch_size=8, repeats=1)
        for point in sweep["points"]:
            lanes = point["lane_utilization"]
            assert set(lanes) == {"cpu", "ndp", "link:cpu-ndp"}
            assert point["shed_rate"] == 0.0
            assert point["admitted"] == 8 and point["shed"] == 0
            assert point["dominant_lane"] in lanes
        low, high = sweep["points"]
        assert (
            high["lane_utilization"][high["dominant_lane"]]
            > low["lane_utilization"][low["dominant_lane"]]
        )
        assert sweep["knee_rate_jobs_per_second"] == 30.0
        assert sweep["knee_dominant_lane"] == high["dominant_lane"]

    def test_sweep_points_carry_the_sweep_seed(self):
        """Sweep points are serve-bench's open-queue points: each one
        records the arrival process's seed, as the sweep does."""
        from repro.experiments.scale_serving import run_arrival_sweep

        sweep = run_arrival_sweep(
            rates=(1.0, 2.0), batch_size=8, repeats=1, seed=5
        )
        assert sweep["seed"] == 5
        for point in sweep["points"]:
            assert point["seed"] == 5

    def test_sweep_with_admission_sheds_and_caps_p99(self):
        """Admission in the sweep: past the knee the shed rate is
        positive and the post-shed p99 respects the SLO."""
        from repro.core.arrivals import AdmissionPolicy
        from repro.experiments.scale_serving import run_arrival_sweep

        slo = 2.0
        sweep = run_arrival_sweep(
            rates=(30.0,),
            batch_size=16,
            repeats=1,
            admission=AdmissionPolicy(slo_p99=slo),
        )
        (point,) = sweep["points"]
        assert point["shed"] > 0
        assert point["shed_rate"] > 0.0
        assert point["admitted"] + point["shed"] == 16
        assert point["p99_latency_seconds"] <= slo

    def test_sweep_finds_the_knee_past_capacity(self):
        """Offered load far beyond the mix's simulated capacity
        (~3.8 jobs/s) must blow up p99 latency; a low rate must not."""
        from repro.experiments.scale_serving import run_arrival_sweep

        sweep = run_arrival_sweep(
            rates=(1.0, 50.0), batch_size=16, repeats=1
        )
        low, high = sweep["points"]
        assert low["rate_jobs_per_second"] == 1.0
        assert high["rate_jobs_per_second"] == 50.0
        assert high["p99_latency_seconds"] > low["p99_latency_seconds"]
        assert sweep["knee_rate_jobs_per_second"] == 50.0

    def test_sweep_validation(self):
        from repro.experiments.scale_serving import run_arrival_sweep

        with pytest.raises(ConfigError):
            run_arrival_sweep(rates=())
        with pytest.raises(ConfigError):
            run_arrival_sweep(rates=(1.0, -2.0))


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "NDP in Large system" in out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        assert "ridge point" in capsys.readouterr().out

    def test_fig7_with_atoms(self, capsys):
        assert main(["fig7", "--atoms", "64"]) == 0
        out = capsys.readouterr().out
        assert "Si_64" in out and "TOTAL" in out

    def test_fig8(self, capsys):
        assert main(["fig8"]) == 0
        assert "Si_2048" in capsys.readouterr().out

    def test_discussion(self, capsys):
        assert main(["discussion"]) == 0
        assert "scheduling overhead" in capsys.readouterr().out

    def test_ablations(self, capsys):
        assert main(["ablations", "--atoms", "64"]) == 0
        assert "granularity" in capsys.readouterr().out

    def test_batch(self, capsys):
        assert main(["batch", "--atoms", "64", "256"]) == 0
        out = capsys.readouterr().out
        assert "Si_64" in out and "Si_256" in out and "makespan" in out

    @pytest.mark.parametrize("policy", ["cost_aware", "naive", "all_cpu", "all_ndp"])
    def test_batch_policy_flag(self, capsys, policy):
        assert main(["batch", "--atoms", "64", "--policy", policy]) == 0
        out = capsys.readouterr().out
        assert f"scheduling policy: {policy}" in out

    def test_batch_policy_all_cpu_loses_batching_overlap(self, capsys):
        """All-CPU serializes everything on one device: the makespan
        degenerates to the serial time (speedup 1.00x), which is exactly
        the comparison the flag exists to expose."""
        assert main(["batch", "--atoms", "64", "512", "--policy", "all_cpu"]) == 0
        assert "1.00x vs serial" in capsys.readouterr().out

    def test_batch_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["batch", "--policy", "nonsense"])

    @pytest.mark.parametrize(
        "flags",
        [
            ["--arrival-rate", "nan"],
            ["--arrival-rate", "inf"],
            ["--arrival-rate", "2", "--slo-p99", "nan"],
            ["--arrival-rate", "2", "--max-queue-depth", "0"],
            ["--arrival-rate", "2", "--admission-mode", "deprioritize"],
            ["--admission-mode", "shed"],
            ["--batch-sizes", "16"],
            ["--arrival-sweep"],
            ["--backend", "engine"],
            ["--arrival-rate", "2", "--mtbf", "10"],
            ["--arrival-rate", "2", "--shock-rate", "0.5"],
            ["--shock-groups", "ndp"],
            ["--arrival-rate", "2", "--slowdown-factor", "2"],
            ["--checkpoint"],
            ["--replicas", "2"],
            ["--json", "batch.json"],
        ],
    )
    def test_batch_refuses_bad_open_queue_inputs(self, flags):
        """serve-bench's rule: a nan rate does not silently serve the
        closed batch, an inf rate or a bad admission bound is a
        ConfigError, not a ValueError from the arrival layer, and an
        admission mode with no criterion to act on does not serve with
        admission off.  Nor does batch serve while ignoring a flag only
        serve-bench applies."""
        with pytest.raises(ConfigError):
            main(["batch", "--atoms", "64", "128", *flags])

    def test_serve_bench(self, capsys, tmp_path):
        json_path = tmp_path / "BENCH_serving.json"
        assert (
            main(
                [
                    "serve-bench",
                    "--batch-sizes", "4", "8",
                    "--repeats", "1",
                    "--json", str(json_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "jobs/s" in out and "speedup" in out
        assert json_path.exists()

    def test_serve_bench_backend_and_arrival_sweep(self, capsys, tmp_path):
        import json

        json_path = tmp_path / "BENCH_serving.json"
        assert (
            main(
                [
                    "serve-bench",
                    "--batch-sizes", "4",
                    "--repeats", "1",
                    "--backend", "engine",
                    "--arrival-rate", "0",
                    "--arrival-sweep", "2.0", "6.0",
                    "--json", str(json_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "forced simulation backend: engine" in out
        assert "latency vs offered load" in out
        assert "saturation knee" in out
        payload = json.loads(json_path.read_text())
        assert payload["backend"] == "engine"
        assert payload["points"][0]["backend_jobs"] == {"engine": 4}
        sweep = payload["arrival_sweep"]
        assert [p["rate_jobs_per_second"] for p in sweep["points"]] == [2.0, 6.0]
        assert sweep["knee_latency_factor"] > 1.0

    def test_serve_bench_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            main(["serve-bench", "--backend", "nonsense"])

    def test_batch_admission_flags(self, capsys):
        assert (
            main(
                [
                    "batch",
                    "--atoms", "64", "128", "512", "1024",
                    "--arrival-rate", "50.0",
                    "--slo-p99", "1.0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "admission (shed)" in out
        assert "lane utilization" in out

    def test_serve_bench_admission_flags(self, capsys, tmp_path):
        import json

        json_path = tmp_path / "BENCH_serving.json"
        assert (
            main(
                [
                    "serve-bench",
                    "--batch-sizes", "4",
                    "--repeats", "1",
                    "--slo-p99", "2.0",
                    "--admission-mode", "deprioritize",
                    "--json", str(json_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "admission: deprioritize past slo_p99 2 s" in out
        payload = json.loads(json_path.read_text())
        assert payload["admission"] == {
            "slo_p99": 2.0,
            "max_queue_depth": None,
            "mode": "deprioritize",
        }
        arrival = payload["points"][0]["arrival"]
        assert "shed_rate" in arrival and "lane_utilization" in arrival

    def test_admission_mode_validated(self):
        with pytest.raises(SystemExit):
            main(["serve-bench", "--admission-mode", "nonsense"])

    def test_all_excludes_serve_bench(self):
        from repro.cli import _COMMANDS, _EXCLUDED_FROM_ALL

        assert "serve-bench" in _COMMANDS
        assert "serve-bench" in _EXCLUDED_FROM_ALL

    def test_rejects_unknown_artifact(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])
