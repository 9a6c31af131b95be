"""Reproduction assertions: every table/figure lands in the paper's band.

These are the repository's acceptance tests: each checks the *shape* the
paper reports (who wins, by roughly what factor, where classifications
flip), with tolerances recorded in EXPERIMENTS.md.
"""

import pytest

from repro.experiments.ablations import (
    run_granularity_ablation,
    run_policy_ablation,
    run_shared_memory_ablation,
)
from repro.experiments.batch_throughput import format_batch, run_batch_study
from repro.experiments.discussion import run_discussion
from repro.experiments.fig4_roofline import format_roofline, run_roofline_study
from repro.experiments.fig7_breakdown import (
    breakdown_comparisons,
    format_breakdown,
    run_breakdown,
)
from repro.experiments.fig8_scalability import (
    format_scalability,
    run_scalability,
)
from repro.experiments.report import Comparison, format_table
from repro.experiments.table1_footprint import (
    format_table1,
    table1_comparisons,
)
from repro.model import PhaseName


@pytest.fixture(scope="module")
def roofline_study():
    return run_roofline_study()


@pytest.fixture(scope="module")
def small_breakdown(framework):
    return run_breakdown(64, framework)


@pytest.fixture(scope="module")
def large_breakdown(framework):
    return run_breakdown(1024, framework)


@pytest.fixture(scope="module")
def scalability(framework):
    return run_scalability(framework=framework)


class TestFig4:
    def test_observation_1_memory_bound_majority(self, roofline_study):
        assert roofline_study.observation_memory_bound_majority()

    def test_observation_2_kernel_split(self, roofline_study):
        assert roofline_study.observation_kernel_split()

    def test_observation_3_size_dependence(self, roofline_study):
        assert roofline_study.observation_size_dependence()

    def test_points_within_roofline(self, roofline_study):
        for point in roofline_study.points.values():
            assert point.attained_flops <= point.attainable_flops * 1.01

    def test_format_has_all_rows(self, roofline_study):
        text = format_roofline(roofline_study)
        assert text.count("Si_64") == 4 and text.count("Si_1024") == 4


class TestTable1:
    def test_all_cells_match_paper(self):
        for comparison in table1_comparisons():
            assert comparison.ratio == pytest.approx(1.0, abs=0.01), comparison.metric

    def test_format(self):
        assert "NDP in Large system" in format_table1()


class TestFig7Small:
    def test_speedup_vs_cpu_band(self, small_breakdown):
        assert 1.9 * 0.7 < small_breakdown.speedup_vs_cpu < 1.9 * 1.5

    def test_speedup_vs_gpu_band(self, small_breakdown):
        assert 1.6 * 0.6 < small_breakdown.speedup_vs_gpu < 1.6 * 1.4

    def test_face_split_speedup_band(self, small_breakdown):
        measured = small_breakdown.kernel_speedup_vs_cpu(PhaseName.FACE_SPLIT)
        assert 1.99 * 0.7 < measured < 1.99 * 1.4

    def test_gpu_gemm_wins_small(self, small_breakdown):
        assert small_breakdown.gpu_gemm_advantage_percent() > 0


class TestFig7Large:
    def test_speedup_vs_cpu_band(self, large_breakdown):
        assert 5.2 * 0.8 < large_breakdown.speedup_vs_cpu < 5.2 * 1.25

    def test_speedup_vs_gpu_band(self, large_breakdown):
        assert 2.5 * 0.7 < large_breakdown.speedup_vs_gpu < 2.5 * 1.3

    def test_fft_speedup_band(self, large_breakdown):
        measured = large_breakdown.kernel_speedup_vs_cpu(PhaseName.FFT)
        assert 11.2 * 0.8 < measured < 11.2 * 1.2

    def test_gpu_gemm_wins_large_but_modestly(self, large_breakdown):
        advantage = large_breakdown.gpu_gemm_advantage_percent()
        assert 5.0 < advantage < 60.0  # paper: 22.2 %

    def test_memory_kernels_beat_gpu(self, large_breakdown):
        assert large_breakdown.memory_kernel_speedup_vs_gpu() > 2.0

    def test_format(self, large_breakdown):
        text = format_breakdown(large_breakdown)
        assert "TOTAL" in text and "scheduling" in text

    def test_comparisons_cover_quoted_numbers(self, large_breakdown):
        metrics = {c.metric for c in breakdown_comparisons(large_breakdown)}
        assert any("FFT" in m for m in metrics)


class TestFig8:
    def test_speedup_grows_with_size(self, scalability):
        assert scalability.is_monotone_from(start=32)

    def test_small_end_modest(self, scalability):
        assert scalability.ndft_speedup[16] < 2.0

    def test_large_end_in_band(self, scalability):
        assert 5.33 * 0.85 < scalability.ndft_speedup[2048] < 5.33 * 1.15

    def test_gpu_curve_flat_around_2x(self, scalability):
        large_values = [
            scalability.gpu_speedup[n] for n in (256, 1024, 2048)
        ]
        assert all(1.5 < v < 3.5 for v in large_values)

    def test_ndft_beats_gpu_at_scale(self, scalability):
        for n in (128, 256, 1024, 2048):
            assert scalability.ndft_speedup[n] > scalability.gpu_speedup[n]

    def test_format(self, scalability):
        assert "Si_2048" in format_scalability(scalability)


class TestDiscussion:
    @pytest.fixture(scope="class")
    def numbers(self, framework):
        return run_discussion(framework)

    def test_scheduling_overhead_bands(self, numbers):
        assert 2.0 < numbers.sched_overhead_small_pct < 8.0   # paper 3.8
        assert 2.0 < numbers.sched_overhead_large_pct < 8.0   # paper 4.9

    def test_footprint_numbers_exact(self, numbers):
        assert numbers.footprint_reduction_pct == pytest.approx(57.8, abs=0.3)
        assert numbers.footprint_vs_cpu_ratio == pytest.approx(1.08, abs=0.01)

    def test_comm_sync_small(self, numbers):
        assert 0.5 < numbers.global_comm_delta_pct < 8.0      # paper 3.2

    def test_comparisons_render(self, numbers):
        text = format_table("discussion", numbers.comparisons())
        assert "scheduling overhead" in text


class TestAblations:
    def test_granularity_ordering(self, framework):
        overheads = run_granularity_ablation(64, framework)
        assert overheads["function"] < overheads["basic_block"]
        assert overheads["basic_block"] < overheads["instruction"]

    def test_policy_cost_aware_wins(self, framework):
        for n in (64, 1024):
            assert run_policy_ablation(n, framework).cost_aware_wins

    def test_shared_memory_functional_ablation(self):
        result = run_shared_memory_ablation()
        assert result.memory_reduction_percent > 50.0
        assert result.filter_effective
        assert result.inter_stack_bytes_first_pass > 0


class TestBatchStudy:
    def test_mixed_batch_beats_serial(self, framework):
        study = run_batch_study((64, 512), framework)
        assert study.makespan < study.serial_time
        assert study.batching_speedup > 1.0

    def test_format(self, framework):
        study = run_batch_study((64, 64), framework)
        text = format_batch(study)
        assert "Si_64" in text and "makespan" in text
        # one header, one column row, one row per job, serial + batch rows
        assert len(text.splitlines()) == 2 + 2 + 2


class TestReport:
    def test_comparison_ratio(self):
        c = Comparison("m", paper=2.0, measured=1.0)
        assert c.ratio == 0.5

    def test_comparison_without_paper_value(self):
        c = Comparison("m", paper=None, measured=1.0)
        assert c.ratio is None
        assert "(figure)" in c.row()
