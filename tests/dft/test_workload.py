"""Tests for the analytic workload model, including its consistency with
the instrumented numpy kernels at executable scale."""

import math

import numpy as np
import pytest

from repro.dft.workload import (
    GRID_POINTS_PER_ATOM,
    gemm_intensity,
    problem_size,
    stage_workloads,
    syevd_intensity,
)
from repro.errors import ConfigError
from repro.model import AccessPattern, PhaseName


class TestProblemSize:
    def test_paper_dimensions(self):
        ps = problem_size(64)
        assert ps.label == "Si_64"
        assert ps.n_valence == 128
        assert ps.n_active_valence == 40   # 5 * sqrt(64)
        assert ps.n_active_conduction == 8
        assert ps.n_pairs == 320

    def test_grid_tracks_atom_count(self):
        for n in (16, 64, 256, 1024):
            ps = problem_size(n)
            assert 0.8 * GRID_POINTS_PER_ATOM * n <= ps.n_grid <= 1.6 * GRID_POINTS_PER_ATOM * n

    def test_sphere_fractions(self):
        ps = problem_size(256)
        assert ps.n_pw == ps.n_grid // 8
        assert ps.n_chi == ps.n_grid // 160

    def test_rejects_bad_atoms(self):
        with pytest.raises(ConfigError):
            problem_size(0)

    @pytest.mark.parametrize("n_atoms", [True, 64.0, 64.5, "64"])
    def test_rejects_non_integer_atoms(self, n_atoms):
        """The check is on the type, not the value: ``True`` would build
        Si_1 and ``64.0`` equals 64, yet neither is an atom count."""
        with pytest.raises(ConfigError, match="n_atoms must be an integer"):
            problem_size(n_atoms)

    def test_accepts_numpy_integers(self):
        assert problem_size(np.int64(64)) == problem_size(64)

    def test_pair_volume(self):
        ps = problem_size(16)
        assert ps.pair_volume == ps.n_pairs * ps.n_grid


class TestIntensities:
    def test_syevd_flips_with_size(self):
        """The Fig. 4 observation: SYEVD memory-bound small, compute-bound
        large.  The CPU ridge is ~8.7 FLOP/byte."""
        assert syevd_intensity(problem_size(64).n_pairs) < 8.0
        assert syevd_intensity(problem_size(1024).n_pairs) > 9.0

    def test_syevd_clipped(self):
        assert syevd_intensity(1) == 2.0
        assert syevd_intensity(10**6) == 30.0

    def test_gemm_grows_with_size(self):
        small = gemm_intensity(problem_size(64).n_pairs)
        large = gemm_intensity(problem_size(1024).n_pairs)
        assert small < large


class TestStageWorkloads:
    @pytest.fixture(scope="class")
    def workloads(self):
        return stage_workloads(problem_size(64))

    def test_all_phases_present(self, workloads):
        assert set(workloads) == set(PhaseName)

    def test_memory_phases_low_intensity(self, workloads):
        for phase in (PhaseName.FACE_SPLIT, PhaseName.FFT):
            assert workloads[phase].arithmetic_intensity < 2.0

    def test_gemm_high_intensity(self, workloads):
        assert workloads[PhaseName.GEMM].arithmetic_intensity > 20.0

    def test_comm_carries_bytes_not_flops(self, workloads):
        comm = workloads[PhaseName.GLOBAL_COMM]
        assert comm.flops == 0
        assert comm.comm_bytes > 0

    def test_patterns(self, workloads):
        assert workloads[PhaseName.FFT].access_pattern is AccessPattern.STRIDED
        assert workloads[PhaseName.GEMM].access_pattern is AccessPattern.BLOCKED
        assert (
            workloads[PhaseName.GLOBAL_COMM].access_pattern
            is AccessPattern.IRREGULAR
        )

    def test_streaming_phases_scale_superlinearly(self):
        """p * n_grid ~ N^1.5: doubling atoms raises FFT traffic ~2.8x."""
        small = stage_workloads(problem_size(256))[PhaseName.FFT].bytes_total
        large = stage_workloads(problem_size(1024))[PhaseName.FFT].bytes_total
        assert 4.0 < large / small < 14.0  # ideal (4)^1.5 = 8

    def test_footprints_positive(self, workloads):
        for workload in workloads.values():
            assert workload.dataset_bytes > 0


class TestConsistencyWithInstrumentedKernels:
    """The analytic model and the executable kernels must agree on FLOP
    scaling at executable sizes (the workload model's anchor)."""

    def test_fft_flops_formula(self, si8_basis, rng):
        from repro.dft.kernels import KernelCounters, fft_3d

        counters = KernelCounters()
        batch = rng.normal(size=(10, *si8_basis.fft_shape)).astype(complex)
        fft_3d(batch, counters)
        n = si8_basis.n_grid
        assert counters.flops == pytest.approx(10 * 5 * n * math.log2(n), rel=1e-9)

    def test_syevd_flops_formula(self, rng):
        from repro.dft.kernels import KernelCounters, syevd

        counters = KernelCounters()
        m = rng.normal(size=(32, 32))
        syevd(m + m.T, counters)
        assert counters.flops == pytest.approx(9 * 32**3)

    def test_face_split_flops_per_point(self, rng):
        """The analytic model charges 18 FLOPs/point for face-split plus
        the two pointwise kernel multiplies; the executable face-split
        alone charges 6 — exactly one third."""
        from repro.dft.kernels import KernelCounters, face_splitting_product

        counters = KernelCounters()
        face_splitting_product(
            rng.normal(size=(4, 100)).astype(complex),
            rng.normal(size=(2, 100)).astype(complex),
            counters,
        )
        analytic = stage_workloads(problem_size(64))[PhaseName.FACE_SPLIT]
        per_point_exec = counters.flops / (8 * 100)
        assert per_point_exec == pytest.approx(6.0)
        volume = problem_size(64).pair_volume
        assert analytic.flops / volume == pytest.approx(18.0)
