"""Unit tests for the plane-wave basis and its grid transforms."""

import numpy as np
import pytest

from repro.dft.basis import PlaneWaveBasis, next_fast_fft_size
from repro.errors import ConfigError


class TestNextFastFftSize:
    def test_already_smooth(self):
        for n in (1, 2, 8, 12, 30, 125, 128):
            assert next_fast_fft_size(n) == n

    def test_rounds_up(self):
        assert next_fast_fft_size(7) == 8
        assert next_fast_fft_size(11) == 12
        assert next_fast_fft_size(97) == 100

    def test_result_is_smooth(self):
        for n in range(1, 200):
            result = next_fast_fft_size(n)
            assert result >= n
            reduced = result
            for p in (2, 3, 5):
                while reduced % p == 0:
                    reduced //= p
            assert reduced == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            next_fast_fft_size(0)


class TestBasisConstruction:
    def test_cutoff_respected(self, si8_basis):
        assert np.all(si8_basis.g2 / 2.0 <= si8_basis.ecut + 1e-9)

    def test_pw_count_scaling(self, si8_cell):
        """n_pw grows ~ecut^1.5 (sphere volume in G space)."""
        low = PlaneWaveBasis(si8_cell, ecut=1.0).n_pw
        high = PlaneWaveBasis(si8_cell, ecut=4.0).n_pw
        assert 5.0 < high / low < 11.0  # ideal ratio 8

    def test_gamma_present_and_first_shell(self, si8_basis):
        assert si8_basis.g2[si8_basis.gamma_index] == pytest.approx(0.0)

    def test_grid_covers_products(self, si8_cell):
        basis = PlaneWaveBasis(si8_cell, ecut=2.0)
        hmax = np.abs(basis.miller).max(axis=0)
        for axis in range(3):
            assert basis.fft_shape[axis] >= 4 * hmax[axis] + 1

    def test_rejects_bad_ecut(self, si8_cell):
        with pytest.raises(ConfigError):
            PlaneWaveBasis(si8_cell, ecut=0.0)

    def test_rejects_bad_grid_factor(self, si8_cell):
        with pytest.raises(ConfigError):
            PlaneWaveBasis(si8_cell, ecut=1.0, grid_factor=0.5)

    def test_g_vectors_match_miller(self, si8_basis):
        reconstructed = si8_basis.miller @ si8_basis.cell.reciprocal
        assert np.allclose(reconstructed, si8_basis.g_cart, atol=1e-12)


class TestGridTransforms:
    def test_roundtrip_single(self, si8_basis, rng):
        coeffs = rng.normal(size=si8_basis.n_pw) + 1j * rng.normal(size=si8_basis.n_pw)
        back = si8_basis.from_grid(si8_basis.to_grid(coeffs))
        assert np.allclose(back, coeffs, atol=1e-10)

    def test_roundtrip_batch(self, si8_basis, rng):
        coeffs = rng.normal(size=(5, si8_basis.n_pw)) + 1j * rng.normal(
            size=(5, si8_basis.n_pw)
        )
        back = si8_basis.from_grid(si8_basis.to_grid(coeffs))
        assert back.shape == coeffs.shape
        assert np.allclose(back, coeffs, atol=1e-10)

    def test_parseval(self, si8_basis, rng):
        """Grid samples preserve the norm: mean |psi~|^2 = sum |c|^2."""
        coeffs = rng.normal(size=si8_basis.n_pw)
        coeffs = si8_basis.normalize(coeffs.astype(complex))
        grid = si8_basis.to_grid(coeffs)
        assert np.mean(np.abs(grid) ** 2) == pytest.approx(1.0, rel=1e-9)

    def test_constant_function(self, si8_basis):
        """A pure G=0 coefficient produces a constant grid."""
        coeffs = np.zeros(si8_basis.n_pw, dtype=complex)
        coeffs[si8_basis.gamma_index] = 1.0
        grid = si8_basis.to_grid(coeffs)
        assert np.allclose(grid, 1.0, atol=1e-12)

    def test_linear(self, si8_basis, rng):
        a = rng.normal(size=si8_basis.n_pw).astype(complex)
        b = rng.normal(size=si8_basis.n_pw).astype(complex)
        lhs = si8_basis.to_grid(2.0 * a - 3.0 * b)
        rhs = 2.0 * si8_basis.to_grid(a) - 3.0 * si8_basis.to_grid(b)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_shape_errors(self, si8_basis):
        with pytest.raises(ConfigError):
            si8_basis.to_grid(np.zeros(si8_basis.n_pw + 1))
        with pytest.raises(ConfigError):
            si8_basis.from_grid(np.zeros((2, 2, 2)))

    def test_normalize_rejects_zero(self, si8_basis):
        with pytest.raises(ConfigError):
            si8_basis.normalize(np.zeros(si8_basis.n_pw))

    def test_grid_g_vectors_shape_and_gamma(self, si8_basis):
        g = si8_basis.grid_g_vectors()
        assert g.shape == (si8_basis.n_grid, 3)
        assert np.allclose(g[0], 0.0)
