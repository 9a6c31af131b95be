"""Unit tests for the EPM form factors and Kleinman-Bylander projectors."""

import numpy as np
import pytest

from repro.dft.lattice import A_SILICON, silicon_supercell
from repro.dft.pseudopotential import (
    PROJECTORS_PER_ATOM,
    apply_nonlocal,
    build_projectors,
    epm_form_factor,
    local_potential_coefficients,
)
from repro.units import RYDBERG_TO_HARTREE


def shell_g2(q2_units: float) -> float:
    """|G|^2 in Bohr^-2 for a shell given in (2*pi/a)^2 units."""
    return q2_units * (2 * np.pi / A_SILICON) ** 2


class TestFormFactor:
    def test_published_knots(self):
        """The three Cohen-Bergstresser Si form factors are reproduced."""
        for q2, v_ry in ((3.0, -0.21), (8.0, 0.04), (11.0, 0.08)):
            v = epm_form_factor(np.array([shell_g2(q2)]))[0]
            assert v == pytest.approx(v_ry * RYDBERG_TO_HARTREE, rel=1e-9)

    def test_zero_at_gamma(self):
        assert epm_form_factor(np.array([0.0]))[0] == 0.0

    def test_zero_beyond_cutoff(self):
        assert epm_form_factor(np.array([shell_g2(30.0)]))[0] == 0.0

    def test_attractive_at_long_wavelength(self):
        v = epm_form_factor(np.array([shell_g2(1.0)]))
        assert v[0] < 0.0

    def test_smooth_between_knots(self):
        q2 = np.linspace(0.1, 11.0, 200)
        v = epm_form_factor(shell_g2(1.0) * q2 / 1.0)
        assert np.all(np.isfinite(v))
        assert np.abs(np.diff(v)).max() < 0.05


class TestLocalPotential:
    def test_hermiticity_symmetry(self, si8_cell):
        """V(-G) = conj(V(G)) so the convolution matrix is Hermitian."""
        g = np.array([[1.0, 0.5, -0.25], [0.3, 0.0, 0.9]])
        plus = local_potential_coefficients(si8_cell, g)
        minus = local_potential_coefficients(si8_cell, -g)
        assert np.allclose(minus, plus.conj(), atol=1e-12)

    def test_supercell_equivalence(self):
        """Si_8 and Si_64 give the same potential on shared G vectors."""
        small = silicon_supercell(8)
        large = silicon_supercell(64)
        g = np.array([[1, 1, 1], [2, 2, 0]]) @ small.reciprocal
        v_small = local_potential_coefficients(small, g)
        v_large = local_potential_coefficients(large, g)
        assert np.allclose(v_small, v_large, atol=1e-10)


class TestProjectors:
    def test_block_count_and_shape(self, si8_cell, si8_basis):
        blocks = build_projectors(si8_cell, si8_basis)
        assert len(blocks) == si8_cell.n_atoms
        for block in blocks:
            assert block.n_proj == PROJECTORS_PER_ATOM
            assert block.projectors.shape == (PROJECTORS_PER_ATOM, si8_basis.n_pw)
            assert block.pw_index.dtype == np.int64

    def test_payload_bytes_positive(self, si8_cell, si8_basis):
        blocks = build_projectors(si8_cell, si8_basis)
        expected = (
            si8_basis.n_pw * 8                      # index array
            + 2 * PROJECTORS_PER_ATOM * si8_basis.n_pw * 8  # re + im
            + PROJECTORS_PER_ATOM * 8               # coupling
        )
        assert blocks[0].nbytes == expected

    def test_apply_linear(self, si8_cell, si8_basis, rng):
        blocks = build_projectors(si8_cell, si8_basis)
        a = rng.normal(size=si8_basis.n_pw) + 1j * rng.normal(size=si8_basis.n_pw)
        b = rng.normal(size=si8_basis.n_pw) + 1j * rng.normal(size=si8_basis.n_pw)
        lhs = apply_nonlocal(blocks, 2.0 * a + 1j * b)
        rhs = 2.0 * apply_nonlocal(blocks, a) + 1j * apply_nonlocal(blocks, b)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_apply_hermitian(self, si8_cell, si8_basis, rng):
        """<a|V_nl|b> = conj(<b|V_nl|a>)."""
        blocks = build_projectors(si8_cell, si8_basis)
        a = rng.normal(size=si8_basis.n_pw) + 1j * rng.normal(size=si8_basis.n_pw)
        b = rng.normal(size=si8_basis.n_pw) + 1j * rng.normal(size=si8_basis.n_pw)
        lhs = np.vdot(a, apply_nonlocal(blocks, b))
        rhs = np.conj(np.vdot(b, apply_nonlocal(blocks, a)))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_apply_positive_semidefinite(self, si8_cell, si8_basis, rng):
        """Positive couplings make <a|V_nl|a> >= 0."""
        blocks = build_projectors(si8_cell, si8_basis)
        a = rng.normal(size=si8_basis.n_pw) + 1j * rng.normal(size=si8_basis.n_pw)
        assert np.vdot(a, apply_nonlocal(blocks, a)).real >= -1e-12

    def test_apply_batch_matches_single(self, si8_cell, si8_basis, rng):
        blocks = build_projectors(si8_cell, si8_basis)
        batch = rng.normal(size=(3, si8_basis.n_pw)).astype(complex)
        out = apply_nonlocal(blocks, batch)
        for i in range(3):
            assert np.allclose(out[i], apply_nonlocal(blocks, batch[i]), atol=1e-12)
