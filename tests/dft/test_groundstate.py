"""Unit tests for the EPM ground-state solver."""

import numpy as np
import pytest

from repro.dft.basis import PlaneWaveBasis
from repro.dft.groundstate import build_hamiltonian, solve_ground_state
from repro.errors import ConfigError
from repro.units import HARTREE_TO_EV


class TestHamiltonian:
    def test_hermitian(self, si8_cell, si8_basis):
        h = build_hamiltonian(si8_cell, si8_basis)
        assert np.allclose(h, h.conj().T, atol=1e-12)

    def test_kinetic_diagonal(self, si8_cell, si8_basis):
        h = build_hamiltonian(si8_cell, si8_basis, blocks=None)
        # The diagonal carries |G|^2/2 plus the (uniform) V(0) = 0 shift.
        assert np.allclose(np.diag(h).real, 0.5 * si8_basis.g2, atol=1e-9)


class TestGroundState:
    def test_band_count(self, si8_ground_state):
        gs = si8_ground_state
        assert gs.n_valence == 16  # 8 atoms x 4 electrons / 2
        assert gs.n_conduction >= 4
        assert gs.n_bands == gs.n_valence + gs.n_conduction

    def test_eigenvalues_sorted(self, si8_ground_state):
        eigs = si8_ground_state.eigenvalues
        assert np.all(np.diff(eigs) >= -1e-12)

    def test_orbitals_orthonormal(self, si8_ground_state):
        gs = si8_ground_state
        overlap = gs.orbitals @ gs.orbitals.conj().T
        assert np.allclose(overlap, np.eye(gs.n_bands), atol=1e-9)

    def test_silicon_gap_realistic(self, si8_cell):
        """The folded Si_8 supercell gap converges near the experimental
        1.17 eV; at modest cutoff it must land in a physical window."""
        basis = PlaneWaveBasis(si8_cell, ecut=2.5)
        gs = solve_ground_state(si8_cell, basis, include_nonlocal=False)
        gap_ev = gs.band_gap * HARTREE_TO_EV
        assert 0.6 < gap_ev < 1.8

    def test_nonlocal_perturbs_not_destroys(self, si8_cell):
        basis = PlaneWaveBasis(si8_cell, ecut=2.0)
        local = solve_ground_state(si8_cell, basis, include_nonlocal=False)
        full = solve_ground_state(si8_cell, basis, include_nonlocal=True)
        # Nonlocal projectors shift bands by << bandwidth.
        shift = np.abs(full.eigenvalues - local.eigenvalues).max()
        bandwidth = local.eigenvalues.max() - local.eigenvalues.min()
        assert shift < 0.2 * bandwidth
        assert full.band_gap > 0

    def test_density_positive_and_normalized(self, si8_ground_state):
        gs = si8_ground_state
        density = gs.density_grid()
        assert np.all(density >= -1e-12)
        electrons = density.sum() * gs.cell.volume / gs.basis.n_grid
        assert electrons == pytest.approx(2 * gs.n_valence, rel=1e-9)

    def test_density_has_bond_structure(self, si8_ground_state):
        """Covalent silicon density is far from uniform."""
        density = si8_ground_state.density_grid()
        assert density.max() > 3.0 * density.mean()

    def test_orbital_getters(self, si8_ground_state):
        gs = si8_ground_state
        assert len(gs.valence_orbitals()) == gs.n_valence
        assert len(gs.conduction_orbitals()) == gs.n_conduction

    def test_rejects_too_many_bands(self, si8_cell):
        basis = PlaneWaveBasis(si8_cell, ecut=0.5)
        with pytest.raises(ConfigError):
            solve_ground_state(si8_cell, basis, n_conduction=basis.n_pw)

    def test_conduction_override(self, si8_cell, si8_basis):
        gs = solve_ground_state(si8_cell, si8_basis, n_conduction=6)
        assert gs.n_conduction == 6
