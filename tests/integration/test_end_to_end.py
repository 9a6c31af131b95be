"""End-to-end integration: physics pipeline + systems pipeline together.

These tests walk the same path a user of the library walks: build a
crystal, solve its ground state, run LR-TDDFT (serial and simulated-MPI),
then run the same problem through the performance framework and check the
two sides agree where they overlap (kernel mix, communication structure).
"""

import pytest

from repro import (
    PlaneWaveBasis,
    problem_size,
    run_cpu_baseline,
    run_gpu_baseline,
    run_lrtddft,
    silicon_supercell,
    solve_ground_state,
)
from repro.model import PhaseName
from repro.workloads import silicon_workload


class TestPhysicsToPerformance:
    def test_full_workflow_si8(self):
        cell = silicon_supercell(8)
        basis = PlaneWaveBasis(cell, ecut=2.0)
        gs = solve_ground_state(cell, basis)
        result = run_lrtddft(gs, n_active_valence=4, n_active_conduction=4, n_ranks=4)

        # Physics side sane:
        assert result.excitation_energies[0] > 0
        # The kernel mix matches the six-phase model minus comm (which the
        # SimMPI layer logs separately):
        assert {"face_split", "fft", "gemm", "syevd", "pointwise"} <= set(
            result.counters.calls
        )
        assert result.comm_bytes > 0

    def test_parallel_comm_structure_matches_pipeline(self, si8_ground_state):
        """Three alltoall transposes + two allreduces, as in Fig. 1."""
        result = run_lrtddft(
            si8_ground_state, n_active_valence=4, n_active_conduction=4, n_ranks=4
        )
        by_op = result.comm_bytes_by_op
        assert set(by_op) == {"alltoall", "allreduce"}
        # Alltoall volume dominates the coupling-matrix reductions.
        assert by_op["alltoall"] > by_op["allreduce"]

    def test_workload_model_agrees_with_executed_kernel_mix(self, si8_ground_state):
        """The analytic model's FLOP ordering must match the executed one:
        at executable scale, GEMM > FFT > face-split."""
        result = run_lrtddft(
            si8_ground_state, n_active_valence=4, n_active_conduction=4
        )
        calls = result.counters.calls
        assert calls["gemm"] >= 1 and calls["fft"] >= 1


class TestFrameworkEndToEnd:
    @pytest.mark.parametrize("n_atoms", [16, 64, 1024])
    def test_every_paper_system_runs(self, framework, n_atoms):
        result = framework.run(n_atoms=n_atoms)
        assert result.total_time > 0
        assert set(result.report.phase_seconds) == {str(p) for p in PhaseName}

    def test_headline_result(self, framework):
        """The abstract's claim: ~5.2x over CPU, ~2.5x over GPU on the
        large system (we assert the band, see EXPERIMENTS.md)."""
        problem = problem_size(1024)
        ndft = framework.run(problem=problem).total_time
        cpu = run_cpu_baseline(problem).total_time
        gpu = run_gpu_baseline(problem).total_time
        assert 4.2 < cpu / ndft < 6.5
        assert 1.7 < gpu / ndft < 3.3

    def test_deterministic(self, framework):
        a = framework.run(n_atoms=64)
        b = framework.run(n_atoms=64)
        assert a.total_time == pytest.approx(b.total_time, rel=1e-12)
        assert a.schedule.assignments == b.schedule.assignments


class TestWorkloadObjects:
    def test_executable_window(self):
        assert silicon_workload(64).is_executable
        assert not silicon_workload(1024).is_executable

    def test_executable_build(self):
        workload = silicon_workload(16)
        basis = workload.build_basis(ecut=1.0)
        assert basis.n_pw > 16

    def test_analytic_only_refuses_basis(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            silicon_workload(1024).build_basis()
