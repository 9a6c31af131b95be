"""Shared fixtures: a small executable silicon system and the machine models.

The physics fixtures are session-scoped: the Si_8 ground state is the
single most expensive object in the suite (~0.5 s) and is read-only for
every consumer.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.executor import PipelineExecutor
from repro.core.framework import NdftFramework, check_invariants
from repro.core.sca import StaticCodeAnalyzer
from repro.core.scheduler import CostAwareScheduler
from repro.dft.basis import PlaneWaveBasis
from repro.dft.groundstate import solve_ground_state
from repro.dft.lattice import silicon_supercell
from repro.hw.config import cpu_baseline_config, gpu_baseline_config, ndft_system_config
from repro.hw.cpu import CpuModel
from repro.hw.gpu import GpuModel
from repro.hw.ndp import NdpSystemModel


@pytest.fixture(scope="session")
def si8_cell():
    return silicon_supercell(8)


@pytest.fixture(scope="session")
def si8_basis(si8_cell):
    return PlaneWaveBasis(si8_cell, ecut=2.0)


@pytest.fixture(scope="session")
def si8_ground_state(si8_cell, si8_basis):
    return solve_ground_state(si8_cell, si8_basis)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20250610)


@pytest.fixture(scope="session")
def system_config():
    return ndft_system_config()


@pytest.fixture(scope="session")
def cpu_model():
    return CpuModel(cpu_baseline_config())


@pytest.fixture(scope="session")
def host_model(system_config):
    return CpuModel(system_config.host)


@pytest.fixture(scope="session")
def ndp_model(system_config):
    return NdpSystemModel(system_config.ndp)


@pytest.fixture(scope="session")
def gpu_model():
    return GpuModel(gpu_baseline_config())


@pytest.fixture(scope="session")
def framework():
    return NdftFramework()


@pytest.fixture
def derivations(monkeypatch):
    """Counts of the work the framework memoizes, while the test runs:
    placements (``schedule``), solo DES runs (``solo``) and SCA passes
    (``sca``).  ``derivations.clear()`` starts a fresh count."""
    counts: Counter = Counter()

    def count(owner, name, kind):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[kind] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(CostAwareScheduler, "schedule", "schedule")
    count(PipelineExecutor, "execute", "solo")
    count(StaticCodeAnalyzer, "analyze_all", "sca")
    return counts


@pytest.fixture
def checked_results(monkeypatch):
    """Every ``NdftFramework.run_many`` result built while the test runs
    must hold :func:`~repro.core.framework.check_invariants`."""
    run_many = NdftFramework.run_many

    def checked(self, *args, **kwargs):
        result = run_many(self, *args, **kwargs)
        check_invariants(result)
        return result

    monkeypatch.setattr(NdftFramework, "run_many", checked)
