"""Analytic per-kernel workload model for LR-TDDFT at any system size.

The functional implementation in this package can execute Si_8 .. Si_64 at
reduced cutoffs, but the paper evaluates up to Si_2048 at production
resolution.  Following standard practice for architecture studies, the
roofline/scheduling/timing machinery therefore consumes *analytic* workload
descriptors whose scaling rules are documented here and whose small-size
predictions are validated against the instrumented numpy kernels
(``tests/dft/test_workload_consistency.py``).

Dimension rules (N = number of silicon atoms)
---------------------------------------------
- real-space grid      n_grid ~= 1000 * N  (production ~10 Ha cutoff density)
- wavefunction sphere  n_pw    = n_grid / 8
- occupied orbitals    n_valence = 2 N (4 valence electrons, spin-restricted)
- active response window: n_active_v = 5 ceil(sqrt(N)), n_active_c = 8
  (a fixed low-conduction window, valence window grown as sqrt(N) to keep
  the spectral region covered) -> n_pairs = 40 ceil(sqrt(N))
- response G-sphere    n_chi   = n_grid / 160 (reduced kernel cutoff)

Traffic coefficients (bytes per pair-grid-point, complex128 = 16 B)
-------------------------------------------------------------------
- face-split + pointwise kernels: write P once, re-read for two pointwise
  multiplies -> 88 B/point; 18 FLOPs/point.
- FFT: two 3D transforms per pair, ~2.5 memory passes each (cache-blocked
  pencil sweeps), read+write -> 160 B/point; 10 log2(n_grid) FLOPs/point.
- global comm: three alltoall transposes of P -> 48 B/point crossing the
  network, plus pack/unpack traffic on both ends (charged by the machine
  models).
- pseudopotential application: projector blocks stream once per pair batch
  -> 110 B/point at arithmetic intensity 2 (ZGEMV-shaped).

GEMM contracts the pair matrix over the reduced sphere (16 p^2 n_chi
FLOPs, blocked, AI ~= 48); SYEVD is 9 p^3 with a size-dependent intensity
``AI(p) = clip(p / 150, 2, 30)`` capturing the BLAS2 -> blocked-BLAS3
transition that makes it memory-bound for small systems and compute-bound
for large ones (the paper's Fig. 4 observation 3).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from repro.dft.basis import next_fast_fft_size
from repro.errors import ConfigError
from repro.model import AccessPattern, KernelWorkload, PhaseName

# Traffic/flop coefficients, per pair-grid-point unless noted.
FACE_SPLIT_FLOPS_PER_POINT = 18.0
FACE_SPLIT_BYTES_PER_POINT = 88.0
FFT_FLOPS_PER_POINT_PER_LOG = 10.0
# Two transforms x (three axis sweeps + two local transposes) x read+write
# x 16 B: distributed pencil FFTs stream the array ~10 times per direction.
FFT_BYTES_PER_POINT = 320.0
COMM_NET_BYTES_PER_POINT = 48.0
PSEUDO_BYTES_PER_POINT = 110.0
PSEUDO_ARITH_INTENSITY = 2.0
GEMM_FLOP_COEFF = 16.0
# Blocked GEMM intensity grows with the matrix dimension until the blocking
# saturates — the paper's "GEMM becomes more compute-bound as the system
# size increases" (Fig. 4 observation 3).
GEMM_AI_SLOPE = 1.0 / 16.0
GEMM_AI_MIN = 24.0
GEMM_AI_MAX = 64.0
SYEVD_FLOP_COEFF = 9.0
# SYEVD's BLAS2 -> blocked-BLAS3 transition: the slope is set so the
# Casida dimension of the small system (Si_64) stays below the CPU ridge
# (memory-bound) and the large system (Si_1024) lands above it.
SYEVD_AI_SLOPE = 1.0 / 120.0
SYEVD_AI_MIN = 2.0
SYEVD_AI_MAX = 30.0

GRID_POINTS_PER_ATOM = 1000
PW_SPHERE_FRACTION = 8
CHI_SPHERE_FRACTION = 160


@dataclass(frozen=True)
class ProblemSize:
    """Derived dimensions of one Si_N LR-TDDFT problem."""

    n_atoms: int
    grid_side: int
    n_valence: int
    n_conduction: int
    n_active_valence: int
    n_active_conduction: int

    @property
    def n_grid(self) -> int:
        return self.grid_side**3

    @property
    def n_pw(self) -> int:
        return self.n_grid // PW_SPHERE_FRACTION

    @property
    def n_chi(self) -> int:
        return max(64, self.n_grid // CHI_SPHERE_FRACTION)

    @property
    def n_pairs(self) -> int:
        return self.n_active_valence * self.n_active_conduction

    @property
    def pair_volume(self) -> float:
        """n_pairs * n_grid — the unit all streaming phases scale with."""
        return float(self.n_pairs) * self.n_grid

    @property
    def label(self) -> str:
        return f"Si_{self.n_atoms}"


def problem_size(n_atoms: int) -> ProblemSize:
    """Derive the LR-TDDFT problem dimensions for an Si_N system.
    ``n_atoms`` is an integer (numpy integers included, ``bool`` not)."""
    if isinstance(n_atoms, bool) or not isinstance(n_atoms, numbers.Integral):
        raise ConfigError(f"n_atoms must be an integer, got {n_atoms!r}")
    if n_atoms < 1:
        raise ConfigError(f"n_atoms must be >= 1, got {n_atoms}")
    root = math.isqrt(n_atoms)
    if root * root != n_atoms:
        root += 1  # ceil(sqrt(N))
    grid_side = next_fast_fft_size(
        math.ceil((GRID_POINTS_PER_ATOM * n_atoms) ** (1.0 / 3.0))
    )
    return ProblemSize(
        n_atoms=n_atoms,
        grid_side=grid_side,
        n_valence=2 * n_atoms,
        n_conduction=max(8, n_atoms // 4),
        n_active_valence=5 * root,
        n_active_conduction=8,
    )


def syevd_intensity(dimension: int) -> float:
    """Size-dependent arithmetic intensity of the dense eigensolver."""
    return min(SYEVD_AI_MAX, max(SYEVD_AI_MIN, dimension * SYEVD_AI_SLOPE))


def gemm_intensity(pairs: int) -> float:
    """Size-dependent arithmetic intensity of the coupling-matrix GEMM."""
    return min(GEMM_AI_MAX, max(GEMM_AI_MIN, pairs * GEMM_AI_SLOPE))


def stage_workloads(problem: ProblemSize) -> dict[PhaseName, KernelWorkload]:
    """Whole-run workload descriptors for every Fig. 7 phase."""
    volume = problem.pair_volume
    pairs = problem.n_pairs
    n_grid = problem.n_grid
    log_grid = math.log2(n_grid)

    pair_matrix_bytes = volume * 16.0

    face_split = KernelWorkload(
        name=PhaseName.FACE_SPLIT,
        flops=FACE_SPLIT_FLOPS_PER_POINT * volume,
        bytes_read=FACE_SPLIT_BYTES_PER_POINT * volume * 0.5,
        bytes_written=FACE_SPLIT_BYTES_PER_POINT * volume * 0.5,
        working_set=3.0 * n_grid * 16.0,
        footprint=(pairs + problem.n_active_valence + problem.n_active_conduction)
        * n_grid
        * 16.0,
        access_pattern=AccessPattern.SEQUENTIAL,
        parallel_tasks=pairs,
    )
    fft = KernelWorkload(
        name=PhaseName.FFT,
        flops=FFT_FLOPS_PER_POINT_PER_LOG * log_grid * volume,
        bytes_read=FFT_BYTES_PER_POINT * volume * 0.5,
        bytes_written=FFT_BYTES_PER_POINT * volume * 0.5,
        working_set=n_grid * 16.0,
        footprint=2.0 * pair_matrix_bytes,
        access_pattern=AccessPattern.STRIDED,
        parallel_tasks=2 * pairs,
    )
    global_comm = KernelWorkload(
        name=PhaseName.GLOBAL_COMM,
        flops=0.0,
        bytes_read=COMM_NET_BYTES_PER_POINT * volume,
        bytes_written=COMM_NET_BYTES_PER_POINT * volume,
        comm_bytes=COMM_NET_BYTES_PER_POINT * volume,
        working_set=n_grid * 16.0,
        footprint=2.0 * pair_matrix_bytes,
        access_pattern=AccessPattern.IRREGULAR,
        parallel_tasks=pairs,
    )
    gemm_flops = GEMM_FLOP_COEFF * float(pairs) ** 2 * problem.n_chi
    gemm_ai = gemm_intensity(pairs)
    gemm = KernelWorkload(
        name=PhaseName.GEMM,
        flops=gemm_flops,
        bytes_read=gemm_flops / gemm_ai * 0.75,
        bytes_written=gemm_flops / gemm_ai * 0.25,
        working_set=256 * 256 * 16.0 * 3,
        footprint=(2.0 * pairs * problem.n_pw + float(pairs) ** 2) * 16.0,
        access_pattern=AccessPattern.BLOCKED,
        parallel_tasks=max(1, (pairs // 128) ** 2),
    )
    syevd_flops = SYEVD_FLOP_COEFF * float(pairs) ** 3
    syevd_ai = syevd_intensity(pairs)
    syevd = KernelWorkload(
        name=PhaseName.SYEVD,
        flops=syevd_flops,
        bytes_read=syevd_flops / syevd_ai * 0.7,
        bytes_written=syevd_flops / syevd_ai * 0.3,
        working_set=float(pairs) ** 2 * 16.0,
        footprint=2.0 * float(pairs) ** 2 * 16.0,
        access_pattern=AccessPattern.BLOCKED,
        parallel_tasks=max(1, pairs // 64),
    )
    bands = problem.n_active_valence + problem.n_active_conduction
    projector_bytes = (
        problem.n_atoms * 4 * problem.n_pw * 16.0
    )  # 4 projectors/atom over the wavefunction sphere
    pseudopotential = KernelWorkload(
        name=PhaseName.PSEUDOPOTENTIAL,
        flops=PSEUDO_BYTES_PER_POINT * PSEUDO_ARITH_INTENSITY * volume,
        bytes_read=PSEUDO_BYTES_PER_POINT * volume * 0.8,
        bytes_written=PSEUDO_BYTES_PER_POINT * volume * 0.2,
        # Projector blocks are streamed, not reused: the working set is the
        # full projector payload, which exceeds any LLC beyond Si_16.
        working_set=projector_bytes,
        footprint=bands * problem.n_pw * 16.0 + projector_bytes,
        access_pattern=AccessPattern.SEQUENTIAL,
        parallel_tasks=problem.n_atoms * max(1, problem.n_active_valence),
    )
    return {
        PhaseName.FACE_SPLIT: face_split,
        PhaseName.FFT: fft,
        PhaseName.GLOBAL_COMM: global_comm,
        PhaseName.GEMM: gemm,
        PhaseName.SYEVD: syevd,
        PhaseName.PSEUDOPOTENTIAL: pseudopotential,
    }
