"""Machine configurations (the paper's Table III plus the two baselines).

Every number that appears in Table III appears here under the same name;
derived quantities (peak FLOP/s, aggregate bandwidths) are computed, never
hard-coded, so the tests can check them against the spec.

Microarchitectural parameters the paper does not state (FLOPs/cycle,
bandwidth efficiencies, link widths) are our modeling choices; each carries
a comment and DESIGN.md records the rationale.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.units import GHZ, GiB, KiB, MHZ, MiB, GB


@dataclass(frozen=True)
class CacheConfig:
    """One cache level."""

    capacity: int
    latency_cycles: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.capacity <= 0 or self.latency_cycles <= 0 or self.line_bytes <= 0:
            raise ConfigError(f"invalid cache config: {self}")


@dataclass(frozen=True)
class CpuConfig:
    """A conventional multicore CPU (host of the CPU-NDP system, or the
    standalone baseline)."""

    name: str
    cores: int
    frequency: float
    flops_per_cycle: int           # per core, double precision
    l1_data: CacheConfig
    l2: CacheConfig
    l3: CacheConfig
    memory_bandwidth: float        # peak, bytes/s
    memory_latency: float          # loaded DRAM latency, seconds
    memory_capacity: int           # bytes
    sockets: int = 1

    def __post_init__(self) -> None:
        if self.cores <= 0 or self.sockets <= 0:
            raise ConfigError(f"invalid core/socket count in {self.name}")
        if self.frequency <= 0 or self.flops_per_cycle <= 0:
            raise ConfigError(f"invalid compute spec in {self.name}")
        if self.memory_bandwidth <= 0 or self.memory_capacity <= 0:
            raise ConfigError(f"invalid memory spec in {self.name}")

    @property
    def total_cores(self) -> int:
        return self.cores * self.sockets

    @property
    def peak_flops(self) -> float:
        return self.total_cores * self.frequency * self.flops_per_cycle


@dataclass(frozen=True)
class NdpConfig:
    """The near-data half of Table III: HBM2 stacks with wimpy in-order
    cores in each logic layer, plus a per-stack scratchpad shared memory."""

    name: str
    stacks_x: int                  # mesh dimensions (4 x 4 in the paper)
    stacks_y: int
    units_per_stack: int           # 8 NDP units per stack
    cores_per_unit: int            # 2 cores per NDP unit
    frequency: float               # 2 GHz, in-order
    flops_per_cycle: int           # per core; modest SIMD (model choice)
    l1_data: CacheConfig           # 32 KB L1I/D per core
    channels_per_stack: int        # 8 channels per stack
    bus_width_bits: int            # 128-bit bus
    bus_frequency: float           # 1000 MHz (DDR -> x2 in bandwidth)
    capacity_per_unit: int         # 512 MB per unit
    spm_per_core: int              # 16 KB per core
    spm_per_stack: int             # 256 KB per stack
    mesh_link_bandwidth: float     # bytes/s per mesh link per direction
    mesh_hop_latency: float        # seconds per hop
    host_link_bandwidth: float     # CPU <-> memory-network, bytes/s

    def __post_init__(self) -> None:
        if self.stacks_x <= 0 or self.stacks_y <= 0:
            raise ConfigError("mesh dimensions must be positive")
        if self.units_per_stack <= 0 or self.cores_per_unit <= 0:
            raise ConfigError("unit/core counts must be positive")

    @property
    def n_stacks(self) -> int:
        return self.stacks_x * self.stacks_y

    @property
    def n_units(self) -> int:
        return self.n_stacks * self.units_per_stack

    @property
    def n_cores(self) -> int:
        return self.n_units * self.cores_per_unit

    @property
    def total_capacity(self) -> int:
        return self.capacity_per_unit * self.n_units

    @property
    def stack_internal_bandwidth(self) -> float:
        """Peak internal bandwidth of one stack: channels x bus x DDR."""
        return (
            self.channels_per_stack
            * (self.bus_width_bits / 8)
            * self.bus_frequency
            * 2.0
        )

    @property
    def aggregate_internal_bandwidth(self) -> float:
        return self.stack_internal_bandwidth * self.n_stacks

    @property
    def peak_flops(self) -> float:
        return self.n_cores * self.frequency * self.flops_per_cycle

    @property
    def unit_bandwidth(self) -> float:
        """Internal bandwidth share of one NDP unit."""
        return self.stack_internal_bandwidth / self.units_per_stack


@dataclass(frozen=True)
class GpuConfig:
    """A discrete-GPU baseline (2x V100 in a DGX-1)."""

    name: str
    n_gpus: int
    peak_flops_per_gpu: float      # double precision
    memory_bandwidth_per_gpu: float
    memory_capacity_per_gpu: int
    pcie_bandwidth_per_gpu: float  # host <-> device, per direction
    nvlink_bandwidth: float        # GPU <-> GPU aggregate
    kernel_launch_overhead: float  # seconds per kernel launch

    def __post_init__(self) -> None:
        if self.n_gpus <= 0:
            raise ConfigError("n_gpus must be positive")

    @property
    def peak_flops(self) -> float:
        return self.n_gpus * self.peak_flops_per_gpu

    @property
    def aggregate_memory_bandwidth(self) -> float:
        return self.n_gpus * self.memory_bandwidth_per_gpu

    @property
    def total_memory(self) -> int:
        return self.n_gpus * self.memory_capacity_per_gpu

    @property
    def aggregate_pcie_bandwidth(self) -> float:
        return self.n_gpus * self.pcie_bandwidth_per_gpu


@dataclass(frozen=True)
class SystemConfig:
    """The full CPU-NDP system of Table III."""

    host: CpuConfig
    ndp: NdpConfig
    #: One-way CPU <-> NDP offload context-switch cost (the CXT of Eq. 1):
    #: draining in-flight work, synchronizing thread contexts and flushing
    #: dirty lines on the releasing side.
    context_switch_overhead: float = 5e-4

    @property
    def ranks(self) -> int:
        """MPI ranks when LR-TDDFT runs across the NDP units (one rank per
        unit, matching the paper's process-per-unit execution model)."""
        return self.ndp.n_units


def ndft_system_config() -> SystemConfig:
    """Table III: the CPU-NDP system NDFT runs on.

    CPU: 8 general-purpose cores, 3 GHz, 4-way superscalar, 32 KB L1I/D,
    256 KB L2, 2 MB L3.  NDP: 8 units/stack, 2 GHz in-order, 2 cores/unit,
    32 KB L1I/D, 512 MB/unit (64 GB total), SPM 16 KB/core / 256 KB/stack.
    Memory: HBM2, 4x4 stacks in a mesh, 8 channels/stack, 128-bit bus,
    1000 MHz.
    """
    host = CpuConfig(
        name="ndft-host",
        cores=8,
        frequency=3.0 * GHZ,
        # 4-way superscalar with two 512-bit FMA pipes -> 32 DP FLOPs/cycle
        # (model choice; gives the host ~768 GFLOP/s peak).
        flops_per_cycle=32,
        l1_data=CacheConfig(capacity=32 * KiB, latency_cycles=4),
        l2=CacheConfig(capacity=256 * KiB, latency_cycles=12),
        l3=CacheConfig(capacity=2 * MiB, latency_cycles=38),
        # The host reaches the HBM network through serial links; modeled at
        # 128 GB/s aggregate, comparable to a strong DDR4 host.
        memory_bandwidth=128 * GB,
        memory_latency=95e-9,
        memory_capacity=64 * GiB,
    )
    ndp = NdpConfig(
        name="ndft-ndp",
        stacks_x=4,
        stacks_y=4,
        units_per_stack=8,
        cores_per_unit=2,
        frequency=2.0 * GHZ,
        # In-order cores with two 128-bit FMA pipes -> 8 DP FLOPs/cycle
        # (Tesseract-class wimpy cores with short SIMD).
        flops_per_cycle=8,
        l1_data=CacheConfig(capacity=32 * KiB, latency_cycles=2),
        channels_per_stack=8,
        bus_width_bits=128,
        bus_frequency=1000 * MHZ,
        capacity_per_unit=512 * MiB,
        spm_per_core=16 * KiB,
        spm_per_stack=256 * KiB,
        # SerDes mesh links between stacks (model choice, HMC-class,
        # half-width links in a 4x4 mesh).
        mesh_link_bandwidth=24 * GB,
        mesh_hop_latency=40e-9,
        host_link_bandwidth=128 * GB,
    )
    return SystemConfig(host=host, ndp=ndp)


def cpu_baseline_config() -> CpuConfig:
    """The paper's CPU baseline: 2x Intel Xeon E5-2695 @ 2.40 GHz,
    12 cores/socket, 64 GB DDR4."""
    return CpuConfig(
        name="xeon-e5-2695-x2",
        cores=12,
        sockets=2,
        frequency=2.4 * GHZ,
        # AVX with FMA on this part: 16 DP FLOPs/cycle.
        flops_per_cycle=16,
        l1_data=CacheConfig(capacity=32 * KiB, latency_cycles=4),
        l2=CacheConfig(capacity=256 * KiB, latency_cycles=12),
        l3=CacheConfig(capacity=30 * MiB, latency_cycles=42),
        # 4 channels DDR4-2133 per socket: 2 x 68.3 GB/s.
        memory_bandwidth=136.6 * GB,
        memory_latency=90e-9,
        memory_capacity=64 * GiB,
    )


def gpu_baseline_config() -> GpuConfig:
    """The paper's GPU baseline: 2x NVIDIA V100 in a DGX-1 server."""
    return GpuConfig(
        name="dgx1-v100-x2",
        n_gpus=2,
        peak_flops_per_gpu=7.8e12,
        memory_bandwidth_per_gpu=900 * GB,
        memory_capacity_per_gpu=16 * GiB,
        pcie_bandwidth_per_gpu=16 * GB,
        nvlink_bandwidth=100 * GB,
        kernel_launch_overhead=8e-6,
    )
