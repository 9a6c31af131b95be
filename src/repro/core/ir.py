"""Kernel IR: what our static code analyzer analyzes.

The paper's SCA (built on Intel's static analyzer / LLVM) inspects x86
code regions.  Our substitute inspects an explicit IR: each kernel
*function* is a sequence of :class:`CodeSegment` records (think basic
blocks annotated with op counts and access patterns).  That carries the
same information the paper extracts — estimated FLOPs, memory traffic,
access shape, live-in/live-out data sizes — without pretending to parse
machine code.

The granularity study (§IV-A1) operates on this IR: offload decisions can
be taken per segment ("basic block"), per function (NDFT's choice), or per
whole kernel region.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.model import AccessPattern, KernelWorkload


@dataclass(frozen=True)
class CodeSegment:
    """One straight-line region inside a kernel function."""

    name: str
    flops: float
    bytes_read: float
    bytes_written: float
    access_pattern: AccessPattern = AccessPattern.SEQUENTIAL
    #: Approximate dynamic instruction count (for instruction-granularity
    #: overhead estimates).
    instructions: int = 0

    def __post_init__(self) -> None:
        if self.flops < 0 or self.bytes_read < 0 or self.bytes_written < 0:
            raise ConfigError(f"negative counts in segment {self.name}")
        if self.instructions < 0:
            raise ConfigError(f"negative instruction count in {self.name}")

    @property
    def bytes_total(self) -> float:
        return self.bytes_read + self.bytes_written

    @property
    def arithmetic_intensity(self) -> float:
        if self.bytes_total == 0:
            return float("inf")
        return self.flops / self.bytes_total


@dataclass(frozen=True)
class KernelFunction:
    """A function-level offload unit: segments + live-in/out data sizes."""

    name: str
    segments: tuple[CodeSegment, ...]
    live_in_bytes: float
    live_out_bytes: float
    workload: KernelWorkload | None = None

    def __post_init__(self) -> None:
        if not self.segments:
            raise ConfigError(f"function {self.name} has no segments")
        if self.live_in_bytes < 0 or self.live_out_bytes < 0:
            raise ConfigError(f"negative live set in {self.name}")
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def flops(self) -> float:
        return sum(s.flops for s in self.segments)

    @property
    def bytes_total(self) -> float:
        return sum(s.bytes_total for s in self.segments)

    @property
    def arithmetic_intensity(self) -> float:
        total = self.bytes_total
        if total == 0:
            return float("inf")
        return self.flops / total

    @property
    def instructions(self) -> int:
        return sum(s.instructions for s in self.segments)

    def intensity_consistency(self) -> float:
        """How uniform the segments' intensities are, in [0, 1].

        1.0 means every segment has the function's overall intensity; low
        values flag functions that mix compute- and memory-bound regions.
        The paper's observation 2 in §IV-A1 — "most functions in LR-TDDFT
        exhibit consistent compute/memory characteristics" — is what makes
        function-level offloading safe, and this metric quantifies it.
        """
        overall = self.arithmetic_intensity
        if overall in (0.0, float("inf")) or len(self.segments) == 1:
            return 1.0
        weights = [s.bytes_total for s in self.segments]
        total_weight = sum(weights)
        if total_weight == 0:
            return 1.0
        deviation = 0.0
        for segment, weight in zip(self.segments, weights):
            ai = segment.arithmetic_intensity
            if ai == float("inf"):
                continue
            deviation += weight / total_weight * abs(ai - overall) / overall
        return max(0.0, 1.0 - deviation)


def function_from_workload(
    workload: KernelWorkload,
    live_in_bytes: float,
    live_out_bytes: float,
    n_segments: int = 4,
) -> KernelFunction:
    """Build a function IR whose segments evenly split a workload.

    Used by the pipeline builder: each LR-TDDFT phase becomes one function
    whose segments share the phase's characteristics (which is what makes
    the consistency metric high and function-level offloading the right
    granularity).
    """
    if n_segments < 1:
        raise ConfigError("n_segments must be >= 1")
    share = 1.0 / n_segments
    segments = tuple(
        CodeSegment(
            name=f"{workload.name}.seg{i}",
            flops=workload.flops * share,
            bytes_read=workload.bytes_read * share,
            bytes_written=workload.bytes_written * share,
            access_pattern=workload.access_pattern,
            instructions=max(1, int(workload.flops * share / 4)),
        )
        for i in range(n_segments)
    )
    return KernelFunction(
        name=str(workload.name),
        segments=segments,
        live_in_bytes=live_in_bytes,
        live_out_bytes=live_out_bytes,
        workload=workload,
    )
