"""Arrival processes, latency statistics and admission control for
open-queue serving.

The classic batch mode releases every job at t=0; a real DFT service
sees staggered arrivals.  :func:`poisson_arrivals` generates the
standard open-queue workload — exponential inter-arrival gaps at a given
offered load, from a seeded generator so every experiment is exactly
reproducible — and :func:`percentile` computes the p50/p99 completion
latencies the serving reports quote (linear interpolation between order
statistics, the numpy default, implemented locally so the core stays
dependency-free).

The arrival sampler is vectorized (one numpy draw plus a cumulative
sum) but stays *bit-compatible* with the original
``random.Random(seed).expovariate(rate)`` loop: committed benchmark
artifacts record offsets from specific seeds, and those must never
drift.  Two details make that exact rather than approximate: numpy's
``RandomState`` is seeded with the same init-by-array key CPython
derives from an int seed, so both visit the identical Mersenne Twister
stream, and the log transform goes through ``math.log`` (libm) because
numpy's SIMD ``np.log`` differs from libm by one ulp on a fraction of
inputs.  :func:`_poisson_arrivals_loop` keeps the original loop as the
regression oracle.

Past the saturation knee an open queue grows without bound, so a served
deployment needs to *act* at admission time: :class:`AdmissionPolicy`
declares the SLO (:attr:`~AdmissionPolicy.slo_p99` on predicted
completion latency, :attr:`~AdmissionPolicy.max_queue_depth` on
in-flight jobs) and what to do with violators (``shed`` drops them,
``deprioritize`` defers them behind the backlog), and
:func:`plan_admission` applies it deterministically over a batch's
arrival order using each job's memoized solo-time estimate and a
per-lane backlog model, returning the plan as the per-job columns of an
:class:`AdmissionResult`; :meth:`repro.core.framework.NdftFramework.run_many`
consumes it before simulating.
"""

from __future__ import annotations

import heapq
import math
import numbers
import random
from dataclasses import dataclass
from itertools import count
from typing import Sequence

import numpy as np

from repro.errors import ConfigError

# Re-exported from the foundation layer so existing callers keep this
# import path; the implementation lives in repro.stats, low enough for
# the simulation layer (core/faults.py) to use without importing upward.
from repro.stats import percentile

__all__ = [
    "ADMISSION_MODES",
    "AdmissionDecision",
    "AdmissionPolicy",
    "AdmissionResult",
    "percentile",
    "plan_admission",
    "poisson_arrivals",
    "validate_arrivals",
]


def _mt_seed_key(seed: int) -> list[int]:
    """The init-by-array key CPython derives from an int seed.

    ``random.Random(seed)`` folds ``abs(seed)`` into 32-bit
    little-endian chunks and feeds them to the Mersenne Twister's
    ``init_by_array``; ``numpy.random.RandomState`` accepts the same key
    and then produces the identical 53-bit uniform stream.
    """
    magnitude = abs(int(seed))
    if magnitude == 0:
        return [0]
    key = []
    while magnitude:
        key.append(magnitude & 0xFFFFFFFF)
        magnitude >>= 32
    return key


def poisson_arrivals(
    n_jobs: int, rate: float, seed: int = 0
) -> tuple[float, ...]:
    """Release offsets of a Poisson arrival process.

    ``rate`` is the offered load in jobs per second of virtual time;
    inter-arrival gaps are exponential with mean ``1/rate``.  The first
    job arrives after one gap (not at t=0), and offsets are
    non-decreasing — the order the open queue admits them.

    Vectorized, but bit-identical to :func:`_poisson_arrivals_loop` for
    every (seed, rate): the uniforms come from the same Mersenne
    Twister stream and the exponential transform applies libm's log to
    each draw, exactly as ``Random.expovariate`` does.  ``seed`` must be
    an integer (negative ones too; not a ``bool``): ``random.Random``
    hashes any other seed into a stream of its own.
    """
    if (
        isinstance(n_jobs, bool)
        or not isinstance(n_jobs, numbers.Integral)
        or n_jobs < 1
    ):
        raise ConfigError(f"n_jobs must be an integer >= 1, got {n_jobs!r}")
    if (
        isinstance(rate, bool)
        or not isinstance(rate, numbers.Real)
        or not (math.isfinite(rate) and rate > 0)
    ):
        raise ConfigError(f"arrival rate must be finite and > 0, got {rate!r}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ConfigError(f"arrival seed must be an integer, got {seed!r}")
    uniforms = np.random.RandomState(_mt_seed_key(seed)).random_sample(n_jobs)
    np.subtract(1.0, uniforms, out=uniforms)
    # math.log, not np.log: the SIMD log differs from libm by one ulp on
    # a fraction of inputs, which would silently shift committed offsets.
    gaps = np.fromiter(
        map(math.log, uniforms.tolist()), dtype=np.float64, count=n_jobs
    )
    gaps /= -rate
    return tuple(np.add.accumulate(gaps).tolist())


def _poisson_arrivals_loop(
    n_jobs: int, rate: float, seed: int = 0
) -> tuple[float, ...]:
    """The original scalar sampler, kept as the bit-compatibility oracle
    for :func:`poisson_arrivals` (regression-tested, not served)."""
    if n_jobs < 1:
        raise ConfigError(f"n_jobs must be >= 1, got {n_jobs}")
    if rate <= 0:
        raise ConfigError(f"arrival rate must be > 0, got {rate}")
    generator = random.Random(seed)
    now = 0.0
    offsets = []
    for _ in range(n_jobs):
        now += generator.expovariate(rate)
        offsets.append(now)
    return tuple(offsets)


def validate_arrivals(arrivals: Sequence[float], n_jobs: int) -> list[float]:
    """``arrivals`` as floats, checked for a batch of ``n_jobs`` jobs:
    one offset per job, each finite and non-negative.  The serving
    entry points call this before admission or routing, so a bad offset
    is a :class:`~repro.errors.ConfigError` up front rather than a
    simulation failure after the work is planned."""
    offsets = [float(offset) for offset in arrivals]
    if len(offsets) != n_jobs:
        raise ConfigError(f"{n_jobs} jobs but {len(offsets)} arrival offsets")
    if not all(map(math.isfinite, offsets)) or min(offsets, default=0.0) < 0.0:
        bad = next(a for a in offsets if not (math.isfinite(a) and a >= 0.0))
        raise ConfigError(
            f"arrival offsets must be finite and non-negative, got {bad}"
        )
    return offsets


#: Admission verdicts a policy can take on an over-SLO arrival.
ADMISSION_MODES = ("shed", "deprioritize")


@dataclass(frozen=True)
class AdmissionPolicy:
    """An SLO-driven admission policy for the open-queue serving path.

    ``slo_p99`` bounds the *predicted* completion latency (seconds of
    virtual time) an arrival may add to the tail: a job whose solo-time
    estimate plus the current backlog on its placement's lanes would
    exceed it is not admitted.  ``max_queue_depth`` bounds how many
    admitted jobs may be in flight (per their predicted completions)
    when a new job arrives.  Either criterion may be ``None``
    (unchecked); at least one must be set.  ``slo_p99`` is a finite
    positive number and ``max_queue_depth`` an integer >= 1 (``bool``
    is neither).

    ``mode`` picks the action on a violator: ``"shed"`` rejects it
    outright (it is never simulated), ``"deprioritize"`` keeps it but
    defers its release until its lanes' backlog is predicted to drain —
    it still runs, still occupies lanes, but no longer competes inside
    the SLO window and is excluded from the post-shed percentiles.

    The policy is pure data and the plan is a deterministic function of
    (policy, arrivals, solo estimates, lanes): the same seed and SLO
    always shed the same set.
    """

    slo_p99: float | None = None
    max_queue_depth: int | None = None
    mode: str = "shed"

    def __post_init__(self):
        if self.mode not in ADMISSION_MODES:
            raise ConfigError(
                f"admission mode must be one of {ADMISSION_MODES}, "
                f"got {self.mode!r}"
            )
        if self.slo_p99 is None and self.max_queue_depth is None:
            raise ConfigError(
                "an admission policy needs slo_p99 and/or max_queue_depth"
            )
        slo = self.slo_p99
        if slo is not None and (
            isinstance(slo, bool)
            or not isinstance(slo, numbers.Real)
            or not (math.isfinite(slo) and slo > 0)
        ):
            raise ConfigError(f"slo_p99 must be finite and > 0, got {slo!r}")
        depth = self.max_queue_depth
        if depth is not None and (
            isinstance(depth, bool)
            or not isinstance(depth, numbers.Integral)
            or depth < 1
        ):
            raise ConfigError(
                f"max_queue_depth must be an integer >= 1, got {depth!r}"
            )

    def to_json_dict(self) -> dict:
        """The policy as the plain dict recorded in benchmark artifacts
        (``BENCH_serving.json``'s top-level ``admission`` key)."""
        return {
            "slo_p99": self.slo_p99,
            "max_queue_depth": self.max_queue_depth,
            "mode": self.mode,
        }


@dataclass(frozen=True)
class AdmissionDecision:
    """One arrival's verdict under an :class:`AdmissionPolicy`.

    ``admitted`` jobs run at their arrival and count toward the SLO
    percentiles.  ``deferred`` jobs (``deprioritize`` mode only) run at
    the later ``release`` and are excluded from the SLO accounting.
    Jobs that are neither are shed: never simulated.  ``reason`` names
    the violated criterion (``"slo_p99"`` / ``"queue_depth"``) and is
    ``None`` for admitted jobs."""

    index: int
    label: str
    arrival: float
    predicted_latency: float
    admitted: bool
    deferred: bool
    release: float
    reason: str | None


@dataclass(frozen=True)
class AdmissionResult:
    """What :func:`plan_admission` computed for one submitted batch, as
    columns over *every submitted job* in submission order — shed jobs
    included, though they never reach the simulator and so have no
    entry in the batch result's ``jobs``.

    ``labels`` and ``arrivals`` are the planner's inputs: ``arrivals``
    are the *submitted* offsets, where a batch result's own
    ``arrivals`` are the releases its simulation used.  ``reasons[i]``
    names the criterion job ``i`` violated (``"slo_p99"`` /
    ``"queue_depth"``), ``None`` if it was admitted; ``policy.mode``
    says whether violators were shed or deferred.  ``counted_indices``
    maps into the *executed* jobs: the positions whose latencies count
    toward the post-shed SLO percentiles (admitted jobs; deferred jobs
    execute but are excluded)."""

    policy: AdmissionPolicy
    labels: tuple[str, ...]
    arrivals: tuple[float, ...]
    predicted_latencies: tuple[float, ...]
    releases: tuple[float, ...]
    reasons: tuple[str | None, ...]
    counted_indices: tuple[int, ...]

    @property
    def n_submitted(self) -> int:
        return len(self.arrivals)

    @property
    def admitted(self) -> int:
        """Jobs admitted inside the SLO window."""
        return self.reasons.count(None)

    @property
    def shed(self) -> int:
        """Jobs rejected outright (never simulated)."""
        violators = len(self.reasons) - self.admitted
        return violators if self.policy.mode == "shed" else 0

    @property
    def deferred(self) -> int:
        """Jobs deprioritized: executed at a deferred release."""
        violators = len(self.reasons) - self.admitted
        return violators if self.policy.mode == "deprioritize" else 0

    @property
    def shed_rate(self) -> float:
        """Fraction of submitted jobs rejected outright."""
        return self.shed / self.n_submitted if self.n_submitted else 0.0

    @property
    def shed_labels(self) -> tuple[str, ...]:
        """Labels of the shed jobs, in submission order (a batch may
        shed several jobs of the same size, so labels can repeat)."""
        if self.policy.mode != "shed":
            return ()
        pairs = zip(self.labels, self.reasons)
        return tuple(label for label, reason in pairs if reason is not None)

    @property
    def decisions(self) -> tuple[AdmissionDecision, ...]:
        """One :class:`AdmissionDecision` per submitted job, in
        submission order, built from the columns on each read."""
        admitted = [reason is None for reason in self.reasons]
        deferring = self.policy.mode == "deprioritize"
        deferred = [deferring and not admit for admit in admitted]
        return tuple(
            map(
                AdmissionDecision, count(), self.labels, self.arrivals,
                self.predicted_latencies, admitted, deferred, self.releases,
                self.reasons,
            )
        )


def plan_admission(
    policy: AdmissionPolicy,
    arrivals: Sequence[float],
    solo_times: Sequence[float],
    lanes: Sequence[tuple],
    labels: Sequence[str],
) -> AdmissionResult:
    """Apply ``policy`` over a batch, in arrival order, and return its
    :class:`AdmissionResult`.

    The backlog model is deliberately conservative: an admitted job is
    charged to *every* lane its placement touches (devices and crossing
    wires) from its predicted start — ``max(arrival, its lanes' drain
    time)`` — until ``start + solo_time``, i.e. the estimate serializes
    the work shared lanes would contend over and ignores the overlap
    the real DES finds.  Over-estimating the backlog sheds early, which
    is the safe direction for an SLO.  ``solo_times`` are the memoized
    dedicated-machine makespans the framework already derives per
    distinct signature; ``lanes[i]`` is job ``i``'s lane-name tuple
    (:meth:`repro.core.executor.PipelineExecutor.schedule_lanes`).

    A shed job charges no lane.  A deferred job releases at its lanes'
    drain (for a depth violation, at least the earliest in-flight
    completion, so deferral is never a no-op) and charges its lanes
    until that release plus its solo time, out of the in-flight count.
    Ties on the arrival instant are broken by submission index, exactly
    like the simulator's release order.
    """
    n = len(arrivals)
    if not (len(solo_times) == len(lanes) == len(labels) == n):
        raise ConfigError(
            "arrivals, solo_times, lanes and labels must align: got "
            f"{n}/{len(solo_times)}/{len(lanes)}/{len(labels)}"
        )
    arrivals = tuple(map(float, arrivals))
    slo, depth = policy.slo_p99, policy.max_queue_depth
    shedding = policy.mode == "shed"
    lane_free: dict = {}
    in_flight: list[float] = []  # predicted completions of admitted jobs
    latencies = [0.0] * n
    releases = list(arrivals)
    reasons: list[str | None] = [None] * n
    # A stable sort keeps submission order among equal arrivals.
    for i in sorted(range(n), key=arrivals.__getitem__):
        arrival = arrivals[i]
        while in_flight and in_flight[0] <= arrival:
            heapq.heappop(in_flight)
        start = arrival
        for lane in lanes[i]:
            free = lane_free.get(lane)
            if free is not None and free > start:
                start = free
        completion = start + solo_times[i]
        latency = latencies[i] = completion - arrival
        if depth is not None and len(in_flight) >= depth:
            reasons[i] = "queue_depth"
            start = max(start, in_flight[0])  # deferred past a completion
        elif slo is not None and latency > slo:
            reasons[i] = "slo_p99"
        else:
            heapq.heappush(in_flight, completion)
        if reasons[i] is not None:
            if shedding:
                continue
            releases[i] = start
            completion = start + solo_times[i]
        for lane in lanes[i]:
            lane_free[lane] = completion
    if shedding:  # the executed jobs are exactly the admitted ones
        counted = tuple(range(reasons.count(None)))
    else:
        counted = tuple(i for i, reason in enumerate(reasons) if reason is None)
    return AdmissionResult(
        policy, tuple(labels), arrivals, tuple(latencies), tuple(releases),
        tuple(reasons), counted,
    )
