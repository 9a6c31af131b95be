"""The end-to-end NDFT framework (the paper's headline system).

:class:`NdftFramework` wires everything together for one Si_N problem:

1. build the LR-TDDFT pipeline (the Fig. 1 chain by default, any DAG on
   request) and its function IR;
2. run the SCA over every function (boundedness + consistency);
3. schedule with the cost-aware offloader (Eq. 1) over the registered
   execution targets (CPU + NDP, plus the discrete GPU when
   ``enable_gpu=True``);
4. execute on the machine models through the DES engine;
5. account pseudopotential memory under the shared-block layout.

The result carries everything the evaluation section reports: per-phase
breakdown (Fig. 7), scheduling-overhead fraction (§VI-A), and memory
footprints (Table I / §VI-A discussion).

Beyond the paper, :meth:`NdftFramework.run_many` is the batching
front-end: it schedules a batch of heterogeneous problem sizes and
executes them concurrently through one shared machine, reporting per-job
completion times plus aggregate makespan and throughput — the serving
mode a DFT-as-a-service deployment runs in.  Passing ``arrivals``
(deterministic offsets or :func:`repro.core.arrivals.poisson_arrivals`)
turns the batch into an open queue and the result additionally reports
p50/p99 completion latency and per-job queueing delay.

Serving fast path: the batch front end is columnar.  Each distinct
batch entry is resolved once per call — built pipeline, cost-aware
schedule, solo DES report, SCA reports — and every artifact is a pure
function of the content-addressed
:class:`~repro.core.signature.JobSignature`.  Two bounded LRU
structures (``cache_size`` entries each) memoize them across calls: the
``(problem, builder)`` pipeline cache, and the entry store, one record
per signature (or per signature and excluded targets, for a degraded
placement) holding the schedule, the solo report and the SCA verdicts.
A store miss places the job with the exact DP, cold.  So
``run_many([512] * 256)`` derives the 512-atom job once, the executor
simulates its replicas as one super-job, and only the reports are per
job.  :meth:`NdftFramework.register_target` drops both;
``NdftFramework(memoize=False)`` re-derives everything per job — the
serving benchmark's (:mod:`repro.experiments.scale_serving`) "before"
measurement, asserted identical.
"""

from __future__ import annotations

import hashlib
import pickle
import pickletools
from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path
from typing import Callable, Sequence

from repro.core.arrivals import (
    AdmissionDecision,
    AdmissionPolicy,
    percentile,
    plan_admission,
    validate_arrivals,
)
from repro.core.backends import backend_names
from repro.core.cost_model import OffloadCostModel, serial_links
from repro.core.executor import (
    BatchExecutionReport,
    ExecutionReport,
    PipelineExecutor,
    lane_name,
)
from repro.core.faults import (
    AttemptRecord,
    FaultPlan,
    ResilienceReport,
    RetryPolicy,
)
from repro.core.lru import LruCache
from repro.core.pipeline import Pipeline, build_pipeline
from repro.core.sca import ScaReport, StaticCodeAnalyzer
from repro.core.scheduler import (
    CostAwareScheduler,
    ExecutionTarget,
    Placement,
    Schedule,
    SchedulingPolicy,
)
from repro.core.signature import (
    JobSignature,
    cost_model_fingerprint,
    job_signature,
    target_registry_fingerprint,
)

# Never called here: perfbench/spans.py patches this module attribute to
# time the signature layer, so the name stays until that patch goes.
from repro.core.signature import structure_signature  # noqa: F401
from repro.errors import ConfigError, SimulationError
from repro.dft.workload import ProblemSize, problem_size
from repro.hw.config import SystemConfig, gpu_baseline_config, ndft_system_config
from repro.hw.cpu import CpuModel
from repro.hw.gpu import GpuModel
from repro.hw.interconnect import HostLink
from repro.hw.ndp import NdpSystemModel
from repro.hw.roofline import RooflineModel
from repro.model import AccessPattern
from repro.shmem.footprint import (
    NDP_RANKS,
    NDP_STACKS,
    footprint_ndft,
    footprint_replicated,
)


@dataclass(frozen=True)
class NdftRunResult:
    """Everything one NDFT run produces."""

    problem: ProblemSize
    schedule: Schedule
    report: ExecutionReport
    sca_reports: dict[str, ScaReport]
    memory_footprint_gb: float
    replicated_footprint_gb: float

    @property
    def total_time(self) -> float:
        return self.report.total_time

    @property
    def scheduling_overhead_fraction(self) -> float:
        return self.report.overhead_fraction

    @property
    def memory_reduction_percent(self) -> float:
        """Footprint saving vs the replicated NDP layout (§VI-A: 57.8 %)."""
        if self.replicated_footprint_gb == 0:
            return 0.0
        return 100.0 * (
            1.0 - self.memory_footprint_gb / self.replicated_footprint_gb
        )

    def breakdown(self) -> dict[str, float]:
        return self.report.breakdown()


@dataclass(slots=True)
class _Record:
    """One entry-store value: what the framework derives for one job
    signature, or for one degraded placement of it.  A store miss
    places the job; the solo report and the SCA verdicts are filled in
    when a call first needs them."""

    schedule: Schedule
    solo: ExecutionReport | None = None
    sca: dict[str, ScaReport] | None = None


@dataclass(slots=True)
class _Entry:
    """One distinct batch entry, resolved once per call for all its jobs."""

    problem: ProblemSize
    pipeline: Pipeline
    signature: JobSignature | None
    record: _Record


@dataclass(frozen=True)
class AdmissionResult:
    """What the admission controller did to one submitted batch.

    ``decisions`` covers *every submitted job* in submission order —
    including shed jobs, which never reach the simulator and therefore
    have no entry in the result's ``jobs``.  ``counted_indices`` maps
    into the *executed* jobs tuple: the positions whose latencies count
    toward the post-shed SLO percentiles (admitted jobs; deprioritized
    jobs execute but are excluded)."""

    policy: AdmissionPolicy
    decisions: tuple[AdmissionDecision, ...]
    counted_indices: tuple[int, ...]

    @property
    def n_submitted(self) -> int:
        return len(self.decisions)

    @property
    def admitted(self) -> int:
        """Jobs admitted inside the SLO window."""
        return sum(1 for d in self.decisions if d.admitted)

    @property
    def shed(self) -> int:
        """Jobs rejected outright (never simulated)."""
        return sum(
            1 for d in self.decisions if not d.admitted and not d.deferred
        )

    @property
    def deferred(self) -> int:
        """Jobs deprioritized: executed at a deferred release."""
        return sum(1 for d in self.decisions if d.deferred)

    @property
    def shed_rate(self) -> float:
        """Fraction of submitted jobs rejected outright."""
        if not self.decisions:
            return 0.0
        return self.shed / len(self.decisions)

    @property
    def shed_labels(self) -> tuple[str, ...]:
        """Labels of the shed jobs, in submission order (a batch may
        shed several jobs of the same size, so labels can repeat)."""
        return tuple(
            d.label for d in self.decisions if not d.admitted and not d.deferred
        )


def queueing_delays(
    latencies: Sequence[float],
    solo_times: Sequence[float],
    releases: Sequence[float] | None = None,
) -> tuple[float, ...]:
    """How much longer each job took than it would have alone — time
    spent waiting for contended devices and wires — paired by position.
    ``releases`` are the jobs' release times (``None``: all at t=0).

    An uncontended job's ``latency - solo`` is float cancellation, not
    delay.  The simulation computes every task's end at absolute
    virtual time, rounding by up to half an ulp of that time, while the
    solo time sums the same durations from t=0: the residue grows with
    the solo time and with the completion's magnitude (about 1e-7 s for
    a release at an epoch timestamp).  A delay within ``1e-9 * max(1,
    solo) + 1e-12 * completion`` of zero is therefore 0.0.  A job never
    finishes faster than alone, so anything more negative raises
    :class:`SimulationError`: it would be a real bug."""
    if releases is None:
        releases = repeat(0.0)
    delays = []
    for latency, solo, release in zip(latencies, solo_times, releases):
        delay = latency - solo
        if abs(delay) <= 1e-9 * max(1.0, solo) + 1e-12 * (release + latency):
            delay = 0.0
        elif delay < 0.0:
            raise SimulationError(
                f"a job took {latency!r} s, {-delay!r} s less than its "
                f"solo time {solo!r} s"
            )
        delays.append(delay)
    return tuple(delays)


@dataclass(frozen=True)
class NdftBatchResult:
    """A batch of jobs executed concurrently on one shared machine.

    When the batch ran as an open queue (``run_many(..., arrivals=...)``)
    the latency properties report completion latency — finish minus
    release — and queueing delay — latency minus the job's unloaded solo
    makespan; at t=0 they degrade to the closed-batch completion times.

    Under an admission policy (``run_many(..., admission=...)``)
    ``jobs``/``solo_times``/the latency properties cover the *executed*
    jobs only; :attr:`admission` records what happened to every
    submitted job, and the ``slo_*`` accessors give the post-shed
    percentiles (admitted jobs only — identical to ``p50``/``p99`` in
    ``shed`` mode, excluding deferred jobs in ``deprioritize`` mode).

    Degenerate batches (everything shed) degrade gracefully: empty
    latency tuples, 0.0 percentiles/means, 0.0 throughput — matching
    the executor's empty-report conventions rather than raising.
    """

    jobs: tuple[NdftRunResult, ...]
    batch_report: BatchExecutionReport
    #: What the same jobs cost run one at a time on a dedicated machine
    #: (the sum of standalone DES makespans).
    solo_times: tuple[float, ...]
    #: The admission controller's record (``None`` when admission was
    #: not requested).
    admission: AdmissionResult | None = None
    #: The resilience record under fault injection
    #: (``run_many(..., faults=...)``): every attempt of the final
    #: retry round, availability, goodput vs throughput, post-fault
    #: latency percentiles.  ``None`` when no fault plan was passed.
    resilience: ResilienceReport | None = None

    @property
    def n_jobs(self) -> int:
        return len(self.jobs)

    @property
    def arrivals(self) -> tuple[float, ...] | None:
        """Per-job release offsets, or ``None`` for the t=0 batch.
        Under ``deprioritize`` admission these are the *actual*
        (possibly deferred) releases the simulation used."""
        return self.batch_report.arrivals

    @property
    def completion_latencies(self) -> tuple[float, ...]:
        """Per-job completion minus release, in submission order."""
        return self.batch_report.completion_latencies

    def latency_percentile(self, q: float) -> float:
        """The ``q``-th completion-latency percentile over the executed
        jobs; 0.0 for an empty (fully shed) batch."""
        latencies = self.completion_latencies
        if not latencies:
            return 0.0
        return percentile(latencies, q)

    @property
    def p50_latency(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p99_latency(self) -> float:
        return self.latency_percentile(99.0)

    @property
    def slo_latencies(self) -> tuple[float, ...]:
        """Latencies of the jobs counted toward the SLO: everything
        executed when admission is off, the admitted subset under a
        policy (shed jobs never execute; deferred jobs are excluded)."""
        latencies = self.completion_latencies
        if self.admission is None:
            return latencies
        return tuple(latencies[i] for i in self.admission.counted_indices)

    def slo_latency_percentile(self, q: float) -> float:
        """Post-shed percentile over :attr:`slo_latencies` (0.0 when
        nothing was admitted)."""
        latencies = self.slo_latencies
        if not latencies:
            return 0.0
        return percentile(latencies, q)

    @property
    def slo_p50_latency(self) -> float:
        return self.slo_latency_percentile(50.0)

    @property
    def slo_p99_latency(self) -> float:
        return self.slo_latency_percentile(99.0)

    @property
    def queueing_delays(self) -> tuple[float, ...]:
        """Per-job :func:`queueing_delays`, in submission order."""
        return queueing_delays(
            self.completion_latencies, self.solo_times, self.arrivals
        )

    @property
    def mean_queueing_delay(self) -> float:
        """Average queueing delay; 0.0 for an empty (fully shed) batch,
        matching :attr:`throughput`'s degenerate convention."""
        delays = self.queueing_delays
        if not delays:
            return 0.0
        return sum(delays) / len(delays)

    @property
    def makespan(self) -> float:
        """Aggregate completion time of the whole batch."""
        return self.batch_report.makespan

    @property
    def busy_span(self) -> float:
        """First release to last completion (== makespan at t=0)."""
        return self.batch_report.busy_span

    @property
    def throughput(self) -> float:
        """Jobs per second of shared-machine time — the busy span, so
        an open queue's idle arrival ramp does not dilute the rate.
        For the t=0 batch the busy span *is* the makespan, so the
        closed-batch numbers are unchanged."""
        return self.batch_report.throughput

    @property
    def lane_busy_seconds(self) -> dict[str, float]:
        """Busy seconds per device/wire lane (see the executor's
        ``lane_occupancy``)."""
        return self.batch_report.lane_busy_seconds

    @property
    def lane_utilization(self) -> dict[str, float]:
        """Busy fraction per lane over the busy span — which device or
        wire the batch actually saturated."""
        return self.batch_report.lane_utilization

    @property
    def serial_time(self) -> float:
        """Back-to-back baseline: the sum of standalone single-job runs."""
        return sum(self.solo_times)

    @property
    def batching_speedup(self) -> float:
        """Busy-span advantage of sharing the machine across the batch.
        Computed over the busy span (first release to last completion)
        so an open queue's arrival ramp — idle time before the first
        job exists — does not count as shared-machine time; for the
        t=0 batch the busy span is the makespan and the speedup is
        unchanged."""
        span = self.busy_span
        if span <= 0:
            return 1.0
        return self.serial_time / span

    def job_completion_times(self) -> tuple[tuple[str, float], ...]:
        """Per-job ``(label, completion seconds)`` in submission order
        (completion includes queueing for shared devices).  A batch may
        contain several jobs of the same size, so labels can repeat."""
        return tuple(
            (result.problem.label, result.report.total_time)
            for result in self.jobs
        )


_schedule_lanes = PipelineExecutor.schedule_lanes

#: First bytes of every cache snapshot file (header layout: see
#: :meth:`NdftFramework.save_caches`).
_SNAPSHOT_MAGIC = b"NDFTSNAP"
_SNAPSHOT_HEADER_BYTES = len(_SNAPSHOT_MAGIC) + 4 + hashlib.sha256().digest_size


def _headerless_format(blob: bytes) -> object:
    """The ``format`` a headerless file declares, for the error message:
    formats 1 and 2 pickled it as the payload dict's first key.  Read
    off the pickle opcodes without executing any of them; ``None`` when
    there is no such key to read."""
    previous = None
    try:
        for _opcode, arg, _position in pickletools.genops(blob):
            if arg is None:
                continue
            if previous == "format":
                return arg
            previous = arg
    except ValueError:
        pass
    return None


class NdftFramework:
    """NDFT on the Table III CPU-NDP system.

    ``enable_gpu=True`` additionally registers the discrete-GPU baseline
    machine as a third schedulable target, letting the cost-aware
    scheduler mix all three device kinds.  The default keeps the paper's
    two-sided system (and its published numbers) intact.
    """

    #: Default bound on each memo structure: ample for realistic size
    #: mixes, finite under adversarial variety (each entry is small, but
    #: a public service should not grow state per unique request).
    DEFAULT_CACHE_SIZE = 1024

    def __init__(
        self,
        system: SystemConfig | None = None,
        policy: SchedulingPolicy = SchedulingPolicy.COST_AWARE,
        enable_gpu: bool = False,
        memoize: bool = True,
        cache_size: int | None = DEFAULT_CACHE_SIZE,
    ):
        self.system = system or ndft_system_config()
        self.policy = policy
        #: Serving fast path: memoize pipelines and each signature's
        #: schedule, solo report and SCA verdicts.  ``False`` re-derives
        #: everything per job (the benchmark's uncached baseline).
        self.memoize = memoize
        #: LRU bound per memo structure (``None`` = unbounded).  Eviction
        #: is a capacity decision only: evicted entries are re-derived
        #: with identical values on the next miss.
        if cache_size is not None and cache_size < 1:
            raise ConfigError(
                f"cache_size must be >= 1 or None, got {cache_size}"
            )
        self.cache_size = cache_size
        #: ``(problem, builder)`` -> built pipeline.  Duplicate sizes
        #: share one object, so they also share its structural hash.
        self._pipeline_cache = LruCache(cache_size)
        #: The entry store: ``JobSignature`` (or ``(signature,
        #: excluded targets)`` for a degraded placement) -> :class:`_Record`.
        self._store = LruCache(cache_size)
        #: Memoized ``(registry, cost model)`` fingerprint pair and the
        #: fault-lane catalog: pure functions of the target registry,
        #: recomputed only after ``register_target`` invalidates them
        #: (``None`` = not yet derived).  Unlike the memo structures these
        #: are kept even under ``memoize=False`` — they are identity digests,
        #: not derived results, so staleness is the only hazard and
        #: ``clear_caches`` drops them with everything else.
        self._fingerprints: tuple[tuple, tuple] | None = None
        self._fault_lanes: tuple[str, ...] | None = None
        #: Jobs simulated per backend name across every ``run_many``
        #: call (see :attr:`backend_stats`).
        self._backend_jobs: dict[str, int] = {}
        #: Host wall seconds spent simulating per backend name across
        #: every ``run_many`` call (see :attr:`backend_stats`).
        self._backend_wall: dict[str, float] = {}
        self.host = CpuModel(self.system.host)
        self.ndp = NdpSystemModel(self.system.ndp)
        self.gpu = GpuModel(gpu_baseline_config()) if enable_gpu else None
        # Offload handovers run at half the raw link rate: the releasing
        # side flushes dirty lines before the consuming side can pull
        # (flush + copy, serialized).
        cpu_ndp_link = HostLink(
            bandwidth=self.system.ndp.host_link_bandwidth / 2.0
        )
        device_links: dict[frozenset, HostLink] = {}
        if self.gpu is not None:
            # GPU boundaries ride PCIe, not the CPU<->NDP host link; an
            # NDP<->GPU handover stages through host memory, traversing
            # both wires in series.
            pcie = HostLink(
                bandwidth=self.gpu.config.aggregate_pcie_bandwidth,
                base_latency=1e-6,
            )
            device_links[frozenset({"cpu", "gpu"})] = pcie
            device_links[frozenset({"ndp", "gpu"})] = serial_links(
                cpu_ndp_link, pcie
            )
        self.cost_model = OffloadCostModel(
            host_link=cpu_ndp_link,
            context_switch=self.system.context_switch_overhead,
            device_links=device_links,
        )
        self.scheduler = CostAwareScheduler(
            host=self.host,
            ndp=self.ndp,
            cost_model=self.cost_model,
            gpu=self.gpu,
        )
        self.executor = PipelineExecutor(cost_model=self.cost_model)
        self.sca = StaticCodeAnalyzer(
            cpu_roofline=RooflineModel(
                name=self.system.host.name,
                peak_flops=self.system.host.peak_flops,
                peak_bandwidth=self.host.memory.effective_bandwidth(
                    AccessPattern.SEQUENTIAL
                ),
            ),
            ndp_roofline=RooflineModel(
                name=self.system.ndp.name,
                peak_flops=self.system.ndp.peak_flops,
                peak_bandwidth=self.system.ndp.aggregate_internal_bandwidth
                * 0.86,
            ),
        )

    @property
    def cache_stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters of the pipeline cache and the entry
        store (observability for the serving benchmark and the
        memoization tests).  Counters survive cache clears.

        They count real lookups: :meth:`run_many` resolves each distinct
        entry of a call once, so a duplicate job is no lookup.  An entry
        given as a size looks up the pipeline cache; every entry looks
        up the store, and so does each residual pipeline or degraded
        placement a fault plan makes."""
        stats: dict[str, int] = {}
        for kind, cache in (
            ("pipeline", self._pipeline_cache),
            ("entry", self._store),
        ):
            stats[f"{kind}_hits"] = cache.hits
            stats[f"{kind}_misses"] = cache.misses
            stats[f"{kind}_evictions"] = cache.evictions
        return stats

    @property
    def backend_stats(self) -> dict[str, int | float]:
        """Per-backend observability across every ``run_many`` call —
        the ``cache_stats``-style counters for the executor's backend
        layer (:mod:`repro.core.backends`): jobs simulated under each
        registered backend's name, plus host wall seconds under
        ``"<name>_wall_seconds"``.  Every registered backend appears,
        zero-counted until used."""
        stats: dict[str, int | float] = {
            name: 0 for name in backend_names()
        }
        stats.update(self._backend_jobs)
        for name in backend_names():
            stats[f"{name}_wall_seconds"] = self._backend_wall.get(
                name, 0.0
            )
        return stats

    # ------------------------------------------------------------------
    # Target registry + caches
    # ------------------------------------------------------------------
    def register_target(
        self, placement: Placement, machine: ExecutionTarget
    ) -> None:
        """Add (or replace) an execution target and invalidate every
        memoized artifact: store records and built pipelines minted
        against the old registry must not survive it.

        Link pricing caveat: the cost model's per-pair ``device_links``
        are fixed at construction, so boundaries to a machine registered
        here are priced on the default CPU<->NDP host link unless the
        framework was built with the matching wires (e.g. a GPU should
        be enabled via ``NdftFramework(enable_gpu=True)``, which installs
        the PCIe and serial NDP<->GPU links, rather than registered after
        the fact)."""
        self.scheduler.register_target(placement, machine)
        self.clear_caches()

    def clear_caches(self) -> None:
        """Drop every built pipeline and store record, and the memoized
        registry/cost-model fingerprints and fault-lane catalog
        (hit/miss/eviction counters are preserved)."""
        self._pipeline_cache.clear()
        self._store.clear()
        self._fingerprints = None
        self._fault_lanes = None

    def fingerprints(self) -> tuple[tuple, tuple]:
        """The ``(registry, cost model)`` fingerprint pair every minted
        signature embeds, derived once per registry version instead of
        re-walking the target registry and link table per job
        (:meth:`register_target` invalidates via :meth:`clear_caches`)."""
        if self._fingerprints is None:
            self._fingerprints = (
                target_registry_fingerprint(self.scheduler),
                cost_model_fingerprint(self.cost_model),
            )
        return self._fingerprints

    # ------------------------------------------------------------------
    # Cache snapshots (serving deployments surviving process restarts)
    # ------------------------------------------------------------------
    #: Snapshot version, written into the header; bumped whenever the
    #: persisted layout changes so stale files are refused instead of
    #: misread.  Loaders read only the payload keys they know, so an
    #: optional key that one version writes and another omits needs no
    #: bump.  Format 3 added the header; formats 1 and 2 had none.
    CACHE_SNAPSHOT_FORMAT = 3

    def cache_fingerprint(self) -> tuple:
        """The identity the persisted caches are sound under: policy,
        the full :class:`~repro.hw.config.SystemConfig` (the machine
        parameters every stage time derives from — a
        :class:`~repro.core.signature.JobSignature` can omit them only
        because its registry fingerprint is process-local), the target
        registry, and the cost-model parameters.  Two frameworks with
        equal fingerprints provably derive identical schedules/reports
        for equal jobs, so loading one's snapshot into the other never
        changes results.

        Soundness caveat the snapshot paths enforce: the registry
        fingerprint stands in for machine identity with a *per-process*
        registration counter, which distinguishes nothing across a
        process boundary — two processes that each ``register_target`` a
        *different* machine under the same name would fingerprint equal.
        Within one process the constructor-built registries (the Table
        III system, ``enable_gpu=True``) are pure functions of the
        constructor arguments, so snapshots are only allowed while the
        registry is untouched (:meth:`save_caches`/:meth:`load_caches`
        refuse after any ``register_target``)."""
        registry_fp, cost_fp = self.fingerprints()
        return (self.policy, self.system, registry_fp, cost_fp)

    def _check_snapshot_registry(self, action: str) -> None:
        """Refuse snapshot traffic once ``register_target`` has run:
        custom-registered machine objects cannot be fingerprinted across
        processes, so persisted entries derived under them cannot be
        proven valid in another process."""
        if self.scheduler.registry_version != 0:
            raise ConfigError(
                f"cannot {action} a cache snapshot after register_target: "
                "custom-registered machines have no cross-process "
                "fingerprint, so snapshot soundness cannot be checked"
            )

    def save_caches(self, path: Path | str) -> Path:
        """Snapshot the entry store to ``path`` so a restarted serving
        process can :meth:`load_caches` instead of re-deriving its
        working set cold.  The pipeline cache stays out: its keys embed
        builder callables, and rebuilding a pipeline is cheap.  The
        snapshot embeds :meth:`cache_fingerprint`; loading refuses a
        mismatch.

        The file is a header — :data:`_SNAPSHOT_MAGIC`, the format as 4
        big-endian bytes and the SHA-256 of the payload — followed by
        the pickled payload."""
        self._check_snapshot_registry("save")
        payload = pickle.dumps(
            {
                "format": self.CACHE_SNAPSHOT_FORMAT,
                "fingerprint": self.cache_fingerprint(),
                "entries": self._store.items(),
            }
        )
        header = (
            _SNAPSHOT_MAGIC
            + self.CACHE_SNAPSHOT_FORMAT.to_bytes(4, "big")
            + hashlib.sha256(payload).digest()
        )
        path = Path(path)
        path.write_bytes(header + payload)
        return path

    def load_caches(self, path: Path | str) -> int:
        """Warm start: union a :meth:`save_caches` snapshot into the
        entry store, and return how much it added — one per record
        under a key this framework does not hold, and one per solo
        report or SCA verdict missing from a record it holds.  Nothing
        held is overwritten: equal keys prove equal values.  Records
        land via normal puts, so LRU bounds and eviction counters apply.

        Soundness gate: the snapshot's fingerprint (policy + target
        registry + cost model) must equal this framework's — memoized
        schedules and reports are only valid under the exact machine
        parameters they were derived with, so a mismatch raises
        :class:`~repro.errors.ConfigError` rather than serving stale
        numbers.  So does a file of another snapshot format, including
        the headerless formats 1 and 2.

        The header is checked before anything is unpickled, so a
        truncated or corrupt file (half-written snapshot, disk error,
        flipped bit) raises :class:`~repro.errors.ConfigError` like
        every other rejected snapshot.  Trust caveat: a checksum only
        catches accidents.  The payload is a pickle, and a hostile file
        can carry a matching checksum, so only load snapshots written
        by a process you trust (the intended use: this service's own
        :meth:`save_caches` output on local disk)."""
        return self._absorb(path, "load")

    def merge_caches(self, path: Path | str) -> int:
        """Fleet merge-back: the same union and count as
        :meth:`load_caches`, under the same refusal rules, for a
        worker's snapshot.  It holds everything the parent shipped plus
        whatever the worker derived, so the parent gains only what it
        lacked, and merging the same snapshot twice adds 0 the second
        time (up to LRU capacity pressure)."""
        return self._absorb(path, "merge")

    def _absorb(self, path: Path | str, action: str) -> int:
        """The one snapshot-absorb path behind :meth:`load_caches` and
        :meth:`merge_caches`."""
        payload = self._read_snapshot(path, action)
        added = 0
        for key, record in payload["entries"]:
            held = self._store.peek(key)
            if held is None:
                self._store.put(key, record)
                added += 1
                continue
            if held.solo is None and record.solo is not None:
                held.solo = record.solo
                added += 1
            if held.sca is None and record.sca is not None:
                held.sca = record.sca
                added += 1
        return added

    def _read_snapshot(self, path: Path | str, action: str) -> dict:
        """Read and vet a :meth:`save_caches` payload: registry still
        pristine, header of this format whose checksum matches the
        payload, matching :meth:`cache_fingerprint`."""
        self._check_snapshot_registry(action)
        path = Path(path)
        blob = path.read_bytes()
        body_start = _SNAPSHOT_HEADER_BYTES
        if len(blob) < body_start or not blob.startswith(_SNAPSHOT_MAGIC):
            raise ConfigError(
                f"{path} is not a readable cache snapshot (truncated or "
                "corrupt, or without a header: format "
                f"{_headerless_format(blob)!r}, expected format "
                f"{self.CACHE_SNAPSHOT_FORMAT})"
            )
        magic_end = len(_SNAPSHOT_MAGIC)
        found = int.from_bytes(blob[magic_end : magic_end + 4], "big")
        if found != self.CACHE_SNAPSHOT_FORMAT:
            raise ConfigError(
                f"{path} is not a cache snapshot this version understands "
                f"(format {found!r}, expected format "
                f"{self.CACHE_SNAPSHOT_FORMAT})"
            )
        body = blob[body_start:]
        if hashlib.sha256(body).digest() != blob[magic_end + 4 : body_start]:
            raise ConfigError(
                f"{path} is not a readable cache snapshot (truncated or "
                "corrupt: its payload does not match the header's SHA-256)"
            )
        payload = pickle.loads(body)
        fingerprint = self.cache_fingerprint()
        if payload.get("fingerprint") != fingerprint:
            raise ConfigError(
                "refusing cache snapshot: it was taken under a different "
                "policy/target-registry/cost-model fingerprint "
                f"({payload.get('fingerprint')!r} vs {fingerprint!r}); "
                "re-derive instead of serving stale schedules"
            )
        return payload

    def job_signature(self, pipeline: Pipeline) -> JobSignature:
        """The content-addressed key this framework memoizes ``pipeline``
        under (problem + structure + policy + targets + cost model).
        Minting reuses the framework's memoized :meth:`fingerprints`
        (derived once per registry version) and the pipeline's cached
        structural hash, so it costs about as much as a cache lookup."""
        registry_fp, cost_fp = self.fingerprints()
        return job_signature(
            pipeline,
            self.policy,
            self.scheduler,
            self.cost_model,
            registry_fp=registry_fp,
            cost_fp=cost_fp,
        )

    # ------------------------------------------------------------------
    # Single job
    # ------------------------------------------------------------------
    def run(
        self,
        n_atoms: int | None = None,
        problem: ProblemSize | None = None,
        pipeline: Pipeline | None = None,
    ) -> NdftRunResult:
        """Schedule + execute LR-TDDFT for Si_{n_atoms} on the CPU-NDP
        system and account its memory."""
        if problem is None:
            if pipeline is not None:
                problem = pipeline.problem
            elif n_atoms is not None:
                problem = problem_size(n_atoms)
            else:
                raise ConfigError("pass n_atoms, problem or pipeline")
        pipeline = pipeline or self._build_pipeline(problem, build_pipeline)
        entry = self._entry(problem, pipeline)
        self._fill_solo([entry])
        return self._assemble([entry], [0], (entry.record.solo,))[0]

    # ------------------------------------------------------------------
    # Batched jobs
    # ------------------------------------------------------------------
    def fault_lanes(self) -> tuple[str, ...]:
        """Every lane name the configured system exposes to fault plans:
        one device lane per registered scheduler target plus the
        pairwise ``link:a-b`` wire lanes the executor creates between
        them.  A fault window on any other lane name can never fire —
        the CLI validates ``--fault-lanes`` against this set.  Memoized
        per registry version (:meth:`register_target` invalidates), so
        per-call validation in serving loops costs a tuple fetch."""
        if self._fault_lanes is None:
            targets = self.scheduler.targets
            lanes = [lane_name(p) for p in targets]
            for i, a in enumerate(targets):
                for b in targets[i + 1 :]:
                    lanes.append(lane_name(frozenset((a, b))))
            self._fault_lanes = tuple(sorted(lanes))
        return self._fault_lanes

    def run_many(
        self,
        batch: Sequence[int | ProblemSize | Pipeline],
        pipeline_builder: Callable[[ProblemSize], Pipeline] | None = None,
        arrivals: Sequence[float] | None = None,
        backend: str | None = None,
        admission: AdmissionPolicy | None = None,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
    ) -> NdftBatchResult:
        """Schedule and execute a batch of heterogeneous jobs through one
        shared machine.

        ``batch`` entries may be atom counts, :class:`ProblemSize` records
        or prebuilt pipelines (mixed freely).  Every job is scheduled
        independently under the framework policy, then all jobs execute
        concurrently on the shared device/link resources, so jobs whose
        placements use different devices at different times genuinely
        overlap.  ``pipeline_builder`` overrides the Fig. 1 chain for
        entries given as sizes (e.g. ``build_kpoint_pipeline``).

        ``arrivals`` releases job ``i`` at virtual-time offset
        ``arrivals[i]`` instead of t=0 — the open-queue serving model
        (see :func:`repro.core.arrivals.poisson_arrivals` for the
        standard generator); the result then reports completion-latency
        percentiles and queueing delays.

        The front end is columnar: each distinct entry (atom counts by
        value, problems and pipelines by identity) is resolved once per
        call into a table each job indexes; only the simulation and the
        eager report and :class:`NdftRunResult` remain per job.  The
        executor times the batch as one simulation, with
        signature-coalesced super-jobs; ``backend`` forces one named
        simulation backend (:mod:`repro.core.backends`; by default the
        batch walks the order
        :func:`~repro.core.backends.selection_order` derives from its
        shape, and ``backend="engine"`` is the uncollapsed reference).
        Results are bit-identical whichever backend simulates.

        ``admission`` applies an SLO-driven
        :class:`~repro.core.arrivals.AdmissionPolicy` to the open queue
        (it requires ``arrivals``): each arrival's completion is
        predicted from its memoized solo-time estimate plus the current
        backlog on its placement's lanes, violators are shed (never
        simulated) or deprioritized (released after the predicted
        drain), and the result's :attr:`NdftBatchResult.admission`
        records every decision.  The plan is deterministic — the same
        arrivals and policy always shed the same set.

        ``faults`` injects a deterministic
        :class:`~repro.core.faults.FaultPlan`; ``retry`` (default
        :class:`~repro.core.faults.RetryPolicy`) governs recovery: a job
        killed by a lane outage re-enters the open queue at its
        backoff-delayed release, and jobs whose base placement touches a
        *permanently* dead lane are re-placed through the exact DP with
        the dead target excluded (graceful degradation, e.g. NDP→CPU).
        The result's ``jobs``/latency properties then cover the jobs
        that eventually completed, and :attr:`NdftBatchResult.resilience`
        records every attempt, availability, goodput vs throughput, and
        post-fault latency percentiles.  Plans may also carry correlated
        shock outages (:func:`~repro.core.faults.shock_fault_plan`) and
        non-lethal :class:`~repro.core.faults.SlowdownWindow` degradation
        (service times inflate piecewise, jobs survive), and
        ``RetryPolicy(checkpoint=True)`` turns retries into resumes:
        the failed run's completed-stage frontier re-enters as the
        residual suffix pipeline, and the report surfaces
        ``resumed_stages``/``work_saved_seconds``.  An *empty* plan is
        bit-identical to no plan across every backend.
        """
        if not batch:
            raise ConfigError("run_many needs at least one job")
        if retry is not None and faults is None:
            raise ConfigError(
                "retry= only makes sense under fault injection: pass "
                "faults= (a FaultPlan) alongside it"
            )
        builder = pipeline_builder or build_pipeline
        entries, index = self._resolve_batch(batch, builder)
        admission_result = None
        if admission is not None:
            index, arrivals, admission_result = self._admit(
                admission, entries, index, arrivals
            )
            if not index:  # everything shed: nothing to simulate
                empty = BatchExecutionReport((), 0.0, arrivals=())
                resilience = None if faults is None else ResilienceReport(
                    plan=faults, retry=retry or RetryPolicy()
                )
                return NdftBatchResult((), empty, (), admission_result, resilience)

        if faults is not None:
            return self._run_resilient(
                entries,
                index,
                arrivals,
                faults,
                retry or RetryPolicy(),
                backend,
                admission_result,
            )

        batch_report = self.executor.execute_many(
            _per_job([(e.pipeline, e.record.schedule) for e in entries], index),
            arrivals=arrivals,
            backend=backend,
        )
        self._record_backends(batch_report)
        return NdftBatchResult(
            jobs=self._assemble(entries, index, batch_report.job_reports),
            batch_report=batch_report,
            solo_times=_solo_times(entries, index),
            admission=admission_result,
        )

    def _record_backends(self, report: BatchExecutionReport) -> None:
        """Fold one simulation's per-backend counters into the stats."""
        for name, count in report.backend_jobs.items():
            self._backend_jobs[name] = self._backend_jobs.get(name, 0) + count
        for name, wall in report.backend_wall_seconds.items():
            self._backend_wall[name] = self._backend_wall.get(name, 0.0) + wall

    def _resolve_batch(
        self,
        batch: Sequence[int | ProblemSize | Pipeline],
        builder: Callable[[ProblemSize], Pipeline],
    ) -> tuple[list[_Entry], list[int]]:
        """The per-call table: each distinct entry resolved once, in
        order of first appearance (see :meth:`run_many`), and each
        job's index into it.  Shared by :meth:`run_many` and
        :meth:`job_estimates` so both see identical jobs."""
        entries: list[_Entry] = []
        index: list[int] = []
        by_value: dict = {}
        # Each id's object is pinned by its entry, so ids cannot recycle.
        by_object: dict[int, int] = {}
        for entry in batch:
            if isinstance(entry, (Pipeline, ProblemSize)):
                seen, key = by_object, id(entry)
            else:
                seen, key = by_value, entry
            position = seen.get(key) if self.memoize else None
            if position is None:
                position = seen[key] = len(entries)
                if isinstance(entry, Pipeline):
                    entries.append(self._entry(entry.problem, entry))
                else:
                    problem = (
                        entry if isinstance(entry, ProblemSize) else problem_size(entry)
                    )
                    pipeline = self._build_pipeline(problem, builder)
                    entries.append(self._entry(problem, pipeline))
            index.append(position)
        # Solo runs after every placement, as its own phase (keeping each
        # phase's working set hot is measurably faster on cold batches).
        self._fill_solo(entries)
        return entries, index

    def _entry(self, problem: ProblemSize, pipeline: Pipeline) -> _Entry:
        signature = self.job_signature(pipeline) if self.memoize else None
        return _Entry(
            problem, pipeline, signature, self._record_for(pipeline, signature)
        )

    def _fill_solo(self, entries: list[_Entry]) -> None:
        """Give each entry's record its standalone (dedicated-machine)
        DES report, run once per record."""
        for e in entries:
            record = e.record
            if record.solo is None:
                record.solo = self.executor.execute(e.pipeline, record.schedule)

    def job_estimates(
        self,
        batch: Sequence[int | ProblemSize | Pipeline],
        pipeline_builder: Callable[[ProblemSize], Pipeline] | None = None,
    ) -> tuple[tuple[float, ...], tuple[tuple, ...]]:
        """Per-job ``(solo_times, lanes)`` — the memoized backlog-model
        inputs :func:`~repro.core.arrivals.plan_admission` consumes:
        each job's dedicated-machine DES makespan and the device/wire
        lane names its placement occupies.  The admission controller
        and the fleet router (:mod:`repro.fleet`) share exactly these
        estimates, so routing and shedding predict with one model; both
        come once per entry of :meth:`run_many`'s per-call table, and
        ride the entry store (a size seen before costs a lookup)."""
        if not batch:
            raise ConfigError("job_estimates needs at least one job")
        builder = pipeline_builder or build_pipeline
        entries, index = self._resolve_batch(batch, builder)
        return (
            _solo_times(entries, index),
            _per_job([_schedule_lanes(e.record.schedule) for e in entries], index),
        )

    def _run_resilient(
        self,
        entries: list[_Entry],
        index: list[int],
        arrivals: Sequence[float] | None,
        faults: FaultPlan,
        retry: RetryPolicy,
        backend: str | None,
        admission_result,
    ) -> NdftBatchResult:
        """The fault-injected serving loop: simulate, retry, re-place.

        Runs rounds of the full shared-machine simulation to a fixpoint:
        each round's *run list* is the base submission plus, for every
        run the fault plan killed, its retry released at
        ``fail_time + backoff(attempt)`` (while attempts and the per-job
        timeout allow).  Because a retry always releases strictly after
        the failure that caused it, and failures only happen at the
        plan's fault-event instants, the run list stabilizes after at
        most one round per (event, attempt) pair — the final round *is*
        the consistent execution, and everything reported comes from it.

        Runs released at-or-after a lane's permanent death whose base
        placement touches the dead target are re-placed through the
        exact DP with every dead-at-release target excluded
        (:meth:`_record_for` with ``exclude=``), reusing the degraded
        record across runs via its ``(signature, exclusion)`` store key.

        Under ``retry.checkpoint`` a failed run's completed-stage
        frontier rides along with its retry, which re-enters as the
        *residual* pipeline (:meth:`Pipeline.residual`): the suffix past
        the frontier, scheduled through the same exact DP under its own
        content-derived signature, so residual and full records coexist
        in the store.  Frontiers accumulate across attempts,
        and each resumed attempt's skipped work — valued at the base
        schedule's stage times — surfaces as
        :attr:`ResilienceReport.work_saved_seconds`.
        """
        n = len(index)
        releases0 = (
            [0.0] * n if arrivals is None else [float(a) for a in arrivals]
        )
        dead_at: dict[Placement, float] = {}
        for lane, death in faults.dead_lanes().items():
            try:
                placement = Placement(lane)
            except ValueError as exc:
                raise ConfigError(
                    f"permanent failure on {lane!r} does not name a known "
                    f"device lane"
                ) from exc
            dead_at[placement] = death

        # Residual (pipeline, signature, record) per checkpoint frontier,
        # built once per (job, frontier) within this call; the residual's
        # record persists across calls in the store under its own
        # content-derived signature.
        residuals: dict[tuple[int, tuple[str, ...]], tuple] = {}
        # One shared (pipeline, schedule) pair per entry: plain runs hand
        # it over, so the executor groups them at C speed.
        pairs = [(e.pipeline, e.record.schedule) for e in entries]

        def resolve_run(job_index: int, release: float, frontier: tuple):
            """The ((pipeline, schedule), signature, record, degraded?,
            work_saved) for one run.  A non-empty ``frontier`` swaps in
            the residual pipeline past the checkpointed stages;
            dead-at-release targets are excluded iff the run's placement
            touches one (a placement clear of every dead lane cannot
            suffer a permanent failure, so re-solving would change
            nothing)."""
            entry = entries[index[job_index]]
            job = pairs[index[job_index]]
            pipeline, signature, record = entry.pipeline, entry.signature, entry.record
            work_saved = 0.0
            if frontier:
                base_times = record.schedule.stage_times
                work_saved = sum(
                    base_times[name].total for name in frontier
                )
                key = (job_index, frontier)
                cached = residuals.get(key)
                if cached is None:
                    residual = pipeline.residual(frontier)
                    r_signature = (
                        self.job_signature(residual) if self.memoize else None
                    )
                    cached = (
                        residual,
                        r_signature,
                        self._record_for(residual, r_signature),
                    )
                    residuals[key] = cached
                pipeline, signature, record = cached
                job = (pipeline, record.schedule)
            excl = frozenset(
                p for p, death in dead_at.items() if death <= release
            )
            if not excl or not (excl & set(record.schedule.assignments.values())):
                return job, signature, record, False, work_saved
            record = self._record_for(pipeline, signature, exclude=excl)
            return (pipeline, record.schedule), signature, record, True, work_saved

        base_runs = [(i, 1, releases0[i], ()) for i in range(n)]
        runs = base_runs
        max_rounds = (len(faults.event_times()) + 1) * retry.max_attempts + 2
        report = None
        run_meta: list = []
        failed_runs: dict[int, object] = {}
        for _round in range(max_rounds):
            sim_jobs = []
            run_meta = []
            for job_index, _attempt, release, frontier in runs:
                resolved = resolve_run(job_index, release, frontier)
                sim_jobs.append(resolved[0])
                run_meta.append(resolved)
            # The base round of a closed batch must be the exact no-plan
            # submission (arrivals=None, not explicit zeros): the empty-
            # plan bit-identity contract covers the event stream, and a
            # zero release still costs a timeout event.
            sim_arrivals = (
                None
                if arrivals is None and runs == base_runs
                else [release for _job, _attempt, release, _f in runs]
            )
            report = self.executor.execute_many(
                sim_jobs,
                arrivals=sim_arrivals,
                backend=backend,
                faults=faults,
            )
            failed_runs = {failure.job: failure for failure in report.failures}
            new_runs = list(base_runs)
            for position, (job_index, attempt, _release, frontier) in enumerate(
                runs
            ):
                failure = failed_runs.get(position)
                if failure is None:
                    continue
                next_attempt = attempt + 1
                if next_attempt > retry.max_attempts:
                    continue
                next_release = failure.time + retry.backoff(attempt)
                if (
                    retry.job_timeout is not None
                    and next_release - releases0[job_index]
                    > retry.job_timeout
                ):
                    continue
                next_frontier = frontier
                if retry.checkpoint and failure.completed_stages:
                    # The frontier accumulates: stages the residual run
                    # completed join the stages earlier attempts banked.
                    next_frontier = tuple(
                        sorted(set(frontier) | set(failure.completed_stages))
                    )
                new_runs.append(
                    (job_index, next_attempt, next_release, next_frontier)
                )
            if new_runs == runs:
                break
            runs = new_runs
        else:  # pragma: no cover - the per-(event, attempt) bound holds
            raise ConfigError(
                "fault retry loop did not reach a fixpoint within "
                f"{max_rounds} rounds"
            )

        self._record_backends(report)

        # Outcomes: each job has at most one non-failed run (its last
        # attempt); every run of the converged round becomes an
        # AttemptRecord.
        completed: dict[int, int] = {}
        records = []
        for position, (job_index, attempt, release, frontier) in enumerate(
            runs
        ):
            failure = failed_runs.get(position)
            degraded = run_meta[position][3]
            work_saved = run_meta[position][4]
            if failure is None:
                completed[job_index] = position
            records.append(
                AttemptRecord(
                    job_index=job_index,
                    attempt=attempt,
                    release=release,
                    completed=failure is None,
                    failure_time=None if failure is None else failure.time,
                    failure_lane=None if failure is None else failure.lane,
                    failure_kind=None if failure is None else failure.kind,
                    degraded=degraded,
                    frontier=frontier,
                    work_saved=work_saved,
                )
            )
        abandoned = tuple(
            job_index for job_index in range(n) if job_index not in completed
        )
        end_to_end = tuple(
            report.job_reports[completed[i]].total_time - releases0[i]
            if i in completed
            else None
            for i in range(n)
        )
        resilience = ResilienceReport(
            plan=faults,
            retry=retry,
            attempts=tuple(records),
            submitted=n,
            abandoned_jobs=abandoned,
            end_to_end_latencies=end_to_end,
            busy_span=report.busy_span,
        )

        # The surfaced batch covers the jobs that completed, in
        # submission order, with their *final-attempt* releases — the
        # convention deprioritized admission set (latencies count from
        # the release the simulation actually used; end-to-end latency
        # from the original arrival lives on the resilience report).
        kept = sorted(completed)
        kept_reports = tuple(report.job_reports[completed[i]] for i in kept)
        kept_releases = tuple(runs[completed[i]][2] for i in kept)
        out_arrivals = (
            None
            if arrivals is None and runs == base_runs
            else kept_releases
        )
        batch_report = BatchExecutionReport(
            job_reports=kept_reports,
            makespan=report.makespan,
            arrivals=out_arrivals,
            n_superjobs=report.n_superjobs,
            backend_jobs=report.backend_jobs,
            lane_occupancy=report.lane_occupancy,
            backend_timings=report.backend_timings,
            failures=report.failures,
        )
        # A degraded or resumed run ran its own record, so it assembles
        # from a one-run entry of its own.
        run_entries = list(entries)
        run_index = []
        for job_index in kept:
            entry = entries[index[job_index]]
            job, signature, record, _degraded, _saved = run_meta[
                completed[job_index]
            ]
            if record is entry.record:
                run_index.append(index[job_index])
                continue
            run_index.append(len(run_entries))
            run_entries.append(_Entry(entry.problem, job[0], signature, record))
        self._fill_solo(run_entries[len(entries):])
        if admission_result is not None and abandoned:
            # Abandoned jobs shift the surviving jobs' positions; the
            # admitted-only percentile indices must follow them.
            remap = {job_index: new for new, job_index in enumerate(kept)}
            admission_result = replace(
                admission_result,
                counted_indices=tuple(
                    remap[i]
                    for i in admission_result.counted_indices
                    if i in remap
                ),
            )
        return NdftBatchResult(
            jobs=self._assemble(run_entries, run_index, kept_reports),
            batch_report=batch_report,
            solo_times=_solo_times(run_entries, run_index),
            admission=admission_result,
            resilience=resilience,
        )

    def _admit(
        self,
        admission: AdmissionPolicy,
        entries: list[_Entry],
        index: list[int],
        arrivals: Sequence[float] | None,
    ) -> tuple[list[int], list[float], AdmissionResult]:
        """Run the admission controller over a resolved batch and
        return the executed subset: table indices, (possibly deferred)
        releases, and the full decision record.  Solo times, lanes and
        labels are derived once per entry of the table."""
        if arrivals is None:
            raise ConfigError(
                "admission control acts on an open queue: pass arrivals= "
                "(e.g. poisson_arrivals) alongside admission="
            )
        arrivals = validate_arrivals(arrivals, len(index))
        decisions = plan_admission(
            admission,
            arrivals,
            _solo_times(entries, index),
            _per_job([_schedule_lanes(e.record.schedule) for e in entries], index),
            _per_job([e.problem.label for e in entries], index),
        )
        executed = [
            i
            for i, decision in enumerate(decisions)
            if decision.admitted or decision.deferred
        ]
        counted = tuple(
            position
            for position, i in enumerate(executed)
            if decisions[i].admitted
        )
        admission_result = AdmissionResult(
            policy=admission,
            decisions=decisions,
            counted_indices=counted,
        )
        return (
            [index[i] for i in executed],
            [decisions[i].release for i in executed],
            admission_result,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _build_pipeline(
        self,
        problem: ProblemSize,
        builder: Callable[[ProblemSize], Pipeline],
    ) -> Pipeline:
        """Build (or reuse) the pipeline for one problem/builder pair.
        Sharing the built object also shares its cached structural hash,
        so duplicate batch entries hash once."""
        if not self.memoize:
            return builder(problem)
        key = (problem, builder)
        pipeline = self._pipeline_cache.get(key)
        if pipeline is None:
            pipeline = builder(problem)
            self._pipeline_cache.put(key, pipeline)
        return pipeline

    def _record_for(
        self,
        pipeline: Pipeline,
        signature: JobSignature | None,
        exclude: frozenset[Placement] = frozenset(),
    ) -> _Record:
        """The entry-store record of one job, placing the job on a miss
        (``signature=None``: a fresh, unstored record).

        ``exclude`` is the degraded-placement path after a permanent
        lane failure: the exact DP re-solves over the surviving targets,
        and the store keys the exclusion set alongside the signature — a
        degraded schedule must never shadow (or be shadowed by) the
        healthy one.
        """
        key = signature
        if exclude:
            key = (signature, tuple(sorted(p.value for p in exclude)))
        record = None if signature is None else self._store.get(key)
        if record is None:
            record = _Record(
                self.scheduler.schedule(
                    pipeline, self.policy, exclude=exclude or None
                )
            )
            if signature is not None:
                self._store.put(key, record)
        return record

    def _assemble(
        self,
        entries: list[_Entry],
        index: list[int],
        reports: Sequence[ExecutionReport],
    ) -> tuple[NdftRunResult, ...]:
        """Every executed job's :class:`NdftRunResult`, built eagerly from
        its entry's fields and its own report.  SCA verdicts (kept on
        the record: the analyzer sees only the pipeline and the rooflines
        fixed at construction) and the footprint closed forms resolve
        once per entry."""
        fields = {}
        for position in set(index):
            entry = entries[position]
            record = entry.record
            if record.sca is None:
                record.sca = self.sca.analyze_all(
                    [s.function for s in entry.pipeline.stages]
                )
            n_atoms = entry.problem.n_atoms
            fields[position] = (
                entry.problem,
                record.schedule,
                record.sca,
                footprint_ndft(n_atoms, NDP_RANKS, NDP_STACKS),
                footprint_replicated(n_atoms, NDP_RANKS),
            )
        result = NdftRunResult
        return tuple(
            [
                result(problem, schedule, report, sca_reports, memory, replicated)
                for (problem, schedule, sca_reports, memory, replicated), report
                in zip(map(fields.__getitem__, index), reports)
            ]
        )


def _solo_times(entries: list[_Entry], index: list[int]) -> tuple[float, ...]:
    """Each job's solo (dedicated-machine) makespan."""
    return _per_job([e.record.solo.total_time for e in entries], index)


def _per_job(values: list, index: list[int]) -> tuple:
    """Spread per-entry ``values`` over the jobs, at C speed."""
    return tuple(map(values.__getitem__, index))

