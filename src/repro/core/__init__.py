"""NDFT core: the paper's primary contribution.

- :mod:`repro.core.ir` — the kernel IR the static code analyzer consumes.
- :mod:`repro.core.sca` — the SCA substitute: per-function compute/memory
  intensity, boundedness classification, transfer-set estimation (§IV-A2).
- :mod:`repro.core.cost_model` — Eq. 1: scheduling overhead as the sum of
  data-transfer (DT) and context-switch (CXT) costs over placement
  boundaries.
- :mod:`repro.core.scheduler` — the cost-aware offloader over a pluggable
  target registry (CPU, NDP, GPU, ...), solved by an exact topological
  DP with exhaustive enumeration retained as the test oracle; plus the
  naive / all-CPU / all-NDP ablation policies at four offload
  granularities (instruction, basic block, function, kernel).
- :mod:`repro.core.pipeline` — validated stage DAGs with data edges: the
  paper's LR-TDDFT chain plus branching (k-point) variants.
- :mod:`repro.core.executor` — maps schedules onto the machine models via
  the discrete-event engine: DAG-aware waits, branch overlap on distinct
  devices, and batched multi-job execution on one shared machine as one
  simulation, scaled out through signature-coalesced super-jobs
  (bit-identical to the plain shared engine).
- :mod:`repro.core.backends` — the simulation-backend layer the executor
  selects from per batch: the DAG FIFO replay (one cursor per replica
  segment, join counters on fan-in stages), the numpy wave replay and
  the generator engine fallback, all bit-identical and pluggable via
  ``register_backend``.
- :mod:`repro.core.arrivals` — arrival processes (seeded Poisson),
  latency percentiles and the SLO-driven admission policy
  (shed/deprioritize) for the open-queue serving model.
- :mod:`repro.core.faults` — deterministic fault injection: seeded
  lane-outage/permanent-failure plans, retry policies with exponential
  backoff in virtual time, and the per-batch resilience report
  (availability, goodput vs throughput, post-fault percentiles).
- :mod:`repro.core.signature` / :mod:`repro.core.lru` — content-addressed
  job signatures and the bounded LRU caches they key.
- :mod:`repro.core.framework` — the end-to-end NDFT driver (single jobs
  and concurrent batches).
- :mod:`repro.core.baselines` — CPU-only and GPU execution models.
"""

from repro.core.arrivals import (
    AdmissionDecision,
    AdmissionPolicy,
    percentile,
    plan_admission,
    poisson_arrivals,
)
from repro.core.backends import (
    SimulationBackend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.core.faults import (
    AttemptRecord,
    FaultPlan,
    ResilienceReport,
    RetryPolicy,
    poisson_fault_plan,
)
from repro.core.ir import CodeSegment, KernelFunction
from repro.core.lru import LruCache
from repro.core.sca import ScaReport, StaticCodeAnalyzer
from repro.core.cost_model import OffloadCostModel
from repro.core.pipeline import (
    Edge,
    Pipeline,
    Stage,
    build_kpoint_pipeline,
    build_pipeline,
)
from repro.core.scheduler import (
    Placement,
    Schedule,
    SchedulingPolicy,
    CostAwareScheduler,
)
from repro.core.executor import (
    BatchExecutionReport,
    ExecutionReport,
    PipelineExecutor,
)
from repro.core.framework import (
    AdmissionResult,
    NdftBatchResult,
    NdftFramework,
    NdftRunResult,
)
from repro.core.baselines import run_cpu_baseline, run_gpu_baseline

__all__ = [
    "AdmissionDecision",
    "AdmissionPolicy",
    "AdmissionResult",
    "percentile",
    "plan_admission",
    "poisson_arrivals",
    "SimulationBackend",
    "backend_names",
    "get_backend",
    "register_backend",
    "AttemptRecord",
    "FaultPlan",
    "ResilienceReport",
    "RetryPolicy",
    "poisson_fault_plan",
    "LruCache",
    "CodeSegment",
    "KernelFunction",
    "ScaReport",
    "StaticCodeAnalyzer",
    "OffloadCostModel",
    "Edge",
    "Pipeline",
    "Stage",
    "build_pipeline",
    "build_kpoint_pipeline",
    "Placement",
    "Schedule",
    "SchedulingPolicy",
    "CostAwareScheduler",
    "BatchExecutionReport",
    "ExecutionReport",
    "PipelineExecutor",
    "NdftBatchResult",
    "NdftFramework",
    "NdftRunResult",
    "run_cpu_baseline",
    "run_gpu_baseline",
]
