"""Content-addressed job signatures for the serving fast path.

A production "DFT as a service" deployment sees the same problem shapes
over and over: a 1k-job batch typically contains a handful of distinct
system sizes.  Everything the framework derives per job — the cost-aware
:class:`~repro.core.scheduler.Schedule`, the SCA reports, the standalone
DES makespan — is a pure function of

1. the pipeline's structure (problem dimensions, stage workloads, edge
   bytes — folded into :attr:`repro.core.pipeline.Pipeline.structural_hash`),
2. the scheduling policy,
3. the registered execution targets, and
4. the offload cost model's link/CXT parameters,

so a frozen :class:`JobSignature` over exactly those four inputs is a
sound memoization key: two jobs with equal signatures provably produce
identical schedules, reports and solo makespans.  The framework
(:class:`repro.core.framework.NdftFramework`) keys its entry store on it
and drops it whenever a target is (re)registered.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cost_model import OffloadCostModel
from repro.core.pipeline import Pipeline
from repro.core.scheduler import CostAwareScheduler, SchedulingPolicy


def cost_model_fingerprint(cost_model: OffloadCostModel) -> tuple:
    """Hashable digest of every parameter Eq. 1 can observe: the default
    host link, the CXT constant, and each per-pair device link."""
    links = tuple(
        sorted(
            (
                tuple(sorted(str(p) for p in pair)),
                link.bandwidth,
                link.base_latency,
            )
            for pair, link in cost_model.device_links.items()
        )
    )
    return (
        cost_model.host_link.bandwidth,
        cost_model.host_link.base_latency,
        cost_model.context_switch,
        links,
    )


def target_registry_fingerprint(scheduler: CostAwareScheduler) -> tuple:
    """Hashable digest of the scheduler's target registry.

    The registered machine *objects* are not hashed (arbitrary machines
    plug in via ``register_target``); instead the scheduler's
    ``registry_version`` counter — bumped on every registration — stands
    in for their identity, so swapping a machine changes every signature
    minted afterwards.
    """
    return (
        scheduler.registry_version,
        tuple(str(p) for p in scheduler.targets),
    )


@dataclass(frozen=True)
class JobSignature:
    """The content-addressed identity of one schedulable job."""

    #: Human-readable anchor (not needed for soundness — the pipeline
    #: hash already covers the problem — but invaluable in cache dumps).
    n_atoms: int
    pipeline_hash: str
    policy: SchedulingPolicy
    registry_fingerprint: tuple
    cost_model_fingerprint: tuple


def job_signature(
    pipeline: Pipeline,
    policy: SchedulingPolicy,
    scheduler: CostAwareScheduler,
    cost_model: OffloadCostModel,
    *,
    registry_fp: tuple | None = None,
    cost_fp: tuple | None = None,
) -> JobSignature:
    """Mint the signature under which one job's derived artifacts are
    memoized.

    ``registry_fp`` / ``cost_fp`` accept fingerprints the caller has
    already derived (the framework memoizes them per registry version),
    so bulk minting doesn't re-walk the registry and link table per job.
    """
    if registry_fp is None:
        registry_fp = target_registry_fingerprint(scheduler)
    if cost_fp is None:
        cost_fp = cost_model_fingerprint(cost_model)
    return JobSignature(
        n_atoms=pipeline.problem.n_atoms,
        pipeline_hash=pipeline.structural_hash,
        policy=policy,
        registry_fingerprint=registry_fp,
        cost_model_fingerprint=cost_fp,
    )
