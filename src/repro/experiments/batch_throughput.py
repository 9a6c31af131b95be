"""Batched-serving study (extension beyond the paper).

DFT-as-a-service deployments push many independent DFT jobs through one
machine; the interesting question for the CPU-NDP system is how much of
that load the heterogeneous placement absorbs for free.  Because the
cost-aware schedule alternates devices along each job's chain (memory
phases on NDP, dense algebra on the host), two concurrent jobs naturally
interleave: one occupies the CPU while the other streams on the NDP side.

This driver runs a mixed batch through
:meth:`repro.core.framework.NdftFramework.run_many` (one shared DES
engine, shared device and link resources) and returns the
:class:`~repro.core.framework.NdftBatchResult` itself, which
:func:`format_batch` reads:

- per-job completion times inside the batch (queueing included);
- the aggregate makespan and throughput;
- the batching speedup over running the same jobs back to back.
"""

from __future__ import annotations

from math import isfinite

from repro.core.arrivals import AdmissionPolicy, poisson_arrivals
from repro.core.framework import NdftBatchResult, NdftFramework
from repro.errors import ConfigError

#: Default mixed batch: two small interactive jobs sharing the machine
#: with one mid-size and one large job.
DEFAULT_BATCH_SIZES = (64, 64, 512, 1024)


def run_batch_study(
    sizes: tuple[int, ...] = DEFAULT_BATCH_SIZES,
    framework: NdftFramework | None = None,
    arrival_rate: float | None = None,
    arrival_seed: int = 0,
    admission: AdmissionPolicy | None = None,
) -> NdftBatchResult:
    """Schedule + execute the batch on one shared machine; return the
    result.  ``arrival_rate`` switches the closed t=0 batch to an open
    queue: jobs are released by a seeded Poisson process at that
    offered load (jobs per second of virtual time), and the result
    reports completion latency and queueing delay per job.  ``None`` or
    ``<= 0`` keeps the closed batch, and ``nan`` or ``inf`` is refused
    with :class:`~repro.errors.ConfigError`, serve-bench's rule.
    ``admission`` applies an SLO-driven admission policy to the open
    queue (it requires an arrival process)."""
    if arrival_rate is not None and not (arrival_rate <= 0 or isfinite(arrival_rate)):
        raise ConfigError(f"arrival_rate must be finite, got {arrival_rate!r}")
    framework = framework or NdftFramework()
    arrivals = None
    if arrival_rate is not None and arrival_rate > 0:
        arrivals = poisson_arrivals(len(sizes), arrival_rate, seed=arrival_seed)
    return framework.run_many(list(sizes), arrivals=arrivals, admission=admission)


def format_batch(result: NdftBatchResult) -> str:
    """The console report of a (closed or open-queue) batch result."""
    admission = result.admission
    submitted = result.n_jobs if admission is None else admission.n_submitted
    if result.arrivals is not None:
        lines = [
            f"Open-queue serving - {submitted} jobs, Poisson "
            "arrivals, shared CPU-NDP machine",
            f"{'job':<10s} {'arrival (s)':>12s} {'done (s)':>10s} "
            f"{'latency (s)':>12s} {'queued (s)':>11s}",
        ]
        for (label, completion), arrival, latency, queued in zip(
            result.job_completion_times(),
            result.arrivals,
            result.completion_latencies,
            result.queueing_delays,
        ):
            lines.append(
                f"{label:<10s} {arrival:12.4f} "
                f"{completion:10.4f} {latency:12.4f} "
                f"{queued:11.4f}"
            )
        lines.append(
            f"latency p50 {result.p50_latency:.4f} s, "
            f"p99 {result.p99_latency:.4f} s, "
            f"mean queueing delay {result.mean_queueing_delay:.4f} s"
        )
        if admission is not None:
            shed = ", ".join(admission.shed_labels)
            shed = f" ({shed})" if shed else ""
            lines.append(
                f"admission ({admission.policy.mode}): "
                f"{admission.admitted} admitted, {admission.shed} shed"
                f"{shed}, {admission.deferred} deferred; "
                f"post-shed p99 {result.slo_p99_latency:.4f} s"
            )
        ranked = sorted(result.lane_utilization.items(), key=lambda item: -item[1])
        if ranked:
            lanes = ", ".join(f"{lane} {value:.0%}" for lane, value in ranked)
            lines.append(f"lane utilization: {lanes}")
        return "\n".join(lines)
    lines = [
        f"Batched serving - {submitted} concurrent jobs, shared CPU-NDP machine",
        f"{'job':<10s} {'solo (s)':>10s} {'in-batch (s)':>13s}",
    ]
    for (label, batched), solo in zip(
        result.job_completion_times(), result.solo_times
    ):
        lines.append(f"{label:<10s} {solo:10.4f} {batched:13.4f}")
    lines.append(f"{'serial':<10s} {result.serial_time:10.4f}   (jobs back to back)")
    lines.append(
        f"{'batch':<10s} {result.makespan:10.4f}   "
        f"(makespan; {result.batching_speedup:.2f}x vs serial, "
        f"{result.throughput:.2f} jobs/s)"
    )
    return "\n".join(lines)
