"""Batched-serving study (extension beyond the paper).

DFT-as-a-service deployments push many independent DFT jobs through one
machine; the interesting question for the CPU-NDP system is how much of
that load the heterogeneous placement absorbs for free.  Because the
cost-aware schedule alternates devices along each job's chain (memory
phases on NDP, dense algebra on the host), two concurrent jobs naturally
interleave: one occupies the CPU while the other streams on the NDP side.

This driver runs a mixed batch through
:meth:`repro.core.framework.NdftFramework.run_many` (one shared DES
engine, shared device and link resources) and reports:

- per-job completion times inside the batch (queueing included);
- the aggregate makespan and throughput;
- the batching speedup over running the same jobs back to back.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.arrivals import AdmissionPolicy, poisson_arrivals
from repro.core.framework import NdftBatchResult, NdftFramework

#: Default mixed batch: two small interactive jobs sharing the machine
#: with one mid-size and one large job.
DEFAULT_BATCH_SIZES = (64, 64, 512, 1024)


@dataclass(frozen=True)
class BatchStudy:
    """Shared-machine batch vs one-at-a-time serial execution."""

    sizes: tuple[int, ...]
    result: NdftBatchResult

    @property
    def open_queue(self) -> bool:
        return self.result.arrivals is not None

    @property
    def makespan(self) -> float:
        return self.result.makespan

    @property
    def serial_time(self) -> float:
        return self.result.serial_time

    @property
    def throughput(self) -> float:
        return self.result.throughput

    @property
    def batching_speedup(self) -> float:
        return self.result.batching_speedup

    def job_rows(self) -> list[tuple[str, float, float]]:
        """(label, solo seconds, in-batch completion seconds) per job."""
        return [
            (label, solo, completion)
            for (label, completion), solo in zip(
                self.result.job_completion_times(), self.result.solo_times
            )
        ]


def run_batch_study(
    sizes: tuple[int, ...] = DEFAULT_BATCH_SIZES,
    framework: NdftFramework | None = None,
    arrival_rate: float | None = None,
    arrival_seed: int = 0,
    admission: AdmissionPolicy | None = None,
) -> BatchStudy:
    """Schedule + execute the batch on one shared machine.

    ``arrival_rate`` switches the closed t=0 batch to an open queue:
    jobs are released by a seeded Poisson process at that offered load
    (jobs per second of virtual time), and the study reports completion
    latency and queueing delay per job.  ``admission`` applies an
    SLO-driven admission policy to the open queue (it requires an
    arrival process)."""
    framework = framework or NdftFramework()
    arrivals = None
    if arrival_rate is not None and arrival_rate > 0:
        arrivals = poisson_arrivals(len(sizes), arrival_rate, seed=arrival_seed)
    return BatchStudy(
        sizes=tuple(sizes),
        result=framework.run_many(
            list(sizes), arrivals=arrivals, admission=admission
        ),
    )


def format_batch(study: BatchStudy) -> str:
    result = study.result
    if study.open_queue:
        lines = [
            f"Open-queue serving - {len(study.sizes)} jobs, Poisson "
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
        if result.admission is not None:
            admission = result.admission
            shed = (
                f" ({', '.join(admission.shed_labels)})"
                if admission.shed_labels
                else ""
            )
            lines.append(
                f"admission ({admission.policy.mode}): "
                f"{admission.admitted} admitted, {admission.shed} shed"
                f"{shed}, {admission.deferred} deferred; "
                f"post-shed p99 {result.slo_p99_latency:.4f} s"
            )
        if result.lane_utilization:
            lanes = ", ".join(
                f"{lane} {value:.0%}"
                for lane, value in sorted(
                    result.lane_utilization.items(),
                    key=lambda item: -item[1],
                )
            )
            lines.append(f"lane utilization: {lanes}")
        return "\n".join(lines)
    lines = [
        f"Batched serving - {len(study.sizes)} concurrent jobs, shared CPU-NDP machine",
        f"{'job':<10s} {'solo (s)':>10s} {'in-batch (s)':>13s}",
    ]
    for label, solo, batched in study.job_rows():
        lines.append(f"{label:<10s} {solo:10.4f} {batched:13.4f}")
    lines.append(
        f"{'serial':<10s} {study.serial_time:10.4f}   (jobs back to back)"
    )
    lines.append(
        f"{'batch':<10s} {study.makespan:10.4f}   "
        f"(makespan; {study.batching_speedup:.2f}x vs serial, "
        f"{study.throughput:.2f} jobs/s)"
    )
    return "\n".join(lines)
