"""Command-line interface: ``python -m repro <artifact>``.

Regenerates any of the paper's artifacts from a shell:

    python -m repro fig4          # roofline study
    python -m repro table1        # footprint table
    python -m repro fig7 --atoms 1024
    python -m repro fig8
    python -m repro discussion
    python -m repro ablations
    python -m repro sensitivity   # design-space sweeps (extension)
    python -m repro batch --atoms 64 64 512 1024   # batched serving (extension)
    python -m repro batch --policy all_cpu         # ... under another scheduler
    python -m repro batch --arrival-rate 2.0       # ... as an open queue
    python -m repro batch --arrival-rate 5.0 --slo-p99 2.0  # ... with admission
    python -m repro serve-bench   # wall-clock serving throughput sweep
    python -m repro serve-bench --backend engine  # force one sim backend (A/B)
    python -m repro serve-bench --arrival-sweep   # latency-vs-load + knee
    python -m repro serve-bench --arrival-sweep --slo-p99 2.0  # ... shedding
    python -m repro serve-bench --mtbf 10 --mttr 1 --fault-seed 7  # ... faults
    python -m repro serve-bench --shock-rate 0.1 --slowdown-factor 2 --checkpoint
    python -m repro serve-bench --replicas 4      # multi-process fleet serving
    python -m repro all           # everything, in paper order
    python -m repro lint          # repo-native invariant analyzer
    python -m repro lint src tests benchmarks --format json

``serve-bench`` is excluded from ``all``: it measures wall-clock time of
this machine rather than a paper artifact, so its output is not
reproducible across hosts.

``lint`` is not an artifact either: it runs the
:mod:`repro.analysis` invariant analyzer (layering, determinism,
backend contract, ``__slots__`` hygiene, error discipline) and exits
non-zero on findings — see the README's "Invariant lint" section.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.framework import NdftFramework
from repro.core.scheduler import SchedulingPolicy


def _backend_choices() -> list[str]:
    from repro.core.backends import backend_names

    return list(backend_names())


def _admission_policy(args):
    """The AdmissionPolicy the --slo-p99 / --max-queue-depth /
    --admission-mode flags describe, or ``None`` when neither criterion
    was given (admission off — the pre-admission behavior)."""
    if args.slo_p99 is None and args.max_queue_depth is None:
        return None
    from repro.core.arrivals import AdmissionPolicy

    return AdmissionPolicy(
        slo_p99=args.slo_p99,
        max_queue_depth=args.max_queue_depth,
        mode=args.admission_mode,
    )


def _check_fault_lanes(lanes, framework, flag: str) -> None:
    """Reject lane names the configured system does not expose: a fault
    window on an unknown lane silently never fires, which reads as a
    suspiciously-perfect availability number."""
    from repro.errors import ConfigError

    valid = framework.fault_lanes()
    for lane in lanes:
        if lane not in valid:
            raise ConfigError(
                f"{flag}: unknown lane {lane!r}; this system exposes "
                f"{list(valid)}"
            )


def _fault_setup(args, framework):
    """The (FaultPlan, RetryPolicy) pair the fault flags describe.

    Three independent seeded processes compose via
    :meth:`FaultPlan.merge`: per-lane Poisson outages (``--mtbf``),
    correlated group shocks (``--shock-rate``/``--shock-groups``), and
    non-lethal slowdowns (``--slowdown-factor``, drawn at the outage
    MTBF — default 10.0 when --mtbf is off — under ``seed + 1`` so the
    windows decorrelate from the outage draw).  Returns ``(None, None)``
    when no fault flag was given (faults off — the pre-fault behavior).
    """
    from repro.core.faults import (
        RetryPolicy,
        poisson_fault_plan,
        shock_fault_plan,
        slowdown_fault_plan,
    )
    from repro.errors import ConfigError

    plan = None

    def compose(part):
        return part if plan is None else plan.merge(part)

    if args.mtbf is not None or args.slowdown_factor is not None:
        _check_fault_lanes(args.fault_lanes, framework, "--fault-lanes")
    if args.mtbf is not None:
        plan = compose(
            poisson_fault_plan(
                lanes=args.fault_lanes,
                mtbf=args.mtbf,
                mttr=args.mttr,
                horizon=args.fault_horizon,
                seed=args.fault_seed,
            )
        )
    if args.shock_rate is not None:
        groups = (
            [tuple(spec.split(",")) for spec in args.shock_groups]
            if args.shock_groups
            else [framework.fault_lanes()]
        )
        for group in groups:
            _check_fault_lanes(group, framework, "--shock-groups")
        plan = compose(
            shock_fault_plan(
                groups=groups,
                rate=args.shock_rate,
                mttr=args.mttr,
                horizon=args.fault_horizon,
                seed=args.fault_seed,
            )
        )
    if args.slowdown_factor is not None:
        plan = compose(
            slowdown_fault_plan(
                lanes=args.fault_lanes,
                mtbf=args.mtbf if args.mtbf is not None else 10.0,
                mttr=args.mttr,
                horizon=args.fault_horizon,
                factor=args.slowdown_factor,
                seed=args.fault_seed + 1,
            )
        )
    if plan is None:
        if args.checkpoint:
            raise ConfigError(
                "--checkpoint needs fault injection: pass --mtbf, "
                "--shock-rate or --slowdown-factor alongside it"
            )
        return None, None
    retry = RetryPolicy(checkpoint=True) if args.checkpoint else None
    return plan, retry


def _fig4(_args, _framework) -> str:
    from repro.experiments.fig4_roofline import format_roofline, run_roofline_study

    return format_roofline(run_roofline_study())


def _table1(_args, _framework) -> str:
    from repro.experiments.table1_footprint import format_table1

    return format_table1()


def _fig7(args, framework) -> str:
    from repro.experiments.fig7_breakdown import (
        breakdown_comparisons,
        format_breakdown,
        run_breakdown,
    )
    from repro.experiments.report import format_table

    sections = []
    for n_atoms in args.atoms or (64, 1024):
        study = run_breakdown(n_atoms, framework)
        sections.append(format_breakdown(study))
        sections.append(
            format_table(
                f"Fig. 7 quoted numbers, Si_{n_atoms}",
                breakdown_comparisons(study),
            )
        )
    return "\n\n".join(sections)


def _fig8(_args, framework) -> str:
    from repro.experiments.fig8_scalability import (
        format_scalability,
        run_scalability,
        scalability_comparisons,
    )
    from repro.experiments.report import format_table

    study = run_scalability(framework=framework)
    return (
        format_scalability(study)
        + "\n\n"
        + format_table("Fig. 8 quoted numbers", scalability_comparisons(study))
    )


def _discussion(_args, framework) -> str:
    from repro.experiments.discussion import run_discussion
    from repro.experiments.report import format_table

    return format_table(
        "§VI-A discussion numbers", run_discussion(framework).comparisons()
    )


def _ablations(args, framework) -> str:
    from repro.experiments.ablations import (
        run_granularity_ablation,
        run_policy_ablation,
        run_shared_memory_ablation,
    )

    n_atoms = (args.atoms or [1024])[0]
    lines = [f"Offload-granularity Eq. 1 overhead (Si_{n_atoms}):"]
    for name, seconds in run_granularity_ablation(n_atoms, framework).items():
        lines.append(f"  {name:<12s} {seconds:12.6f} s")
    lines.append(f"\nScheduling-policy totals (Si_{n_atoms}):")
    for name, seconds in run_policy_ablation(n_atoms, framework).totals.items():
        lines.append(f"  {name:<12s} {seconds:10.4f} s")
    shmem = run_shared_memory_ablation()
    lines.append(
        "\nShared-memory functional ablation (Si_16): "
        f"-{shmem.memory_reduction_percent:.1f}% memory, "
        f"filter effective: {shmem.filter_effective}"
    )
    return "\n".join(lines)


def _sensitivity(args, _framework) -> str:
    from repro.experiments.sensitivity import (
        format_sweep,
        sweep_host_link_bandwidth,
        sweep_mesh_link_bandwidth,
        sweep_stack_count,
        sweep_units_per_stack,
    )

    n_atoms = (args.atoms or [1024])[0]
    return "\n\n".join(
        [
            format_sweep(
                "Mesh link bandwidth sweep (B/s):",
                sweep_mesh_link_bandwidth(n_atoms),
            ),
            format_sweep("Stack count sweep:", sweep_stack_count(n_atoms)),
            format_sweep(
                "Host link bandwidth sweep (B/s):",
                sweep_host_link_bandwidth(n_atoms),
            ),
            format_sweep(
                "NDP units per stack sweep:", sweep_units_per_stack(n_atoms)
            ),
        ]
    )


def _batch(args, framework) -> str:
    from repro.experiments.batch_throughput import (
        DEFAULT_BATCH_SIZES,
        format_batch,
        run_batch_study,
    )

    policy = SchedulingPolicy(args.policy)
    if policy is not framework.policy:
        framework = NdftFramework(policy=policy)
    sizes = tuple(args.atoms) if args.atoms else DEFAULT_BATCH_SIZES
    header = f"scheduling policy: {policy.value}\n"
    return header + format_batch(
        run_batch_study(
            sizes,
            framework,
            arrival_rate=args.arrival_rate,
            arrival_seed=args.arrival_seed,
            admission=_admission_policy(args),
        )
    )


def _serve_bench(args, framework) -> str:
    from repro.experiments.scale_serving import (
        DEFAULT_ARRIVAL_RATE,
        DEFAULT_BATCH_SIZES,
        DEFAULT_MIX,
        DEFAULT_SWEEP_RATES,
        format_serve_bench,
        run_fleet_bench,
        run_serve_bench,
    )

    batch_sizes = (
        tuple(args.batch_sizes) if args.batch_sizes else DEFAULT_BATCH_SIZES
    )
    mix = tuple(args.atoms) if args.atoms else DEFAULT_MIX
    cached = not args.no_cache
    arrival_rate = (
        DEFAULT_ARRIVAL_RATE if args.arrival_rate is None else args.arrival_rate
    )
    arrival_sweep_rates = None
    if args.arrival_sweep is not None:
        arrival_sweep_rates = (
            tuple(args.arrival_sweep) if args.arrival_sweep else DEFAULT_SWEEP_RATES
        )
    faults, retry = _fault_setup(args, framework)
    if args.replicas is not None:
        from repro.errors import ConfigError

        if args.replicas < 1:
            raise ConfigError(
                f"--replicas needs a positive fleet size, got {args.replicas}"
            )
        incompatible = [
            flag
            for flag, given in (
                ("--no-cache", args.no_cache),
                ("--arrival-sweep", arrival_sweep_rates is not None),
                ("--slo-p99/--max-queue-depth", _admission_policy(args)),
                ("fault injection", faults is not None or args.checkpoint),
            )
            if given
        ]
        if incompatible:
            raise ConfigError(
                "--replicas measures the fleet fast path only; "
                f"incompatible with {', '.join(incompatible)}"
            )
        report = run_fleet_bench(
            batch_sizes=batch_sizes,
            mix=mix,
            repeats=args.repeats,
            replicas=args.replicas,
            arrival_rate=arrival_rate,
            arrival_seed=args.arrival_seed,
            backend=args.backend,
        )
        path = report.write_json(args.json) if args.json else report.write_json()
        return format_serve_bench(report) + f"\nwrote {path}"
    report = run_serve_bench(
        batch_sizes=batch_sizes,
        mix=mix,
        repeats=args.repeats,
        cached=cached,
        arrival_rate=arrival_rate,
        arrival_seed=args.arrival_seed,
        backend=args.backend,
        arrival_sweep_rates=arrival_sweep_rates,
        admission=_admission_policy(args),
        faults=faults,
        retry=retry,
    )
    path = report.write_json(args.json) if args.json else report.write_json()
    return format_serve_bench(report, cached=cached) + f"\nwrote {path}"


_COMMANDS = {
    "fig4": _fig4,
    "table1": _table1,
    "fig7": _fig7,
    "fig8": _fig8,
    "discussion": _discussion,
    "ablations": _ablations,
    "sensitivity": _sensitivity,
    "batch": _batch,
    "serve-bench": _serve_bench,
}

#: Wall-clock measurements of the host machine, not paper artifacts:
#: excluded from ``all`` so the paper regeneration stays reproducible.
_EXCLUDED_FROM_ALL = frozenset({"serve-bench"})


def main(argv: list[str] | None = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if arguments and arguments[0] == "lint":
        # The invariant analyzer has its own flag set (paths, --format,
        # --rules, --baseline, ...); hand the rest of argv straight to
        # its parser instead of threading it through the artifact one.
        from repro.analysis.runner import main as lint_main

        return lint_main(arguments[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the NDFT paper's tables and figures.",
    )
    parser.add_argument(
        "artifact",
        choices=[*sorted(_COMMANDS), "all"],
        help="which artifact to regenerate",
    )
    parser.add_argument(
        "--atoms",
        type=int,
        nargs="*",
        help=(
            "system size(s) for fig7/ablations/sensitivity; for batch, the "
            "full job mix to serve concurrently (repeats allowed, e.g. "
            "--atoms 64 64 512 1024); for serve-bench, the distinct sizes "
            "mixed round-robin into each batch"
        ),
    )
    parser.add_argument(
        "--policy",
        choices=[p.value for p in SchedulingPolicy],
        default=SchedulingPolicy.COST_AWARE.value,
        help="scheduling policy for batch (default: cost_aware)",
    )
    parser.add_argument(
        "--batch-sizes",
        type=int,
        nargs="*",
        help=(
            "serve-bench: batch sizes to sweep "
            "(default: 16 64 256 1024 4096 16384 65536)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help=(
            "serve-bench: measure only the memoization-free baseline "
            "(the 'before' path) instead of fast-path-vs-baseline"
        ),
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="serve-bench: wall-clock repeats per point (best-of, default 3)",
    )
    parser.add_argument(
        "--arrival-rate",
        type=float,
        default=None,
        help=(
            "open-queue serving: release jobs by a seeded Poisson process "
            "at this offered load (jobs per second of virtual time). "
            "batch: off unless given; serve-bench: defaults to 2.0, "
            "pass 0 to disable the open-queue measurement"
        ),
    )
    parser.add_argument(
        "--arrival-seed",
        type=int,
        default=0,
        help="seed for the Poisson arrival process (default 0)",
    )
    parser.add_argument(
        "--arrival-sweep",
        type=float,
        nargs="*",
        default=None,
        help=(
            "serve-bench: sweep --arrival-rate over this grid of offered "
            "loads (jobs per second of virtual time), recording the "
            "latency-vs-load curve and the saturation knee in "
            "BENCH_serving.json; pass with no values for the default "
            "grid (1.0 2.0 3.0 3.5 4.0 5.0)"
        ),
    )
    parser.add_argument(
        "--slo-p99",
        type=float,
        default=None,
        help=(
            "batch/serve-bench admission control: shed (or deprioritize) "
            "open-queue arrivals whose predicted completion latency "
            "(solo-time estimate + lane backlog) exceeds this many "
            "seconds of virtual time; requires an arrival process"
        ),
    )
    parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        help=(
            "batch/serve-bench admission control: bound on admitted "
            "in-flight jobs at any arrival instant"
        ),
    )
    parser.add_argument(
        "--admission-mode",
        choices=["shed", "deprioritize"],
        default="shed",
        help=(
            "what to do with over-SLO arrivals: shed (reject outright, "
            "default) or deprioritize (defer behind the backlog, "
            "excluded from the SLO percentiles)"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=_backend_choices(),
        default=None,
        help=(
            "serve-bench: force one simulation backend for every batch "
            "(default: the first backend in the batch's selection order "
            "that accepts it) — the replay-vs-engine A/B switch"
        ),
    )
    parser.add_argument(
        "--mtbf",
        type=float,
        default=None,
        help=(
            "serve-bench fault injection: mean virtual seconds between "
            "lane outages (off unless given; see repro.core.faults)"
        ),
    )
    parser.add_argument(
        "--mttr",
        type=float,
        default=1.0,
        help=(
            "serve-bench fault injection: mean outage duration in "
            "virtual seconds (default 1.0)"
        ),
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the fault plan's outage draw (default 0)",
    )
    parser.add_argument(
        "--fault-horizon",
        type=float,
        default=60.0,
        help=(
            "virtual-time horizon the fault plan covers (default 60.0 "
            "seconds; one plan is drawn once and applied to every "
            "open-queue measurement)"
        ),
    )
    parser.add_argument(
        "--fault-lanes",
        nargs="+",
        default=["ndp"],
        help=(
            "lanes the fault plan draws outages over (default: ndp; "
            "device lanes cpu/ndp/gpu or wire lanes like link:cpu-ndp; "
            "validated against the lanes the configured system exposes)"
        ),
    )
    parser.add_argument(
        "--shock-rate",
        type=float,
        default=None,
        help=(
            "serve-bench fault injection: mean correlated shocks per "
            "virtual second — each shock takes a whole lane group down "
            "at once (off unless given)"
        ),
    )
    parser.add_argument(
        "--shock-groups",
        nargs="+",
        default=None,
        help=(
            "lane groups a shock strikes, one comma-separated group per "
            "argument (e.g. 'ndp,link:cpu-ndp' cpu); default: one group "
            "of every lane the system exposes (a full-fleet shock)"
        ),
    )
    parser.add_argument(
        "--slowdown-factor",
        type=float,
        default=None,
        help=(
            "serve-bench fault injection: draw non-lethal slowdown "
            "windows (service times inflate by this factor, > 1.0) over "
            "--fault-lanes at the outage MTBF (off unless given)"
        ),
    )
    parser.add_argument(
        "--checkpoint",
        action="store_true",
        help=(
            "serve-bench fault injection: record completed-stage "
            "frontiers at failure and resume retries as residual "
            "pipelines (RetryPolicy(checkpoint=True))"
        ),
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=None,
        help=(
            "serve-bench: serve each batch with a fleet of this many "
            "worker-process replicas behind the backlog-aware router "
            "(shared warm snapshot, sustained over several rounds); "
            "incompatible with --no-cache, --arrival-sweep, admission "
            "and fault flags"
        ),
    )
    parser.add_argument(
        "--json",
        help="serve-bench: output path for BENCH_serving.json "
        "(default: repo root)",
    )
    args = parser.parse_args(argv)

    framework = NdftFramework()
    names = (
        sorted(name for name in _COMMANDS if name not in _EXCLUDED_FROM_ALL)
        if args.artifact == "all"
        else [args.artifact]
    )
    for name in names:
        print(f"\n===== {name} =====")
        print(_COMMANDS[name](args, framework))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
