"""CI trend gate for the serving benchmark.

``BENCH_serving.json`` anchors the serving performance trajectory: the
committed file is the previous PR's measurement, and CI regenerates a
fresh one on every run.  This module compares the two at matching batch
sizes and fails (exit code 1) when the fresh cached throughput regresses
by more than the tolerance at *any* shared batch size — the tripwire
that keeps "the simulator got slower" from sliding in unnoticed.

Two trend signals, because wall-clock numbers are host-specific:

- **wall_speedup** (uncached wall over cached wall, measured within one
  run) is host-relative, so it is gated *unconditionally* — a fast path
  that lost ground against its own baseline fails CI no matter which
  machine committed the reference;
- **absolute cached throughput** (jobs/s) only trends within one host
  class, so it is gated only when the two files' hosts are comparable
  (same Python major.minor, architecture and CPU count — not the exact
  kernel build, which churns with runner images); on a mismatch the
  deltas are printed as advisory context instead.

The open-queue block is gated too: **p99 completion latency** (virtual
seconds, from each point's ``arrival`` measurement) fails CI when the
fresh p99 *grows* beyond the tolerance at any shared batch size — but
only when the two measurements are actually comparable: same host class
(the throughput gate's refusal rules) and the same offered load and
arrival seed (a different Poisson process is a different experiment,
not a regression).

Fault-injected files trend their resilience numbers the same way: when
both reports carry *matching* fault descriptors (a mismatch refuses the
whole comparison, see below), **availability** and **goodput** fail CI
when the fresh value *drops* beyond the tolerance at any shared batch
size, under the same host-class and same-arrival-process rules as
throughput — the tripwire that keeps "recovery got worse under the
same fault plan" from sliding in unnoticed.

The arrival sweep's **knee dominant lane** is pinned as well: when both
files swept the same load grid (same seed, batch size and rates) and
both located a knee at the same rate, the most-utilized device/wire
lane at the knee must not silently change identity — "the NDP units saturate first"
turning into "the CXL link saturates first" is a modeling regression
even when every latency still passes.  Lane utilization is virtual-time
accounting, so this gate applies across host classes.

Fields added by later PRs — the per-point ``backend_jobs``,
``backend_wall_seconds`` and the extended batch axis — are *advisory*:
comparisons run over the shared batch sizes only, every lookup is
``dict.get``-based, and a committed baseline predating a field (or a
point whose uncached comparison was skipped past
``UNCACHED_COMPARE_MAX``, leaving ``wall_speedup`` ``null``) simply
skips that gate rather than failing — absent is never a regression.

Structural problems — no shared batch sizes, files measured under
*different admission policies* or *different fault plans* (shed rates,
post-shed latencies, availability and retry-inflated latencies from one
regime cannot be trended against another's, mirroring the
forced-backend refusal; a missing ``faults`` key reads as faults-off),
or files measured with *different fleet sizes* (``--replicas``: a
4-replica aggregate is legitimately several times the single-process
throughput, so trending the two against each other produces spurious
verdicts in both directions; a missing ``replicas`` key reads as 1) —
are refused outright regardless of host metadata.  When both files
carry the *same* replica count, the fleet aggregate throughput rides
the ordinary ``jobs_per_second_cached`` host-class gate.  The
comparison is deliberately coarse (default: 30 % regression, on
best-of-N minima) and the verdict prints both files' host metadata.

Usage::

    python -m repro.experiments.bench_compare COMMITTED.json FRESH.json
    python -m repro.experiments.bench_compare a.json b.json --max-regression 0.5
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import ConfigError

#: Maximum tolerated drop of ``jobs_per_second_cached``: fresh must be
#: at least ``(1 - MAX_REGRESSION) * committed`` at every shared size.
DEFAULT_MAX_REGRESSION = 0.30


def _points_by_batch_size(report: dict) -> dict[int, dict]:
    return {point["batch_size"]: point for point in report.get("points", ())}


def _differing_keys(a: dict, b: dict) -> list[str]:
    """Sorted keys whose values differ, a key absent on one side
    included."""
    return sorted(
        key
        for key in a.keys() | b.keys()
        if key not in a or key not in b or a[key] != b[key]
    )


def _fault_plan_label(descriptor: dict | None) -> str:
    """A fault descriptor named compactly, by its timeline's digest."""
    if not descriptor:
        return "off"
    digest = (descriptor.get("plan") or {}).get("digest")
    return f"plan {digest}" if digest else "on"


#: The settings that make two reports different experiments, not two
#: points of one trend (an engine-forced sweep is several times slower;
#: the module docstring gives the other reasons), as (report key, how a
#: refusal names them, what a missing or null key reads as: a file
#: predating the key was measured without the setting).  A fault
#: descriptor holds its components' provenance and its timeline's
#: digest, so two explicit plans compare by content.
_EXPERIMENT_SETTINGS = (
    ("backend", "under different simulation backends ({} vs {})", "auto"),
    ("admission", "under different admission policies ({} vs {})", "off"),
    ("faults", "under different fault plans ({} vs {})", None),
    ("replicas", "with different fleet sizes ({} vs {} replicas)", 1),
)


def _version_minor(version: str | None) -> str | None:
    if version is None:
        return None
    return ".".join(str(version).split(".")[:2])


def hosts_comparable(committed: dict, fresh: dict) -> bool:
    """Whether absolute jobs/s can be trended between the two reports.

    Comparable means same Python major.minor, machine architecture and
    CPU count — deliberately *not* the exact platform string, whose
    kernel build changes with every runner-image update.  Files without
    metadata (older format) are treated as comparable, keeping the gate
    conservative."""
    meta_a = committed.get("metadata") or {}
    meta_b = fresh.get("metadata") or {}
    if not meta_a or not meta_b:
        return True
    return (
        _version_minor(meta_a.get("python")) == _version_minor(meta_b.get("python"))
        and meta_a.get("machine") == meta_b.get("machine")
        and meta_a.get("cpu_count") == meta_b.get("cpu_count")
    )


def compare_serving_reports(
    committed: dict,
    fresh: dict,
    max_regression: float = DEFAULT_MAX_REGRESSION,
    hosts_match: bool | None = None,
) -> list[str]:
    """Regression messages, empty when the fresh run passes.

    Only batch sizes present in *both* reports are compared (CI sweeps a
    subset of the committed sizes).  ``wall_speedup`` — host-relative —
    is gated unconditionally; absolute cached throughput is gated only
    when ``hosts_match`` (default: derived via :func:`hosts_comparable`).
    A sweep with no shared sizes is always a failure: the gate is
    misconfigured, not passing."""
    if not 0.0 <= max_regression < 1.0:
        raise ConfigError(
            f"max_regression must be in [0, 1), got {max_regression}"
        )
    if hosts_match is None:
        hosts_match = hosts_comparable(committed, fresh)
    for key, what, default in _EXPERIMENT_SETTINGS:
        before = committed.get(key) or default
        after = fresh.get(key) or default
        if before == after:
            continue
        if key == "faults":
            label, fresh_label = _fault_plan_label(before), _fault_plan_label(after)
            if label == fresh_label and label.startswith("plan "):
                # One timeline, described differently: name what differs.
                differing = [
                    f"{part}.{name}"
                    for part in ("plan", "retry")
                    for name in _differing_keys(
                        before.get(part) or {}, after.get(part) or {}
                    )
                ]
                return [
                    "committed and fresh reports share the fault timeline of "
                    f"{label}, but their fault descriptors differ in "
                    f"{', '.join(differing)}; they cannot be trended against "
                    "each other"
                ]
            before, after = label, fresh_label
        return [
            "committed and fresh reports were measured "
            f"{what.format(before, after)} and cannot be trended against "
            "each other"
        ]
    failures = []
    knee_lanes = _comparable_knee_lanes(committed, fresh)
    if knee_lanes is not None and knee_lanes[0] != knee_lanes[1]:
        failures.append(
            "the saturation knee's dominant lane changed from "
            f"{knee_lanes[0]!r} to {knee_lanes[1]!r} at matching sweep "
            "conditions — the bottleneck silently changed class"
        )
    committed_points = _points_by_batch_size(committed)
    fresh_points = _points_by_batch_size(fresh)
    shared = sorted(set(committed_points) & set(fresh_points))
    if not shared:
        return ["no shared batch sizes between committed and fresh reports"]
    for batch_size in shared:
        point_before = committed_points[batch_size]
        point_after = fresh_points[batch_size]
        speedup_before = point_before.get("wall_speedup")
        speedup_after = point_after.get("wall_speedup")
        if speedup_before is not None and speedup_after is not None:
            if speedup_after < speedup_before * (1.0 - max_regression):
                failures.append(
                    f"batch {batch_size}: fast-path speedup over the "
                    f"uncached baseline regressed {speedup_before:.2f}x -> "
                    f"{speedup_after:.2f}x "
                    f"({speedup_after / speedup_before - 1.0:+.1%}, "
                    f"tolerance -{max_regression:.0%})"
                )
        if not hosts_match:
            continue
        before = point_before.get("jobs_per_second_cached")
        after = point_after.get("jobs_per_second_cached")
        if before is not None and after is not None:
            if after < before * (1.0 - max_regression):
                failures.append(
                    f"batch {batch_size}: cached throughput regressed "
                    f"{before:.1f} -> {after:.1f} jobs/s "
                    f"({after / before - 1.0:+.1%}, "
                    f"tolerance -{max_regression:.0%})"
                )
        p99_pair = _comparable_arrival(
            point_before, point_after, "p99_latency_seconds"
        )
        if p99_pair is not None and p99_pair[0] > 0:
            p99_before, p99_after = p99_pair
            if p99_after > p99_before * (1.0 + max_regression):
                failures.append(
                    f"batch {batch_size}: open-queue p99 latency regressed "
                    f"{p99_before:.4f} -> {p99_after:.4f} s "
                    f"({p99_after / p99_before - 1.0:+.1%}, "
                    f"tolerance +{max_regression:.0%})"
                )
        resilience_pair = _comparable_arrival(
            point_before, point_after, "resilience"
        )
        if resilience_pair is not None:
            res_before, res_after = resilience_pair
            for metric, label, unit in (
                ("availability", "availability", ""),
                ("goodput", "goodput", " jobs/s"),
            ):
                before_value = res_before.get(metric)
                after_value = res_after.get(metric)
                if (
                    before_value is None
                    or after_value is None
                    or not before_value > 0
                ):
                    continue
                if after_value < before_value * (1.0 - max_regression):
                    failures.append(
                        f"batch {batch_size}: fault-injected {label} "
                        f"regressed {before_value:.4g} -> "
                        f"{after_value:.4g}{unit} "
                        f"({after_value / before_value - 1.0:+.1%}, "
                        f"tolerance -{max_regression:.0%})"
                    )
    return failures


def _comparable_knee_lanes(
    committed: dict, fresh: dict
) -> tuple[str, str] | None:
    """Both files' knee dominant lanes, when their arrival sweeps can be
    trended against each other: both present, both located a knee with
    a recorded dominant lane, the same seed, batch size and rate grid
    (a different sweep is a different experiment), and the *same knee
    rate* — two knees at different rates are different operating
    points, so their dominant lanes are not comparable.  Lane identity
    is virtual-time accounting, so host class does not matter."""
    sweep_before = committed.get("arrival_sweep") or {}
    sweep_after = fresh.get("arrival_sweep") or {}
    before = sweep_before.get("knee_dominant_lane")
    after = sweep_after.get("knee_dominant_lane")
    if before is None or after is None:
        return None
    if sweep_before.get("seed") != sweep_after.get("seed") or sweep_before.get(
        "batch_size"
    ) != sweep_after.get("batch_size"):
        return None
    if sweep_before.get("knee_rate_jobs_per_second") != sweep_after.get(
        "knee_rate_jobs_per_second"
    ):
        return None
    rates_before = [
        p.get("rate_jobs_per_second") for p in sweep_before.get("points", ())
    ]
    rates_after = [
        p.get("rate_jobs_per_second") for p in sweep_after.get("points", ())
    ]
    if rates_before != rates_after:
        return None
    return before, after


def _comparable_arrival(point_before: dict, point_after: dict, key: str):
    """Both points' values of one key of their open-queue ``arrival``
    blocks (``p99_latency_seconds``, ``resilience``), when the two
    measurements can be trended against each other: both present and
    the same offered load and arrival seed (a changed rate or seed is a
    different experiment); ``None`` otherwise.  The top-level fault
    descriptor already matched (a mismatch refuses the whole
    comparison), so two resilience blocks measure the same fault
    plan."""
    arrival_before = point_before.get("arrival") or {}
    arrival_after = point_after.get("arrival") or {}
    before = arrival_before.get(key)
    after = arrival_after.get(key)
    if before is None or after is None:
        return None
    if arrival_before.get("rate_jobs_per_second") != arrival_after.get(
        "rate_jobs_per_second"
    ) or arrival_before.get("seed") != arrival_after.get("seed"):
        return None
    return before, after


def format_comparison(
    committed: dict, fresh: dict, failures: list[str]
) -> str:
    hosts_match = hosts_comparable(committed, fresh)
    lines = ["serving benchmark trend check"]
    for name, report in (("committed", committed), ("fresh", fresh)):
        meta = report.get("metadata") or {}
        context = ", ".join(
            f"{key}={meta[key]}"
            for key in ("python", "platform", "cpu_count")
            if key in meta
        )
        lines.append(f"  {name}: {context or 'no host metadata recorded'}")
    if not hosts_match:
        lines.append(
            "  hosts differ: absolute jobs/s shown for context only; "
            "gating on wall_speedup (host-relative)"
        )
    committed_points = _points_by_batch_size(committed)
    fresh_points = _points_by_batch_size(fresh)
    for batch_size in sorted(set(committed_points) & set(fresh_points)):
        before = committed_points[batch_size].get("jobs_per_second_cached")
        after = fresh_points[batch_size].get("jobs_per_second_cached")
        speedup_before = committed_points[batch_size].get("wall_speedup")
        speedup_after = fresh_points[batch_size].get("wall_speedup")
        if before and after:
            speedups = ""
            if speedup_before and speedup_after:
                speedups = (
                    f", speedup {speedup_before:.2f}x -> {speedup_after:.2f}x"
                )
            p99_pair = _comparable_arrival(
                committed_points[batch_size],
                fresh_points[batch_size],
                "p99_latency_seconds",
            )
            p99_note = ""
            if p99_pair is not None and p99_pair[0] > 0:
                p99_note = (
                    f", p99 {p99_pair[0]:.4f} -> {p99_pair[1]:.4f} s"
                )
            resilience_note = ""
            resilience_pair = _comparable_arrival(
                committed_points[batch_size],
                fresh_points[batch_size],
                "resilience",
            )
            if resilience_pair is not None:
                res_before, res_after = resilience_pair
                resilience_note = (
                    f", avail {res_before.get('availability', 0):.0%} -> "
                    f"{res_after.get('availability', 0):.0%}, goodput "
                    f"{res_before.get('goodput', 0):.2f} -> "
                    f"{res_after.get('goodput', 0):.2f}"
                )
            lines.append(
                f"  batch {batch_size:5d}: {before:10.1f} -> {after:10.1f} "
                f"jobs/s ({after / before - 1.0:+.1%}{speedups}{p99_note}"
                f"{resilience_note})"
            )
    if failures:
        lines.append("FAIL:")
        lines.extend(f"  {failure}" for failure in failures)
    else:
        lines.append("OK: no serving regression beyond tolerance")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when the fresh serving benchmark regresses "
        "against the committed one."
    )
    parser.add_argument("committed", type=Path, help="previous BENCH_serving.json")
    parser.add_argument("fresh", type=Path, help="freshly measured BENCH_serving.json")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=DEFAULT_MAX_REGRESSION,
        help="tolerated fractional throughput drop (default: 0.30)",
    )
    args = parser.parse_args(argv)
    reports = []
    for path in (args.committed, args.fresh):
        # A missing or malformed input is a usage error (exit 2), which
        # CI must not mistake for a regression (exit 1).
        try:
            report = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read {path}: {exc}")
        if not isinstance(report, dict):
            parser.error(f"cannot read {path}: not a JSON object")
        reports.append(report)
    committed, fresh = reports
    try:
        failures = compare_serving_reports(committed, fresh, args.max_regression)
    except ConfigError as exc:
        parser.error(str(exc))
    print(format_comparison(committed, fresh, failures))
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
