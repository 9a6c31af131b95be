"""Deterministic fault injection and retry policies for the serving stack.

A :class:`FaultPlan` describes *when lanes break* in virtual time:

- **transient outages** — half-open windows ``[start, end)`` during which
  a lane (a device lane such as ``"ndp"`` or a wire lane such as
  ``"link:cpu-ndp"``) is unavailable.  A task granted the lane inside a
  window waits the window out; a window that *starts* while a task is in
  service kills the whole job at the window start (advance-knowledge,
  preemption-free semantics — see
  :func:`repro.hw.engine.resolve_degraded_service`).
- **permanent failures** — a device lane dies at time ``t`` and never
  comes back.  Jobs released after the death are re-placed through the
  exact scheduling DP with the dead target excluded (graceful
  degradation, e.g. NDP → CPU).
- **slowdown windows** (:class:`SlowdownWindow`) — partial degradation:
  during ``[start, end)`` the lane serves at ``1/factor`` of its
  nominal rate, so services overlapping the window accrue piecewise-
  inflated durations instead of dying (see
  :func:`repro.hw.engine.inflate_service`).  Slowdowns never kill a
  job on their own, but the inflated span *is* what the outage and
  permanent-death checks run against.

Plans compose: :meth:`FaultPlan.merge` unions two plans' timelines
(re-normalizing per lane), which is how the correlated-shock process of
:func:`shock_fault_plan` — one shared seeded clock striking whole lane
*groups* at once — layers on top of independent per-lane
:func:`poisson_fault_plan` windows and :func:`slowdown_fault_plan`
degradation.  Each drawing helper records its name and keyword
arguments in the plan's ``provenance``, and a merge concatenates the
records in call order, so a composed plan's JSON descriptor redraws it:
call each record's helper with its parameters and merge the results.

Plans are plain data and deterministic: the same plan (or the same
``seed`` via the drawing helpers) always yields the same failure set,
retry schedule, and final report.  An *empty* plan is contractually
bit-identical to passing no plan at all — like a plan on lanes a batch
never occupies, it compiles to a batch without a plan, so all three
simulation backends keep producing the exact same floats.  Every time
and rate a plan holds is finite.

:class:`RetryPolicy` governs what happens after a failure: a failed job
re-enters the open queue at ``fail_time + backoff(attempt)`` with
exponential backoff in virtual time (clamped at ``backoff_max`` when
set), up to ``max_attempts`` tries and an optional per-job timeout.
``checkpoint=True`` additionally records each failed run's completed-
stage frontier, so the retry re-enters as a *residual pipeline* (the
suffix past the checkpoint) instead of redoing finished work.
:class:`ResilienceReport`, surfaced on ``NdftBatchResult.resilience``,
holds the retry loop's attempts as columns; an :class:`AttemptRecord`
is built from them only when a caller reads ``attempts``.
"""

from __future__ import annotations

import hashlib
import numbers
import random
from dataclasses import asdict, dataclass
from math import inf, isfinite

from repro.errors import ConfigError
from repro.stats import percentile

__all__ = [
    "FaultPlan",
    "SlowdownWindow",
    "RetryPolicy",
    "RunFailure",
    "AttemptRecord",
    "ResilienceReport",
    "poisson_fault_plan",
    "shock_fault_plan",
    "slowdown_fault_plan",
]

_WIRE_PREFIX = "link:"


def _positive_finite(name: str, value) -> None:
    """Refuse a drawing parameter that is not a finite positive number:
    an infinite horizon or rate would never end the draw, and an
    infinite ``mtbf``/``mttr`` has no exponential clock."""
    if not (isfinite(value) and value > 0.0):
        raise ConfigError(f"{name} must be finite and > 0, got {value!r}")


def _normalize_outages(
    outages: tuple[tuple[str, float, float], ...],
    dead: dict[str, float],
) -> tuple[tuple[str, float, float], ...]:
    """Sort, merge, and clamp transient windows per lane."""
    by_lane: dict[str, list[tuple[float, float]]] = {}
    for entry in outages:
        try:
            lane, start, end = entry
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"outage entries must be (lane, start, end) triples, got {entry!r}"
            ) from exc
        lane = str(lane)
        start = float(start)
        end = float(end)
        if not (0.0 <= start < end < inf):
            raise ConfigError(
                f"outage window on lane {lane!r} must satisfy 0 <= start < end, "
                f"both finite, got [{start}, {end})"
            )
        by_lane.setdefault(lane, []).append((start, end))
    normalized: list[tuple[str, float, float]] = []
    for lane in sorted(by_lane):
        dead_at = dead.get(lane)
        merged: list[list[float]] = []
        for start, end in sorted(by_lane[lane]):
            if dead_at is not None:
                # Windows at or past the permanent death are redundant:
                # the lane is already gone.
                if start >= dead_at:
                    continue
                end = min(end, dead_at)
                if end <= start:
                    continue
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        normalized.extend((lane, start, end) for start, end in merged)
    return tuple(normalized)


@dataclass(frozen=True)
class SlowdownWindow:
    """Partial degradation of one lane: during ``[start, end)`` the lane
    serves at ``1/factor`` of its nominal rate.

    Unlike an outage, a slowdown never kills a job — a service
    overlapping the window accrues a piecewise-inflated wall duration
    (:func:`repro.hw.engine.inflate_service`) and completes late.
    ``factor`` must be > 1.0: a factor of 1.0 is a no-op that would
    still route its batch off the replay backends, and a factor below
    1.0 would be a speedup, not a degradation.
    """

    lane: str
    start: float
    end: float
    factor: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lane", str(self.lane))
        object.__setattr__(self, "start", float(self.start))
        object.__setattr__(self, "end", float(self.end))
        object.__setattr__(self, "factor", float(self.factor))
        if not (0.0 <= self.start < self.end < inf):
            raise ConfigError(
                f"slowdown window on lane {self.lane!r} must satisfy "
                f"0 <= start < end, both finite, got [{self.start}, {self.end})"
            )
        if not (1.0 < self.factor < inf):
            raise ConfigError(
                f"slowdown factor on lane {self.lane!r} must be finite and "
                f"> 1.0 (an inflation), got {self.factor}"
            )


def _normalize_slowdowns(
    slowdowns,
    dead: dict[str, float],
) -> tuple[SlowdownWindow, ...]:
    """Sort and clamp slowdown windows per lane; reject overlaps.

    Overlapping slowdowns on one lane have no defined composite rate
    (factors do not merge the way outage windows union), so they are a
    configuration error rather than silently combined.  Windows at or
    past the lane's permanent death are dropped; windows spanning it
    are clamped — a dead lane cannot be slow.
    """
    by_lane: dict[str, list[SlowdownWindow]] = {}
    for entry in slowdowns:
        if not isinstance(entry, SlowdownWindow):
            try:
                lane, start, end, factor = entry
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    "slowdown entries must be SlowdownWindow or "
                    f"(lane, start, end, factor), got {entry!r}"
                ) from exc
            entry = SlowdownWindow(lane, start, end, factor)
        by_lane.setdefault(entry.lane, []).append(entry)
    normalized: list[SlowdownWindow] = []
    for lane in sorted(by_lane):
        dead_at = dead.get(lane)
        previous_end = None
        for window in sorted(
            by_lane[lane], key=lambda w: (w.start, w.end)
        ):
            if dead_at is not None:
                if window.start >= dead_at:
                    continue
                if window.end > dead_at:
                    window = SlowdownWindow(
                        lane, window.start, dead_at, window.factor
                    )
            if previous_end is not None and window.start < previous_end:
                raise ConfigError(
                    f"slowdown windows on lane {lane!r} overlap at "
                    f"{window.start}: overlapping factors have no "
                    "defined composite rate"
                )
            previous_end = window.end
            normalized.append(window)
    return tuple(normalized)


def _drawn(helper: str, **params) -> tuple:
    """A drawing helper's provenance: its name and keyword arguments,
    so ``getattr(faults, helper)(**dict(params))`` draws it again."""
    return ((helper, tuple(params.items())),)


def _json_native(value):
    """Tuples as lists, recursively, as JSON loads them back."""
    return [_json_native(v) for v in value] if isinstance(value, tuple) else value


#: The timeline row of a lane without fault events.
_NO_EVENTS: tuple = ((), (), None)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of lane outages and permanent failures.

    ``outages`` holds ``(lane, start, end)`` transient windows over device
    or wire lanes; ``permanent`` holds ``(lane, dead_at)`` pairs over
    *device* lanes only (a dead wire would partition the machine rather
    than degrade it, so permanent wire failures are rejected);
    ``slowdowns`` holds :class:`SlowdownWindow` partial-degradation
    windows (plain ``(lane, start, end, factor)`` tuples are accepted
    too).  Everything is normalized on construction: sorted, merged
    (outages) or overlap-rejected (slowdowns) per lane, and clamped at
    the lane's permanent death time.  ``provenance`` holds one
    ``(helper, params)`` record per drawing-helper call that built the
    plan, ``params`` being that call's ``(keyword, value)`` pairs;
    :meth:`merge` concatenates the records, and a plan built from
    explicit windows has none (its digest identifies it).
    """

    outages: tuple[tuple[str, float, float], ...] = ()
    permanent: tuple[tuple[str, float], ...] = ()
    slowdowns: tuple[SlowdownWindow, ...] = ()
    provenance: tuple[tuple[str, tuple[tuple[str, object], ...]], ...] = ()

    def __post_init__(self) -> None:
        dead: dict[str, float] = {}
        for entry in self.permanent:
            try:
                lane, dead_at = entry
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"permanent entries must be (lane, dead_at) pairs, got {entry!r}"
                ) from exc
            lane = str(lane)
            dead_at = float(dead_at)
            if lane.startswith(_WIRE_PREFIX):
                raise ConfigError(
                    f"permanent failure on wire lane {lane!r} is not supported: "
                    "a dead link partitions the machine instead of degrading it "
                    "(use a transient outage window instead)"
                )
            if not 0.0 <= dead_at < inf:
                raise ConfigError(
                    f"permanent failure time for lane {lane!r} must be finite "
                    f"and >= 0, got {dead_at}"
                )
            if lane in dead:
                dead_at = min(dead_at, dead[lane])
            dead[lane] = dead_at
        object.__setattr__(self, "permanent", tuple(sorted(dead.items())))
        object.__setattr__(self, "outages", _normalize_outages(self.outages, dead))
        object.__setattr__(
            self, "slowdowns", _normalize_slowdowns(self.slowdowns, dead)
        )
        # One (windows, slowdowns, dead_at) row per lane with an event.
        rows = {lane: ([], [], dead_at) for lane, dead_at in self.permanent}
        for lane, start, end in self.outages:
            rows.setdefault(lane, ([], [], None))[0].append((start, end))
        for w in self.slowdowns:
            row = rows.setdefault(w.lane, ([], [], None))
            row[1].append((w.start, w.end, w.factor))
        timelines = {
            lane: (tuple(windows), tuple(slow), dead_at)
            for lane, (windows, slow, dead_at) in rows.items()
        }
        object.__setattr__(self, "_timelines", timelines)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when the plan carries no fault events at all."""
        return not self.outages and not self.permanent and not self.slowdowns

    @property
    def lanes(self) -> frozenset[str]:
        """All lanes with at least one fault event (slowdowns included)."""
        return frozenset(self._timelines)

    def affects(self, lanes) -> bool:
        """True when any of ``lanes`` carries a fault event — an outage
        window, a permanent death, or a slowdown window.  This is the
        executor's predicate for simulating a batch under the plan: a
        batch that occupies no affected lane runs exactly as without
        one."""
        timelines = self._timelines
        return any(lane in timelines for lane in lanes)

    def timeline(
        self, lane: str
    ) -> tuple[tuple, tuple, float | None] | None:
        """The lane's ``(windows, slowdowns, dead_at)`` arguments for
        :func:`repro.hw.engine.resolve_degraded_service`, or ``None``
        when the lane carries no fault event (its services run exactly
        as on a healthy machine)."""
        return self._timelines.get(lane)

    def windows_for(self, lane: str) -> tuple[tuple[float, float], ...]:
        return self._timelines.get(lane, _NO_EVENTS)[0]

    def slowdowns_for(
        self, lane: str
    ) -> tuple[tuple[float, float, float], ...]:
        """The lane's ``(start, end, factor)`` slowdown spans, sorted
        and non-overlapping."""
        return self._timelines.get(lane, _NO_EVENTS)[1]

    def slowdown_lanes(self) -> frozenset[str]:
        """Lanes with at least one slowdown window."""
        return frozenset(window.lane for window in self.slowdowns)

    def dead_lanes(self) -> dict[str, float]:
        """Mapping of device lane -> permanent failure time."""
        return dict(self.permanent)

    def event_times(self) -> tuple[float, ...]:
        """Sorted distinct fault event times (window starts + deaths).

        Job failures can only be triggered at these instants, which
        bounds the retry fixpoint iteration in the framework.  Slowdown
        boundaries are deliberately absent: a slowdown inflates a
        service but never kills it, so it cannot create a retry.
        """
        times = {start for _lane, start, _end in self.outages}
        times.update(dead_at for _lane, dead_at in self.permanent)
        return tuple(sorted(times))

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def merge(self, other: "FaultPlan") -> "FaultPlan":
        """Union of two plans' fault timelines, re-normalized per lane.

        Outage windows concatenate and re-merge; permanent deaths keep
        the earliest per lane; slowdown windows concatenate (overlaps
        across the two plans are rejected, as within one plan).  This
        is how a correlated-shock plan (:func:`shock_fault_plan`)
        composes with independent :func:`poisson_fault_plan` windows.
        The provenance records concatenate, this plan's first.
        """
        return FaultPlan(
            outages=self.outages + other.outages,
            permanent=self.permanent + other.permanent,
            slowdowns=self.slowdowns + other.slowdowns,
            provenance=self.provenance + other.provenance,
        )

    # ------------------------------------------------------------------
    # Descriptors
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """Stable content hash of the normalized fault timeline.

        Slowdown-free plans hash exactly what they did before slowdowns
        existed, so pre-existing digests (committed benchmark
        descriptors) stay valid; any slowdown folds the normalized
        ``(lane, start, end, factor)`` spans into the payload.
        """
        timeline: tuple = (self.outages, self.permanent)
        if self.slowdowns:
            timeline = (
                self.outages,
                self.permanent,
                tuple(
                    (w.lane, w.start, w.end, w.factor)
                    for w in self.slowdowns
                ),
            )
        payload = repr(timeline).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]

    def to_json_dict(self) -> dict:
        """JSON-safe descriptor for benchmark reports.

        Two plans compare equal through this descriptor iff their
        normalized fault timelines and their provenance match —
        ``bench_compare`` uses it to refuse trending across mismatched
        plans, and to gate availability/goodput only at matching
        descriptors.  A composed plan (:meth:`merge`) is fully
        described: the digest covers the merged timeline, and
        ``provenance`` lists each drawn component as
        ``{"helper": name, **params}``, which redraws it.
        """
        return {
            "provenance": [
                {
                    "helper": helper,
                    **{key: _json_native(value) for key, value in params},
                }
                for helper, params in self.provenance
            ],
            "lanes": sorted(self.lanes),
            "n_outages": len(self.outages),
            "n_permanent": len(self.permanent),
            "n_slowdowns": len(self.slowdowns),
            "slowdown_lanes": sorted(self.slowdown_lanes()),
            "digest": self.digest(),
        }


@dataclass(frozen=True)
class RetryPolicy:
    """What happens after a fault kills a job.

    A failed job re-enters the open queue at
    ``fail_time + backoff(attempt)`` where
    ``backoff(k) = backoff_base * backoff_factor ** (k - 1)`` (exponential
    backoff in *virtual* time), for up to ``max_attempts`` total attempts.
    ``backoff_max`` (optional) caps the delay: the uncapped geometric
    series grows without bound, so a large ``max_attempts`` would release
    late retries at absurd virtual times — or overflow the power to
    ``inf`` outright.  ``job_timeout`` (optional) abandons a job once its
    next attempt would start more than ``job_timeout`` seconds after its
    original arrival.  ``max_attempts`` is an integer (``bool`` is not),
    and ``backoff_base`` and ``backoff_factor`` are finite, so every
    retry releases at a finite time; ``backoff_base`` must be strictly
    positive: retries releasing strictly after the failure that caused
    them is what makes the retry fixpoint converge.

    ``checkpoint=True`` turns retries into *resumes*: the frontier of
    stages the failed run had already completed is recorded at failure
    time, and the retry re-enters as the residual pipeline past that
    frontier (see :meth:`repro.core.framework.NdftFramework.run_many`),
    so finished work is never redone and ``job_timeout`` abandonment
    becomes far rarer.
    """

    max_attempts: int = 3
    backoff_base: float = 0.1
    backoff_factor: float = 2.0
    backoff_max: float | None = None
    job_timeout: float | None = None
    checkpoint: bool = False

    def __post_init__(self) -> None:
        if (
            isinstance(self.max_attempts, bool)
            or not isinstance(self.max_attempts, numbers.Integral)
            or self.max_attempts < 1
        ):
            raise ConfigError(
                f"max_attempts must be an integer >= 1, got {self.max_attempts!r}"
            )
        if not (isfinite(self.backoff_base) and self.backoff_base > 0.0):
            raise ConfigError(
                f"backoff_base must be finite and > 0 (retries must release "
                f"strictly after the failure), got {self.backoff_base!r}"
            )
        if not (isfinite(self.backoff_factor) and self.backoff_factor >= 1.0):
            raise ConfigError(
                f"backoff_factor must be finite and >= 1, got "
                f"{self.backoff_factor!r}"
            )
        if self.backoff_max is not None and not (
            self.backoff_max >= self.backoff_base
        ):
            raise ConfigError(
                f"backoff_max must be >= backoff_base "
                f"({self.backoff_base!r}) or None, got {self.backoff_max!r}"
            )
        if self.job_timeout is not None and not self.job_timeout > 0.0:
            raise ConfigError(
                f"job_timeout must be > 0 or None, got {self.job_timeout!r}"
            )

    def backoff(self, attempt: int) -> float:
        """Backoff delay after the ``attempt``-th (1-based) try failed,
        clamped at ``backoff_max`` when set (the clamp also absorbs a
        power that would otherwise overflow — CPython raises
        ``OverflowError`` for a float power past ~1e308 rather than
        returning ``inf``)."""
        try:
            delay = self.backoff_base * self.backoff_factor ** (attempt - 1)
        except OverflowError:
            delay = float("inf")
        if self.backoff_max is not None and delay > self.backoff_max:
            return self.backoff_max
        return delay

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RunFailure:
    """One simulated run killed by a fault event.

    ``job`` is the run's position in the ``execute_many`` submission
    list; ``time`` is the virtual fail time: the engine's float
    ``grant + (fail_time - grant)`` for a window start or permanent
    death during the task's service, or the grant itself for a death
    that came before the grant; ``kind`` is ``"outage"`` or
    ``"permanent"``.
    ``completed_stages`` is the sorted frontier of stages the run had
    fully finished before (or concurrently with) the failure — the
    checkpoint a ``RetryPolicy(checkpoint=True)`` resume starts past.
    """

    job: int
    time: float
    lane: str
    kind: str
    completed_stages: tuple[str, ...] = ()


@dataclass(frozen=True)
class AttemptRecord:
    """One attempt of one job in a resilient batch.

    ``frontier`` is the checkpointed completed-stage set this attempt
    resumed past (empty for a fresh run or without
    ``RetryPolicy(checkpoint=True)``); ``work_saved`` is the summed
    healthy solo duration of those skipped stages — virtual seconds of
    work the resume did not redo."""

    job_index: int
    attempt: int
    release: float
    completed: bool
    failure_time: float | None = None
    failure_lane: str | None = None
    failure_kind: str | None = None
    degraded: bool = False
    frontier: tuple[str, ...] = ()
    work_saved: float = 0.0


@dataclass(frozen=True)
class ResilienceReport:
    """What the retry loop computed for one batch
    (``NdftBatchResult.resilience``): the converged round's attempts as
    columns in run order, ``failures[i]`` being attempt ``i``'s
    :class:`RunFailure` or ``None`` when it completed; :attr:`attempts`
    builds one :class:`AttemptRecord` per attempt from them on each read.
    ``end_to_end_latencies`` maps each submitted job to its
    original-arrival→final-completion latency (``None`` when
    abandoned); ``busy_span`` covers every attempt of the round, so
    ``goodput`` is directly comparable to ``throughput_all_attempts``.
    """

    plan: FaultPlan
    retry: RetryPolicy
    submitted: int = 0
    abandoned_jobs: tuple[int, ...] = ()
    end_to_end_latencies: tuple[float | None, ...] = ()
    busy_span: float = 0.0
    job_indices: tuple[int, ...] = ()
    attempt_numbers: tuple[int, ...] = ()
    releases: tuple[float, ...] = ()
    frontiers: tuple[tuple[str, ...], ...] = ()
    failures: tuple[RunFailure | None, ...] = ()
    degraded: tuple[bool, ...] = ()
    work_saved: tuple[float, ...] = ()

    @property
    def attempts(self) -> tuple[AttemptRecord, ...]:
        """One :class:`AttemptRecord` per attempt of the converged
        round, in run order, built from the columns on each read."""
        columns = zip(
            self.job_indices, self.attempt_numbers, self.releases,
            self.failures, self.degraded, self.frontiers, self.work_saved,
        )
        return tuple(
            AttemptRecord(
                job_index, attempt, release, failure is None,
                None if failure is None else failure.time,
                None if failure is None else failure.lane,
                None if failure is None else failure.kind,
                degraded, frontier, work_saved,
            )
            for job_index, attempt, release, failure, degraded, frontier, work_saved
            in columns
        )

    @property
    def completed(self) -> int:
        return self.submitted - len(self.abandoned_jobs)

    @property
    def abandoned(self) -> int:
        return len(self.abandoned_jobs)

    @property
    def total_attempts(self) -> int:
        return len(self.failures)

    @property
    def failed_attempts(self) -> int:
        return self.total_attempts - self.failures.count(None)

    @property
    def recovered(self) -> int:
        """Jobs that completed on a retry (attempt > 1)."""
        pairs = zip(self.failures, self.attempt_numbers)
        return sum(1 for failure, attempt in pairs if failure is None and attempt > 1)

    @property
    def degraded_attempts(self) -> int:
        return self.degraded.count(True)

    @property
    def resumed_attempts(self) -> int:
        """Attempts that re-entered past a checkpointed frontier."""
        return sum(1 for frontier in self.frontiers if frontier)

    @property
    def resumed_stages(self) -> int:
        """Total checkpointed stages skipped across the final round's
        resumed attempts (``RetryPolicy(checkpoint=True)``)."""
        return sum(map(len, self.frontiers))

    @property
    def work_saved_seconds(self) -> float:
        """Virtual seconds of completed-stage work the checkpoint
        resumes did not redo, summed over the final round's attempts."""
        return sum(self.work_saved)

    @property
    def availability(self) -> float:
        """Fraction of submitted jobs that eventually completed."""
        if self.submitted == 0:
            return 1.0
        return self.completed / self.submitted

    @property
    def goodput(self) -> float:
        """Completed jobs per second over the final round's busy span."""
        if self.busy_span <= 0.0:
            return 0.0
        return self.completed / self.busy_span

    @property
    def throughput_all_attempts(self) -> float:
        """All simulated attempts per second over the same busy span."""
        if self.busy_span <= 0.0:
            return 0.0
        return self.total_attempts / self.busy_span

    @property
    def post_fault_latencies(self) -> tuple[float, ...]:
        """End-to-end latencies of the jobs that completed."""
        return tuple(
            latency for latency in self.end_to_end_latencies if latency is not None
        )

    def _latency_percentile(self, q: float) -> float:
        latencies = self.post_fault_latencies
        if not latencies:
            return 0.0
        return percentile(latencies, q)

    @property
    def post_fault_p50(self) -> float:
        return self._latency_percentile(50.0)

    @property
    def post_fault_p99(self) -> float:
        return self._latency_percentile(99.0)

    def to_json_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "recovered": self.recovered,
            "abandoned": self.abandoned,
            "failed_attempts": self.failed_attempts,
            "total_attempts": self.total_attempts,
            "degraded_attempts": self.degraded_attempts,
            "resumed_attempts": self.resumed_attempts,
            "resumed_stages": self.resumed_stages,
            "work_saved_seconds": self.work_saved_seconds,
            "availability": self.availability,
            "goodput": self.goodput,
            "throughput_all_attempts": self.throughput_all_attempts,
            "post_fault_p50": self.post_fault_p50,
            "post_fault_p99": self.post_fault_p99,
        }


def poisson_fault_plan(
    lanes,
    mtbf: float,
    mttr: float,
    horizon: float,
    seed: int = 0,
    permanent_after: float | None = None,
) -> FaultPlan:
    """Draw a seeded fault plan from exponential failure/repair clocks.

    Per lane (in sorted order, so the draw is independent of input
    ordering), outage starts arrive with mean spacing ``mtbf`` and last
    ``Exp(mttr)`` each, truncated at ``horizon``.  ``permanent_after``
    (optional) additionally kills each *device* lane permanently at its
    first outage start past that time.  ``mtbf``, ``mttr`` and
    ``horizon`` must be finite and positive, and ``permanent_after``
    ``None`` or finite and >= 0.  Deterministic given ``seed``.
    """
    _positive_finite("mtbf", mtbf)
    _positive_finite("mttr", mttr)
    _positive_finite("horizon", horizon)
    if permanent_after is not None and not (
        isfinite(permanent_after) and permanent_after >= 0.0
    ):
        raise ConfigError(
            "permanent_after must be None or finite and >= 0, got "
            f"{permanent_after!r}"
        )
    lanes = tuple(sorted(str(lane) for lane in lanes))
    generator = random.Random(seed)
    outages: list[tuple[str, float, float]] = []
    permanent: list[tuple[str, float]] = []
    for lane in lanes:
        now = 0.0
        while True:
            now += generator.expovariate(1.0 / mtbf)
            if now >= horizon:
                break
            if (
                permanent_after is not None
                and now >= permanent_after
                and not lane.startswith(_WIRE_PREFIX)
            ):
                permanent.append((lane, now))
                break
            duration = generator.expovariate(1.0 / mttr)
            outages.append((lane, now, now + duration))
            now += duration
    return FaultPlan(
        outages=tuple(outages),
        permanent=tuple(permanent),
        provenance=_drawn(
            "poisson_fault_plan",
            lanes=lanes,
            mtbf=mtbf,
            mttr=mttr,
            horizon=horizon,
            seed=seed,
            permanent_after=permanent_after,
        ),
    )


def _normalize_groups(groups) -> tuple[tuple[str, ...], ...]:
    """Canonical shock-group form: per-group lanes deduplicated and
    sorted, groups sorted — so the seeded draw is independent of input
    ordering, like :func:`poisson_fault_plan`'s per-lane walk."""
    normalized = []
    for group in groups:
        if isinstance(group, str):
            group = (group,)
        lanes = tuple(sorted({str(lane) for lane in group}))
        if not lanes:
            raise ConfigError("shock groups must not be empty")
        normalized.append(lanes)
    if not normalized:
        raise ConfigError("shock_fault_plan needs at least one lane group")
    return tuple(sorted(normalized))


def shock_fault_plan(
    groups,
    rate: float,
    mttr: float,
    horizon: float,
    seed: int = 0,
) -> FaultPlan:
    """Draw a seeded *correlated-shock* fault plan.

    Unlike :func:`poisson_fault_plan`'s independent per-lane clocks,
    shocks arrive on **one shared clock** — fleet-level events with mean
    spacing ``1/rate`` (``rate`` shocks per virtual second) — and each
    shock strikes every lane of one *group* (chosen uniformly from
    ``groups``) with the **same** outage window: same start, same
    ``Exp(mttr)`` repair time.  That shared window is the correlation —
    a rack power event takes the whole NDP device+wire group down at
    once instead of each lane failing on its own schedule.

    ``groups`` is an iterable of lane groups (a bare string counts as a
    one-lane group); groups and their lanes are canonicalized (sorted,
    deduplicated) before the draw so the plan is independent of input
    ordering.  ``rate``, ``mttr`` and ``horizon`` must be finite and
    positive.  Deterministic given ``seed``.  Compose with independent
    background noise via :meth:`FaultPlan.merge`::

        plan = poisson_fault_plan(["ndp"], mtbf=20, mttr=1, horizon=60)
        plan = plan.merge(shock_fault_plan(
            [("ndp", "link:cpu-ndp")], rate=0.05, mttr=2, horizon=60))
    """
    _positive_finite("shock rate", rate)
    _positive_finite("mttr", mttr)
    _positive_finite("horizon", horizon)
    group_list = _normalize_groups(groups)
    generator = random.Random(seed)
    outages: list[tuple[str, float, float]] = []
    now = 0.0
    while True:
        now += generator.expovariate(rate)
        if now >= horizon:
            break
        group = group_list[generator.randrange(len(group_list))]
        duration = generator.expovariate(1.0 / mttr)
        for lane in group:
            outages.append((lane, now, now + duration))
    return FaultPlan(
        outages=tuple(outages),
        provenance=_drawn(
            "shock_fault_plan",
            groups=group_list,
            rate=rate,
            mttr=mttr,
            horizon=horizon,
            seed=seed,
        ),
    )


def slowdown_fault_plan(
    lanes,
    mtbf: float,
    mttr: float,
    horizon: float,
    factor: float,
    seed: int = 0,
) -> FaultPlan:
    """Draw a seeded *partial-degradation* plan: the same per-lane
    exponential failure/repair clocks as :func:`poisson_fault_plan`,
    but each drawn window is a :class:`SlowdownWindow` at ``factor``
    instead of an outage — the lane keeps serving, ``factor``× slower,
    and nothing is killed.  ``mtbf``, ``mttr`` and ``horizon`` must be
    finite and positive, and the lanes distinct (two draws on one lane
    would overlap).  Deterministic given ``seed``; compose with outage
    plans via :meth:`FaultPlan.merge`.
    """
    _positive_finite("mtbf", mtbf)
    _positive_finite("mttr", mttr)
    _positive_finite("horizon", horizon)
    if not 1.0 < factor < inf:
        raise ConfigError(
            f"slowdown factor must be finite and > 1.0 (an inflation), got "
            f"{factor!r}"
        )
    lanes = tuple(sorted(str(lane) for lane in lanes))
    repeated = sorted({a for a, b in zip(lanes, lanes[1:]) if a == b})
    if repeated:
        raise ConfigError(
            f"slowdown_fault_plan got lane(s) {', '.join(map(repr, repeated))} "
            "more than once; each lane draws one slowdown series"
        )
    generator = random.Random(seed)
    slowdowns: list[SlowdownWindow] = []
    for lane in lanes:
        now = 0.0
        while True:
            now += generator.expovariate(1.0 / mtbf)
            if now >= horizon:
                break
            duration = generator.expovariate(1.0 / mttr)
            slowdowns.append(SlowdownWindow(lane, now, now + duration, factor))
            now += duration
    return FaultPlan(
        slowdowns=tuple(slowdowns),
        provenance=_drawn(
            "slowdown_fault_plan",
            lanes=lanes,
            mtbf=mtbf,
            mttr=mttr,
            horizon=horizon,
            factor=factor,
            seed=seed,
        ),
    )
