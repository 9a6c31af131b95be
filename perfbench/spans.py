"""Outside-in layer trace: timing wrappers around each layer's entry points.

Only the traced run installs these wrappers, and it installs them before
set-up, so every memo key that embeds a wrapped callable (the pipeline
cache keys on its builder) is the same in warm-up and in the timed calls.
While the recorder is inactive a wrapper is a plain pass-through; while
it is active each call into a layer opens a span ``[call, id, parent,
layer, start, end]``.  Spans of one timed call share the call id, nest
strictly (one thread), and stay in memory until the run writes them out.

A span's self time is its duration minus its children's durations.
Summed per layer, that is the time the layer itself spent, so a later
speed-up or simplification shows in the layer that moved.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict

#: Root span of one timed call; its self time is what no layer covered.
ROOT = "call"

#: Layer key -> per-layer metric reporting that layer's self seconds.
SELF_TIME_METRICS = {
    "framework": "framework.self_s",
    "pipeline": "pipeline.s",
    "signature": "signature.s",
    "scheduler": "scheduler.s",
    "sca": "sca.s",
    "solo": "solo.s",
    "admission": "admission.s",
    "executor": "executor.self_s",
    "backend.chain_replay": "backend.chain_replay.s",
    "backend.vector_replay": "backend.vector_replay.s",
    "backend.dag_replay": "backend.dag_replay.s",
    "hw.engine": "hw.engine.s",
    "fleet.route": "fleet.route_s",
    "fleet.snapshot": "fleet.snapshot_s",
    ROOT: "trace.residual_s",
}

#: Every per-layer metric, in report order.
PER_LAYER_METRICS = (
    ("framework.self_s", "s"),
    ("pipeline.s", "s"),
    ("signature.s", "s"),
    ("scheduler.s", "s"),
    ("scheduler.calls", "count"),
    ("scheduler.warm_start_hit_ratio", "ratio"),
    ("sca.s", "s"),
    ("memo.hit_ratio", "ratio"),
    ("solo.s", "s"),
    ("admission.s", "s"),
    ("executor.self_s", "s"),
    ("executor.superjobs", "count"),
    ("backend.chain_replay.s", "s"),
    ("backend.vector_replay.s", "s"),
    ("backend.dag_replay.s", "s"),
    ("backend.accept_ratio", "ratio"),
    ("hw.engine.s", "s"),
    ("faults.rounds", "count"),
    ("fleet.route_s", "s"),
    ("fleet.snapshot_s", "s"),
    ("fleet.snapshot_bytes", "bytes"),
    ("fleet.replica_s", "s"),
    ("fleet.dispatch_s", "s"),
    ("trace.residual_s", "s"),
    ("trace.overhead_s", "s"),
)

#: The memo caches whose hits and misses ``cache_stats`` counts.
MEMO_CACHES = ("pipeline", "schedule", "solo", "sca", "signature")


class Recorder:
    """In-memory spans and per-call counters."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.active = False
        self.call_id = -1
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        #: ``(owner, attribute, original)`` of every patched entry point.
        self.patches: list[tuple] = []
        self._open: list[int] = []

    def enter(self, layer: str) -> int:
        span_id = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(
            [self.call_id, span_id, parent, layer, self.clock(), None]
        )
        self._open.append(span_id)
        return span_id

    def exit(self, span_id: int) -> None:
        self.spans[span_id][5] = self.clock()
        self._open.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[self.call_id][key] += amount

    def begin_call(self) -> int:
        """Start one traced timed call: activate, open its root span."""
        self.call_id += 1
        self.active = True
        return self.enter(ROOT)

    def end_call(self, root: int) -> None:
        self.exit(root)
        self.active = False

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("call", "id", "parent", "layer", "start", "end")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_seconds(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children.
    Spans nest strictly, so children never overlap one another."""
    own = {span[1]: span[5] - span[4] for span in spans}
    for span in spans:
        parent = span[2]
        if parent is not None and parent in own:
            own[parent] -= span[5] - span[4]
    return own


def layer_self_seconds(spans) -> dict[str, float]:
    """Layer -> summed self seconds over ``spans``."""
    own = self_seconds(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span[3]] += own[span[1]]
    return dict(totals)


def wrap(recorder: Recorder, layer: str, fn, after=None):
    """``fn`` inside a span of ``layer``; ``after(result, args, kwargs)``
    runs after the span closes, to count what the call did."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        span = recorder.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit(span)
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


def install(recorder: Recorder):
    """Patch every layer entry point the trace times; returns the one
    wrapped ``build_kpoint_pipeline`` the workloads must pass for the
    whole run.

    Class attributes reach every instance.  Module-level functions are
    patched where :mod:`repro.core.framework` and :mod:`repro.fleet.pool`
    imported them, because rebinding the defining module would not reach
    those copies.
    """
    import repro.core.backends as backends
    import repro.core.framework as framework
    import repro.fleet.pool as pool
    from repro.core.executor import PipelineExecutor
    from repro.core.pipeline import build_kpoint_pipeline
    from repro.core.sca import StaticCodeAnalyzer
    from repro.core.scheduler import CostAwareScheduler
    from repro.hw.engine import Engine

    def patch(owner, name: str, layer: str, after=None) -> None:
        original = getattr(owner, name)
        recorder.patches.append((owner, name, original))
        setattr(owner, name, wrap(recorder, layer, original, after))

    def counted(key: str):
        return lambda _result, _args, _kwargs: recorder.count(key)

    def executed(report, _args, _kwargs) -> None:
        recorder.count("executor.calls")
        recorder.count("executor.superjobs", report.n_superjobs)

    def simulated(result, _args, _kwargs) -> None:
        recorder.count("backend.attempts")
        if result is not None:
            recorder.count("backend.accepted")

    def saved(path, _args, _kwargs) -> None:
        recorder.count("fleet.snapshot_bytes", os.path.getsize(path))

    ndft = framework.NdftFramework
    patch(ndft, "run_many", "framework", counted("framework.run_many"))
    patch(ndft, "job_estimates", "framework")
    patch(ndft, "save_caches", "fleet.snapshot", saved)
    patch(ndft, "merge_caches", "fleet.snapshot")
    patch(framework, "build_pipeline", "pipeline")
    patch(framework, "job_signature", "signature")
    patch(framework, "structure_signature", "signature")
    patch(framework, "plan_admission", "admission")
    patch(CostAwareScheduler, "schedule", "scheduler", counted("scheduler.calls"))
    patch(StaticCodeAnalyzer, "analyze_all", "sca")
    patch(PipelineExecutor, "execute", "solo")
    patch(PipelineExecutor, "execute_many", "executor", executed)
    for backend in backends.iter_backends():
        # The engine backend is a thin call into the executor's own
        # engine path, the same one faulted shards take directly.
        if backend.name == "engine":
            layer = "executor"
        else:
            layer = f"backend.{backend.name}"
        patch(type(backend), "simulate", layer, simulated)
    patch(Engine, "run", "hw.engine")
    patch(pool, "route_jobs", "fleet.route")
    patch(pool.WorkerPool, "serve", "fleet.serve")
    return wrap(recorder, "pipeline", build_kpoint_pipeline)


def uninstall(recorder: Recorder) -> None:
    """Restore every entry point :func:`install` patched."""
    while recorder.patches:
        owner, name, original = recorder.patches.pop()
        setattr(owner, name, original)


def memo_counters(frameworks) -> Counter:
    """Summed ``cache_stats`` of the frameworks a call touched."""
    total: Counter = Counter()
    for framework in frameworks:
        total.update(framework.cache_stats)
    return total


def _ratio(numerator: float, denominator: float) -> float:
    """A ratio, 0.0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def call_metrics(
    recorder: Recorder, call_id: int, memo_delta: Counter, replica_s: float
) -> dict[str, float]:
    """Every per-layer metric of one traced call except the overhead,
    which compares traced with untraced calls."""
    spans = [span for span in recorder.spans if span[0] == call_id]
    by_layer = layer_self_seconds(spans)
    counts = recorder.counts[call_id]
    metrics = {name: 0.0 for name, _unit in PER_LAYER_METRICS}
    for layer, seconds in by_layer.items():
        metric = SELF_TIME_METRICS.get(layer)
        if metric is not None:
            metrics[metric] = seconds
    serve_self = by_layer.get("fleet.serve", 0.0)
    metrics["fleet.replica_s"] = replica_s
    metrics["fleet.dispatch_s"] = serve_self - replica_s if serve_self else 0.0
    metrics["scheduler.calls"] = counts["scheduler.calls"]
    metrics["executor.superjobs"] = counts["executor.superjobs"]
    metrics["fleet.snapshot_bytes"] = counts["fleet.snapshot_bytes"]
    metrics["faults.rounds"] = _ratio(
        counts["executor.calls"], counts["framework.run_many"]
    )
    metrics["backend.accept_ratio"] = _ratio(
        counts["backend.accepted"], counts["backend.attempts"]
    )
    hits = sum(memo_delta[f"{cache}_hits"] for cache in MEMO_CACHES)
    misses = sum(memo_delta[f"{cache}_misses"] for cache in MEMO_CACHES)
    metrics["memo.hit_ratio"] = _ratio(hits, hits + misses)
    metrics["scheduler.warm_start_hit_ratio"] = _ratio(
        memo_delta["warm_start_hits"],
        memo_delta["warm_start_hits"] + memo_delta["warm_start_misses"],
    )
    return metrics
