"""Benchmark of the NDFT serving simulator, run from the repository root.

    python3 perfbench/run.py --workload closed-mix --seed 0 --seconds 12 --trace 0

Builds nothing: it imports ``repro`` from ``src/`` next to this directory
and drives the public API through one of the workloads in
:mod:`workloads`.  With ``--trace 0`` it reports the end-to-end metrics
in host time; with ``--trace 1`` it reports per-layer self times from an
outside-in trace (:mod:`spans`).  Host seconds are scaled to reference
seconds by the host-speed probes of :mod:`hostspeed`.  Either way every
timed call's virtual-time outputs are digested and checked, outside the
timer.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

STARTED = time.perf_counter()

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

import hostspeed
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Digests of the default seed's outputs, one per workload.
DIGESTS = HERE / "digests.json"
#: Spans and the fleet's snapshot files go here, inside the checkout.
OUT = HERE / "out"
DEFAULT_SEED = 0
#: Set-up runs this many times per untraced run, each followed by its
#: share of the timed calls; set-up time is the median of the set-ups
#: (plus the one-off imports).
SETUP_REPEATS = 3
#: Traced and untraced calls each of the traced run makes at least.
MIN_TRACED_PAIRS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program() -> bool:
    """Put ``src/`` first on the import path; False when the checkout
    holds no program to measure."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    # WorkerPool keeps its snapshot files in a temporary directory; keep
    # them inside the checkout (spawned workers inherit the variable).
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    return True


def peak_rss_mb(workers: bool) -> float:
    """Peak resident memory of this process, plus the largest reaped
    worker's peak when the workload has worker processes."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def stop_resource_tracker() -> None:
    """Wait for the helper process multiprocessing starts for the fleet's
    semaphores, so no process outlives the run."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None and getattr(tracker, "_pid", None) is not None:
        stop()


def expected_digest(workload, seed: int) -> str | None:
    """The recorded digest when the inputs are the default seed's."""
    if (workload.seeded and seed != DEFAULT_SEED) or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload.name)


class Run:
    """The timed calls of one run, with output checks outside the timer."""

    def __init__(self, workload, expected: str | None) -> None:
        self.workload = workload
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        #: Reference seconds of each call that returned, keyed by
        #: whether it was traced.
        self.seconds: dict[bool, list[float]] = {False: [], True: []}
        self.layer_metrics: list[dict] = []
        #: Factor from host to reference seconds of each call that returned.
        self.scales: list[float] = []

    def segment(self, state, seconds: float, before: float, recorder=None):
        """Timed calls on one set-up's ``state`` for ``seconds``: at
        least one, and with a ``recorder`` alternately untraced and traced
        (the difference of their medians is the tracing overhead).  A
        host-speed probe runs after every call; each call is scaled by the
        probes on either side, the first by ``before``.  Returns the last
        probe."""
        minimum = 1 if recorder is None else 2 * MIN_TRACED_PAIRS
        begun = time.perf_counter()
        made = 0
        while made < minimum or time.perf_counter() - begun < seconds:
            traced = recorder if made % 2 else None
            timed = self.call(state, traced)
            after = hostspeed.probe()
            if timed is not None:
                self.record(*timed, hostspeed.scale(before, after))
            before = after
            made += 1
        return before

    def record(self, elapsed: float, layer_metrics, scale: float) -> None:
        """Keep one call's seconds and layer metrics in reference seconds."""
        self.scales.append(scale)
        self.seconds[layer_metrics is not None].append(elapsed * scale)
        if layer_metrics is not None:
            for name, unit in spans.PER_LAYER_METRICS:
                if unit == "s":
                    layer_metrics[name] *= scale
            self.layer_metrics.append(layer_metrics)

    def call(self, state, recorder=None):
        """One timed call; ``recorder`` traces it.  Returns its host
        seconds and, when traced, its layer metrics; ``None`` when it
        raised."""
        self.attempted += 1
        workload = self.workload
        if recorder is not None:
            before = spans.memo_counters(
                [] if workload.fresh_framework else workload.frameworks(state)
            )
        gc.collect()
        try:
            if recorder is None:
                started = time.perf_counter()
                outputs = workload.call(state)
                elapsed = time.perf_counter() - started
            else:
                root = recorder.begin_call()
                try:
                    outputs = workload.call(state)
                finally:
                    recorder.end_call(root)
                elapsed = recorder.spans[root][5] - recorder.spans[root][4]
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        # A call that returned wrong outputs still took its time; it
        # counts as failed and the run as incorrect.
        if not self.verify(state, outputs):
            self.failed += 1
        if recorder is None:
            return elapsed, None
        delta = spans.memo_counters(workload.frameworks(state))
        delta.subtract(before)
        return elapsed, spans.call_metrics(
            recorder, recorder.call_id, delta, workload.replica_seconds(outputs)
        )

    def verify(self, state, outputs) -> bool:
        problems = self.workload.check(state, outputs)
        found = self.workload.digest(outputs)
        if self.attempted == 1:
            print(f"digest {self.workload.name} {found}", flush=True)
        if self.expected is None:
            self.expected = found
        elif found != self.expected:
            problems.append(f"digest {found} != expected {self.expected}")
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return not problems


def measure(
    workload, seed, seconds, trace, started, expected=None, spans_path=None
):
    """Set up and time calls for ``seconds`` in all, and return the
    result object, or ``None`` when every call raised.  ``started`` is
    when the process started, for the set-up time; ``expected`` is the
    digest every call must reproduce (default: the first call's)."""
    recorder = None
    if trace:
        recorder = spans.Recorder()
        kpoint_builder = spans.install(recorder)
    else:
        from repro.core.pipeline import build_kpoint_pipeline as kpoint_builder
    imports_s = time.perf_counter() - started
    probe = hostspeed.probe()
    imports_s *= hostspeed.scale(probe)

    # Each set-up (inputs, construction, warm-up) is followed by its share
    # of the timed calls, so the calls spread over the whole run and over
    # independent set-ups, which must all reproduce the same digest.
    # Later set-ups replay the warm-up count the first one found.  Like
    # a call, a set-up is scaled by the host-speed probes on either side.
    repeats = 1 if trace else SETUP_REPEATS
    run = Run(workload, expected)
    builds = []
    warm_calls = None
    try:
        for _ in range(repeats):
            gc.collect()
            begun = time.perf_counter()
            state = workload.setup(
                workload.inputs(seed), kpoint_builder, warm_calls
            )
            build = time.perf_counter() - begun
            before, probe = probe, hostspeed.probe()
            builds.append(build * hostspeed.scale(before, probe))
            warm_calls = state["warm_calls"]
            try:
                probe = run.segment(state, seconds / repeats, probe, recorder)
            finally:
                workload.close(state)
                del state
    finally:
        gc.collect()
        stop_resource_tracker()
        if recorder is not None:
            spans.uninstall(recorder)

    untraced = run.seconds[False]
    if not untraced or (trace and not run.layer_metrics):
        return None
    print(
        "host seconds to reference seconds: median scale "
        f"{statistics.median(run.scales):.3f} over {len(run.scales)} calls",
        flush=True,
    )
    if trace:
        metrics = {
            name: {
                "value": statistics.median(m[name] for m in run.layer_metrics),
                "unit": unit,
            }
            for name, unit in spans.PER_LAYER_METRICS
        }
        metrics["trace.overhead_s"]["value"] = statistics.median(
            run.seconds[True]
        ) - statistics.median(untraced)
        if spans_path is not None:
            recorder.write(spans_path)
    else:
        metrics = {
            "jobs_per_s": {
                "value": workload.jobs_per_call / statistics.median(untraced),
                "unit": "1/s",
            },
            "setup_s": {
                "value": imports_s + statistics.median(builds),
                "unit": "s",
            },
            "peak_rss_mb": {"value": peak_rss_mb(workload.workers), "unit": "MB"},
        }
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not load_program():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]()
    result = measure(
        workload,
        args.seed,
        args.seconds,
        args.trace,
        STARTED,
        expected=expected_digest(workload, args.seed),
        spans_path=OUT / f"spans-{args.workload}-seed{args.seed}.jsonl",
    )
    if result is None:
        print("perfbench: every call raised", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
