"""The host's speed, measured with a fixed reference loop, so that host
time can be reported at one reference speed.

The benchmark's host is a share of a larger machine.  Its neighbours'
load slows it by up to about 2.8x for seconds to minutes at a time, and
CPU time slows as much as wall time, so raw seconds from two runs of the
same code differ by more than most changes a benchmark must resolve.
The benchmark therefore times :func:`probe` after the imports, after each
set-up and after each timed call, outside every timer.  The probe is a
small discrete-event loop of the same kind of interpreter work as the
simulator (objects with slots, a heap, dict lookups, float arithmetic)
that uses the standard library only and no code of the program.  The
work between two probes is scaled by :func:`scale` of them: the seconds
it would have taken on a host where the probe takes
:data:`REFERENCE_PROBE_S`.  The neighbours' load slows probe and program
together and cancels; a change to the program cannot move the probe, so
it moves the scaled figures by its whole effect.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Seconds :func:`probe` takes on a 2.1 GHz Xeon vCPU (CPython 3.11.7)
#: with no neighbour load, rounded: about the fastest of a hundred probes.
REFERENCE_PROBE_S = 0.065

#: Tasks one probe schedules.
PROBE_TASKS = 120_000

_LANES = ("cpu", "ndp", "link")


class _Task:
    __slots__ = ("lane", "duration")

    def __init__(self, lane: str, duration: float) -> None:
        self.lane = lane
        self.duration = duration


class _Lane:
    __slots__ = ("free", "busy")

    def __init__(self) -> None:
        self.free = 0.0
        self.busy = 0.0

    def grant(self, now: float, task: _Task) -> float:
        start = now if now > self.free else self.free
        self.free = start + task.duration
        self.busy += task.duration
        return self.free


def _simulate(n_tasks: int) -> float:
    """FIFO lanes serving a stream of tasks; returns a checksum."""
    lanes = {name: _Lane() for name in _LANES}
    heap = [
        (0.0, i, _Task(_LANES[i % 3], 1.0 + (i * 7919 % 13) / 13.0))
        for i in range(64)
    ]
    heapq.heapify(heap)
    done = 0.0
    for seq in range(64, n_tasks):
        now, _seq, task = heapq.heappop(heap)
        finish = lanes[task.lane].grant(now, task)
        done += finish
        duration = 0.5 + (seq * 104729 % 17) / 17.0
        heapq.heappush(heap, (finish, seq, _Task(_LANES[seq % 3], duration)))
    return done + sum(lane.busy for lane in lanes.values())


def probe() -> float:
    """Seconds the fixed reference loop takes now.  The cyclic garbage
    collector is off meanwhile: a collection would walk the program's
    heap, whose size varies by workload and moment, not by host speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _simulate(PROBE_TASKS)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def scale(*probes: float) -> float:
    """Factor from host seconds to reference seconds, for work done
    between (or next to) ``probes``: the reference probe time over their
    mean."""
    return REFERENCE_PROBE_S * len(probes) / sum(probes)
