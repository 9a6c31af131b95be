"""Execution timeline: turn a schedule into trace events and ASCII Gantt.

The DES executor reports only totals; this module captures its exact
occupancy intervals — one lane per device plus one per inter-device
wire — which the examples render as an ASCII Gantt chart and the tests
use to check the executor's serialization (no overlapping occupancy on a
lane, transfers strictly between producer and consumer).

Since the DAG generalization the timeline is no longer replayed by a
separate clock walk: :func:`build_timeline` runs the real executor with a
trace observer attached, so branch overlap, device contention and link
serialization appear in the events exactly as the DES resolved them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cost_model import OffloadCostModel
from repro.core.executor import PipelineExecutor
from repro.core.pipeline import Pipeline
from repro.core.scheduler import Schedule
from repro.errors import SimulationError


@dataclass(frozen=True)
class TraceEvent:
    """One occupancy interval on one lane."""

    lane: str          # "cpu"/"ndp"/"gpu", or "link:<pair>" per wire
    label: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise SimulationError(f"event {self.label} ends before it starts")

    @property
    def duration(self) -> float:
        return self.end - self.start


def build_timeline(
    pipeline: Pipeline, schedule: Schedule, cost_model: OffloadCostModel
) -> list[TraceEvent]:
    """Execute the schedule through the DES, recording every occupancy
    interval.  Works for any DAG: each stage waits for all predecessors,
    boundary transfers occupy the link lane, and independent branches on
    different devices show up as overlapping events on distinct lanes."""
    events: list[TraceEvent] = []
    executor = PipelineExecutor(cost_model=cost_model)
    executor.execute(
        pipeline,
        schedule,
        observer=lambda lane, label, start, end: events.append(
            TraceEvent(lane, label, start, end)
        ),
    )
    events.sort(key=lambda e: (e.start, e.end, e.lane))
    return events


def validate_timeline(events: list[TraceEvent]) -> None:
    """Raise :class:`SimulationError` if any lane double-books."""
    by_lane: dict[str, list[TraceEvent]] = {}
    for event in events:
        by_lane.setdefault(event.lane, []).append(event)
    for lane, lane_events in by_lane.items():
        ordered = sorted(lane_events, key=lambda e: e.start)
        for a, b in zip(ordered, ordered[1:]):
            if b.start < a.end - 1e-12:
                raise SimulationError(
                    f"lane {lane!r}: {a.label} and {b.label} overlap"
                )


def total_time(events: list[TraceEvent]) -> float:
    return max((e.end for e in events), default=0.0)


def render_gantt(events: list[TraceEvent], width: int = 72) -> str:
    """ASCII Gantt chart: one row per lane, one glyph per time bucket."""
    if not events:
        return "(empty timeline)"
    horizon = total_time(events)
    scale = width / horizon if horizon > 0 else 0.0
    lanes = sorted({e.lane for e in events})
    lane_width = max(5, max(len(lane) for lane in lanes))
    lines = [f"timeline: {horizon:.4f} s  ({width} cols)"]
    for lane in lanes:
        row = [" "] * width
        for event in events:
            if event.lane != lane:
                continue
            start = min(width - 1, int(event.start * scale))
            end = min(width, max(start + 1, int(event.end * scale)))
            glyph = event.label[0].upper()
            for column in range(start, end):
                row[column] = glyph
        lines.append(f"{lane:>{lane_width}s} |{''.join(row)}|")
    legend = ", ".join(
        f"{e.label[0].upper()}={e.label}" for e in events
    )
    lines.append(f"legend: {legend}")
    return "\n".join(lines)
