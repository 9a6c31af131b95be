"""Execution timeline: turn a schedule into trace events and ASCII Gantt.

The executor reports only totals; this module captures a job's exact
occupancy intervals — one lane per device plus one per inter-device
wire — which the examples render as an ASCII Gantt chart and the tests
use to check the simulation's serialization (no overlapping occupancy on
a lane, transfers strictly between producer and consumer).

The timeline is not replayed by a separate clock walk:
:func:`build_timeline` compiles the job as the executor does and runs
the generator engine (:func:`repro.hw.engine.run_engine_batch`) on it
with an occupancy observer, so branch overlap, device contention and
link serialization appear in the events exactly as the DES resolved
them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cost_model import OffloadCostModel
from repro.core.executor import PipelineExecutor
from repro.core.pipeline import Pipeline
from repro.core.scheduler import Schedule
from repro.errors import SimulationError
from repro.hw.engine import run_engine_batch


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
    different devices show up as overlapping events on distinct lanes.

    A device occupancy is labelled with its stage's name; a transfer
    with ``"src->dst"``, its predecessor placed on another device (a
    stage's transfers are those predecessors, in in-edge order, before
    its device occupancy — the tasks the executor compiled)."""
    executor = PipelineExecutor(cost_model=cost_model)
    # The executor's Eq. 1 cross-check: a schedule priced under another
    # cost model fails loudly instead of drawing wrong transfers.
    executor._eq1_overhead(pipeline, schedule)
    batch = executor.compile_batch([(pipeline, schedule)])
    stage_tasks, stage_preds = batch.programs[0]
    names = pipeline.topological_order
    device = [tasks[-1][0] for tasks in stage_tasks]
    labels = [
        [
            *(
                f"{names[pred]}->{name}"
                for pred in preds
                if device[pred] != device[stage]
            ),
            name,
        ]
        for stage, (name, preds) in enumerate(zip(names, stage_preds))
    ]
    events: list[TraceEvent] = []

    def observe(resource, _job, stage, task, start, end) -> None:
        events.append(
            TraceEvent(batch.lanes[resource], labels[stage][task], start, end)
        )

    run_engine_batch(
        batch.programs, batch.member_group, None, len(batch.lanes), observer=observe
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
