"""Execution-timeline tracer."""

import pytest

from repro.core.cost_model import OffloadCostModel
from repro.core.pipeline import build_kpoint_pipeline, build_pipeline
from repro.core.scheduler import SchedulingPolicy
from repro.core.trace import (
    TraceEvent,
    build_timeline,
    render_gantt,
    total_time,
    validate_timeline,
)
from repro.dft.workload import problem_size
from repro.errors import SimulationError
from repro.hw.interconnect import HostLink


@pytest.fixture(scope="module")
def traced(framework):
    pipeline = build_pipeline(problem_size(1024))
    schedule = framework.scheduler.schedule(pipeline, SchedulingPolicy.COST_AWARE)
    events = build_timeline(pipeline, schedule, framework.cost_model)
    return pipeline, schedule, events


class TestTimeline:
    def test_every_stage_present(self, traced):
        pipeline, _schedule, events = traced
        labels = {e.label for e in events if e.lane in ("cpu", "ndp")}
        assert labels == set(pipeline.stage_names)

    def test_no_lane_overlap(self, traced):
        _pipeline, _schedule, events = traced
        validate_timeline(events)  # must not raise

    def test_total_matches_executor(self, framework, traced):
        pipeline, schedule, events = traced
        report = framework.executor.execute(pipeline, schedule)
        assert total_time(events) == pytest.approx(report.total_time, rel=1e-9)

    def test_link_events_only_at_boundaries(self, traced):
        _pipeline, schedule, events = traced
        link_events = [e for e in events if e.lane.startswith("link")]
        assert len(link_events) == schedule.n_boundaries
        # the chain only ever crosses the CPU<->NDP wire
        assert {e.lane for e in link_events} == {"link:cpu-ndp"}

    @pytest.mark.parametrize(
        "builder, policy",
        [
            (build_pipeline, SchedulingPolicy.COST_AWARE),
            (build_kpoint_pipeline, SchedulingPolicy.COST_AWARE),
            (build_kpoint_pipeline, SchedulingPolicy.NAIVE),
        ],
    )
    def test_one_transfer_event_per_crossing_edge(
        self, framework, builder, policy
    ):
        """One ``src->dst`` event per edge the schedule places across
        devices, on the wire serving that device pair, after its
        producer's device occupancy and before its consumer's."""
        pipeline = builder(problem_size(512))
        schedule = framework.scheduler.schedule(pipeline, policy)
        events = build_timeline(pipeline, schedule, framework.cost_model)
        stage_events = {e.label: e for e in events if e.lane in ("cpu", "ndp")}
        transfers = [e for e in events if e.lane.startswith("link")]
        assert transfers  # the placement genuinely crosses devices
        assert sorted(e.label for e in transfers) == sorted(
            f"{edge.src}->{edge.dst}"
            for edge in pipeline.edges
            if schedule.assignments[edge.src]
            is not schedule.assignments[edge.dst]
        )
        for event in transfers:
            src, dst = event.label.split("->")
            assert event.lane == "link:" + "-".join(
                sorted((stage_events[src].lane, stage_events[dst].lane))
            )
            assert stage_events[src].end <= event.start
            assert event.end <= stage_events[dst].start

    def test_schedule_from_another_cost_model_is_refused(self, traced):
        """The trace prices transfers with the cost model it is given;
        one that disagrees with the schedule's Eq. 1 overhead fails
        loudly instead of drawing wrong transfers."""
        pipeline, schedule, _events = traced
        other = OffloadCostModel(
            host_link=HostLink(bandwidth=1.0, base_latency=0.0),
            context_switch=0.25,
        )
        with pytest.raises(SimulationError, match="Eq. 1 overhead"):
            build_timeline(pipeline, schedule, other)

    def test_overlap_detection(self):
        events = [
            TraceEvent("cpu", "a", 0.0, 2.0),
            TraceEvent("cpu", "b", 1.0, 3.0),
        ]
        with pytest.raises(SimulationError):
            validate_timeline(events)

    def test_bad_event_rejected(self):
        with pytest.raises(SimulationError):
            TraceEvent("cpu", "x", 2.0, 1.0)

    def test_gantt_renders(self, traced):
        _pipeline, _schedule, events = traced
        chart = render_gantt(events)
        assert "timeline:" in chart
        assert "cpu" in chart and "ndp" in chart

    def test_empty_gantt(self):
        assert render_gantt([]) == "(empty timeline)"
