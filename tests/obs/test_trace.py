"""Unit tests for the deterministic span tracer."""

import pytest

from repro.obs.trace import QueryTrace, activate, current_tracer


def build_sample_trace():
    """A small hand-built tree: root > (fast child, slow child > leaf)."""
    trace = QueryTrace()
    with trace.span("root"):
        with trace.span("fast"):
            trace.clock.advance(2.0)
        with trace.span("slow"):
            trace.clock.advance(3.0)
            with trace.span("leaf"):
                trace.clock.advance(5.0)
    return trace


class TestSpanTree:
    def test_parent_child_links(self):
        trace = build_sample_trace()
        root = trace.root
        assert root.name == "root"
        assert root.parent_id is None
        names = {span.name: span for span in trace.spans}
        assert names["fast"].parent_id == root.span_id
        assert names["slow"].parent_id == root.span_id
        assert names["leaf"].parent_id == names["slow"].span_id
        assert [s.name for s in trace.children(root)] == ["fast", "slow"]

    def test_span_ids_are_sequential(self):
        trace = build_sample_trace()
        assert [s.span_id for s in trace.spans] == [0, 1, 2, 3]

    def test_durations_come_from_the_simulated_clock(self):
        trace = build_sample_trace()
        names = {span.name: span for span in trace.spans}
        assert names["fast"].duration_ms == 2.0
        assert names["leaf"].duration_ms == 5.0
        assert names["slow"].duration_ms == 8.0
        assert trace.root.duration_ms == 10.0

    def test_instant_spans_have_zero_duration(self):
        trace = QueryTrace()
        with trace.span("root"):
            trace.clock.advance(1.0)
            span = trace.instant("event", rows=7)
        assert span.duration_ms == 0.0
        assert span.start_ms == 1.0
        assert span.attributes == {"rows": 7}
        assert span.parent_id == trace.root.span_id

    def test_span_closes_on_exception(self):
        trace = QueryTrace()
        with pytest.raises(RuntimeError):
            with trace.span("root"):
                trace.clock.advance(4.0)
                raise RuntimeError("boom")
        assert trace.root.end_ms == 4.0
        # The stack unwound: the next span is a fresh root, not a child.
        with trace.span("second"):
            pass
        assert trace.spans[1].parent_id is None

    def test_find_returns_all_matches_in_creation_order(self):
        trace = QueryTrace()
        with trace.span("root"):
            trace.instant("event", n=1)
            trace.instant("event", n=2)
        events = trace.find("event")
        assert [s.attributes["n"] for s in events] == [1, 2]
        assert trace.find("missing") == []

    def test_set_attaches_attributes(self):
        trace = QueryTrace()
        with trace.span("root") as span:
            span.set(outcome="ok", rows=3)
        assert trace.root.attributes == {"outcome": "ok", "rows": 3}


class TestCriticalPath:
    def test_contributions_telescope_to_root_duration(self):
        trace = build_sample_trace()
        entries = trace.critical_path()
        assert [e.span.name for e in entries] == ["root", "slow", "leaf"]
        # root contributes 10-8, slow contributes 8-5, leaf its full 5.
        assert [e.contribution_ms for e in entries] == [2.0, 3.0, 5.0]
        assert trace.critical_path_ms() == trace.root.duration_ms

    def test_ties_break_on_latest_span_id(self):
        trace = QueryTrace()
        with trace.span("root"):
            trace.instant("a")
            trace.instant("b")
        entries = trace.critical_path()
        assert [e.span.name for e in entries] == ["root", "b"]

    def test_path_from_subtree(self):
        trace = build_sample_trace()
        slow = trace.find("slow")[0]
        entries = trace.critical_path(slow)
        assert [e.span.name for e in entries] == ["slow", "leaf"]
        assert sum(e.contribution_ms for e in entries) == slow.duration_ms

    def test_empty_trace(self):
        assert QueryTrace().critical_path() == []
        assert QueryTrace().critical_path_ms() == 0.0


class TestSerialization:
    def test_to_json_is_byte_identical_across_runs(self):
        assert build_sample_trace().to_json() == build_sample_trace().to_json()

    def test_to_dict_round_trips_fields(self):
        trace = build_sample_trace()
        payload = trace.to_dict()
        assert len(payload["spans"]) == 4
        first = payload["spans"][0]
        assert first["name"] == "root"
        assert first["parent_id"] is None
        assert first["start_ms"] == 0.0


class TestActiveTracer:
    def test_no_tracer_outside_activation(self):
        assert current_tracer() is None

    def test_activate_stacks_and_restores(self):
        outer, inner = QueryTrace(), QueryTrace()
        with activate(outer):
            assert current_tracer() is outer
            with activate(inner):
                assert current_tracer() is inner
            assert current_tracer() is outer
        assert current_tracer() is None

    def test_activation_pops_on_exception(self):
        trace = QueryTrace()
        with pytest.raises(RuntimeError):
            with activate(trace):
                raise RuntimeError("boom")
        assert current_tracer() is None
