"""Unit tests for the span/trace recorder and its no-op twin."""

from __future__ import annotations

from repro.obs import NULL_TRACE, NullTrace, Trace
from repro.obs.tracing import _NullSpan


class TestTrace:
    def test_spans_nest_under_the_open_span(self) -> None:
        trace = Trace()
        with trace.span("plan"):
            with trace.span("rewrite"):
                pass
        with trace.span("execute"):
            pass
        assert [s.name for s in trace.spans] == ["plan", "execute"]
        assert [s.name for s in trace.spans[0].children] == ["rewrite"]

    def test_span_records_elapsed_time(self) -> None:
        trace = Trace()
        with trace.span("execute"):
            sum(range(1000))
        assert trace.spans[0].elapsed > 0

    def test_span_attributes_via_kwargs_and_annotate(self) -> None:
        trace = Trace()
        with trace.span("plan", cache_hit=False) as span:
            span.annotate(nodes={"SeqScan": 1})
        assert trace.spans[0].attrs == {
            "cache_hit": False,
            "nodes": {"SeqScan": 1},
        }

    def test_span_closed_even_when_body_raises(self) -> None:
        trace = Trace()
        try:
            with trace.span("execute"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        # The stack unwound: a new span is top-level, not a child.
        with trace.span("next"):
            pass
        assert [s.name for s in trace.spans] == ["execute", "next"]

    def test_find_searches_depth_first(self) -> None:
        trace = Trace()
        with trace.span("plan"):
            with trace.span("rewrite"):
                pass
        assert trace.find("rewrite") is trace.spans[0].children[0]
        assert trace.find("missing") is None

    def test_stage_seconds_and_total(self) -> None:
        trace = Trace()
        with trace.span("parse"):
            pass
        with trace.span("execute"):
            pass
        stages = trace.stage_seconds()
        assert list(stages) == ["parse", "execute"]
        assert trace.total_seconds() == sum(stages.values())

    def test_count_rows_counts_while_yielding_unchanged(self) -> None:
        trace = Trace()
        node = object()
        rows = [(1,), (2,), (3,)]
        assert list(trace.count_rows(node, iter(rows))) == rows
        assert trace.rows_for(node) == 3
        # A second pass over the same node accumulates.
        list(trace.count_rows(node, iter(rows)))
        assert trace.rows_for(node) == 6

    def test_add_rows_and_annotation(self) -> None:
        trace = Trace()
        node = object()
        assert trace.annotation(node) == ""
        trace.add_rows(node, 5)
        trace.add_rows(node, 2)
        assert trace.annotation(node) == " (rows=7)"

    def test_to_dict_is_json_ready(self) -> None:
        import json

        trace = Trace()
        with trace.span("plan", cache_hit=True):
            pass
        payload = trace.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["stages"][0]["name"] == "plan"


class TestNullTrace:
    def test_records_nothing(self) -> None:
        trace = NullTrace()
        with trace.span("plan", cache_hit=True) as span:
            span.annotate(rows=10)
        assert trace.stage_seconds() == {}
        assert trace.total_seconds() == 0.0
        assert trace.find("plan") is None
        assert trace.to_dict() == {"stages": [], "total_s": 0.0}

    def test_enabled_flags_distinguish_the_two(self) -> None:
        assert Trace.enabled is True
        assert NullTrace.enabled is False
        assert NULL_TRACE.enabled is False

    def test_null_span_is_inert(self) -> None:
        span = _NullSpan()
        span.annotate(rows=3)
        assert span.attrs == {}
        assert span.find("anything") is None


class TestPlanSummary:
    """The plan span's ``nodes`` fingerprint is built for traced runs only."""

    SQL = "select avg(beats) from sensed_data"

    def test_built_only_when_tracing(self, policy_scenario, monkeypatch) -> None:
        from repro.engine import PreparedQuery

        calls = []
        summary = PreparedQuery.plan_summary

        def counted(prepared):
            calls.append(prepared)
            return summary(prepared)

        monkeypatch.setattr(PreparedQuery, "plan_summary", counted)
        monitor = policy_scenario.monitor
        monitor.set_tracing(False)
        assert monitor.execute_with_report(self.SQL, "p6").trace is None
        assert calls == []
        monitor.set_tracing(True)
        traced = monitor.execute_with_report(self.SQL, "p6")
        assert len(calls) == 1
        assert traced.trace.find("plan").attrs["nodes"] == {
            "PolicyGuard": 1, "SeqScan": 1,
        }
