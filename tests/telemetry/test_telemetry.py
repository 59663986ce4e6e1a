"""Telemetry subsystem tests: metrics, spans, no-op strictness, wiring."""

import json

import pytest

from repro import telemetry
from repro.circuit.defects import FloatingNode, OpenLocation
from repro.core.analysis import ColumnFaultAnalyzer, SweepGrid


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts and ends disabled with empty global state."""
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def small_analyzer(**kwargs) -> ColumnFaultAnalyzer:
    grid = SweepGrid.make(r_min=3e3, r_max=3e6, n_r=3, n_u=3)
    return ColumnFaultAnalyzer(
        OpenLocation.BL_PRECHARGE_CELLS, grid=grid, **kwargs
    )


class TestDisabledIsStrictNoop:
    def test_helpers_touch_nothing(self):
        telemetry.count("c", 5)
        telemetry.gauge("g", 1.0)
        telemetry.observe("h", 2.0)
        assert telemetry.get_metrics().is_empty()

    def test_span_records_nothing(self):
        with telemetry.span("outer", a=1) as sp:
            sp.set(b=2)
            with telemetry.span("inner"):
                pass
        assert telemetry.get_tracer().spans == []

    def test_timer_records_nothing(self):
        with telemetry.timer("t"):
            pass
        assert telemetry.get_metrics().is_empty()

    def test_instrumented_survey_records_nothing(self):
        analyzer = small_analyzer()
        analyzer.survey(floating=FloatingNode.BIT_LINE, probes=("1r1",))
        assert telemetry.get_metrics().is_empty()
        assert telemetry.get_tracer().spans == []

    def test_report_render_has_no_timing_block(self):
        from repro.experiments.fig3 import run_fig3

        report = run_fig3(n_r=4, n_u=4).report
        assert report.timing is None
        assert "timing" not in report.render()


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        telemetry.enable()
        telemetry.count("events")
        telemetry.count("events", 4)
        telemetry.gauge("level", 7.5)
        for v in (1.0, 3.0):
            telemetry.observe("sizes", v)
        reg = telemetry.get_metrics()
        assert reg.counter_value("events") == 5
        assert reg.gauge_value("level") == 7.5
        hist = reg.histogram("sizes").snapshot()
        assert hist == {
            "count": 2, "sum": 4.0, "min": 1.0, "max": 3.0, "mean": 2.0,
            "p50": 1.0, "p95": 3.0, "p99": 3.0, "samples": [1.0, 3.0],
        }

    def test_counter_value_defaults_to_zero(self):
        assert telemetry.get_metrics().counter_value("never") == 0

    def test_snapshot_and_reset(self):
        telemetry.enable()
        telemetry.count("a")
        snap = telemetry.get_metrics().snapshot()
        assert snap["counters"]["a"] == 1
        telemetry.reset()
        assert telemetry.get_metrics().is_empty()

    def test_timer_observes_wall_seconds(self):
        telemetry.enable()
        with telemetry.timer("block.seconds"):
            pass
        hist = telemetry.get_metrics().histogram("block.seconds")
        assert hist.count == 1
        assert hist.total >= 0.0


class TestTracer:
    def test_nesting_and_jsonl_round_trip(self, tmp_path):
        telemetry.enable()
        with telemetry.span("outer", kind="demo") as outer:
            outer.set(extra=3)
            with telemetry.span("inner", idx=1):
                pass
        path = tmp_path / "trace.jsonl"
        n = telemetry.get_tracer().export_jsonl(str(path))
        assert n == 2
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        by_name = {l["name"]: l for l in lines}
        assert by_name["outer"]["parent"] is None
        assert by_name["outer"]["depth"] == 0
        assert by_name["outer"]["attrs"] == {"kind": "demo", "extra": 3}
        assert by_name["inner"]["parent"] == by_name["outer"]["span"]
        assert by_name["inner"]["depth"] == 1
        assert by_name["inner"]["attrs"] == {"idx": 1}
        for line in lines:
            assert line["duration"] >= 0.0

    def test_spans_are_start_ordered(self):
        telemetry.enable()
        with telemetry.span("first"):
            pass
        with telemetry.span("second"):
            with telemetry.span("second.child"):
                pass
        names = [s.name for s in telemetry.get_tracer().spans]
        assert names == ["first", "second", "second.child"]

    def test_spans_named_prefix(self):
        telemetry.enable()
        with telemetry.span("experiment.fig3"):
            pass
        with telemetry.span("analyzer.survey"):
            pass
        named = telemetry.get_tracer().spans_named("experiment")
        assert [s.name for s in named] == ["experiment.fig3"]

    def test_error_is_annotated(self):
        telemetry.enable()
        with pytest.raises(RuntimeError):
            with telemetry.span("doomed"):
                raise RuntimeError("boom")
        (span,) = telemetry.get_tracer().spans
        assert span.attrs["error"] == "RuntimeError"

    def test_broken_finalization_does_not_mask_the_body_exception(
        self, monkeypatch
    ):
        # Regression: when the span body raises AND _finish blows up
        # (corrupted tracer state), the caller must still see the body's
        # exception — not the finalization's.
        telemetry.enable()
        tracer = telemetry.get_tracer()

        def broken_finish(span):
            raise ZeroDivisionError("tracer stack corrupted")

        monkeypatch.setattr(tracer, "_finish", broken_finish)
        with pytest.raises(RuntimeError, match="the real failure"):
            with telemetry.span("doomed"):
                raise RuntimeError("the real failure")

    def test_broken_finalization_still_raises_on_clean_exit(
        self, monkeypatch
    ):
        # With no in-flight exception there is nothing to mask: a broken
        # finalization must surface, not be swallowed.
        telemetry.enable()
        tracer = telemetry.get_tracer()

        def broken_finish(span):
            raise ZeroDivisionError("tracer stack corrupted")

        monkeypatch.setattr(tracer, "_finish", broken_finish)
        with pytest.raises(ZeroDivisionError):
            with telemetry.span("fine"):
                pass


class TestSurveyMetricsSelfConsistent:
    def test_hits_plus_misses_equals_observe_calls(self):
        telemetry.enable()
        analyzer = small_analyzer()
        analyzer.survey(floating=FloatingNode.BIT_LINE, probes=("1r1",))
        analyzer.survey(floating=FloatingNode.BIT_LINE, probes=("1r1",))
        reg = telemetry.get_metrics()
        calls = reg.counter_value("analyzer.observe_calls")
        hits = reg.counter_value("analyzer.cache_hits")
        misses = reg.counter_value("analyzer.cache_misses")
        assert calls == 18  # two surveys x 3x3 grid
        assert hits + misses == calls
        assert misses == 9  # second survey fully cached
        assert hits == 9
        assert reg.counter_value("analyzer.sos_executions") == misses
        assert reg.counter_value("analyzer.grid_points") == calls
        info = analyzer.cache_info()
        assert (info.hits, info.misses) == (hits, misses)
        assert reg.gauge_value("analyzer.cache_size") == info.currsize

    def test_coarse_table1_counters_are_pinned(self):
        """Per-tile counting keeps every per-point total of a cold run."""
        from repro.experiments.table1 import run_table1

        telemetry.enable()
        run_table1(n_r=8, n_u=6)
        reg = telemetry.get_metrics()
        calls = reg.counter_value("analyzer.observe_calls")
        hits = reg.counter_value("analyzer.cache_hits")
        misses = reg.counter_value("analyzer.cache_misses")
        assert (calls, hits, misses) == (14148, 2100, 12048)
        assert hits + misses == calls
        assert reg.counter_value("analyzer.sos_executions") == 12048
        assert reg.counter_value("analyzer.grid_points") == 14148
        assert reg.counter_value("analyzer.grid_tiles") == 692
        assert reg.gauge_value("analyzer.cache_size") == 1392

    def test_survey_emits_solver_and_column_counters_and_span(self):
        telemetry.enable()
        analyzer = small_analyzer()
        analyzer.survey(floating=FloatingNode.BIT_LINE, probes=("1r1",))
        reg = telemetry.get_metrics()
        # The grid engine settles whole tiles at once; scalar settles only
        # happen on demoted points, so either counter may carry the work.
        settles = (
            reg.counter_value("solver.settles")
            + reg.counter_value("solver.grid_settles")
        )
        assert settles > 0
        assert reg.counter_value("column.reads") > 0
        (span,) = telemetry.get_tracer().spans_named("analyzer.survey")
        assert span.attrs["location"] == "BL_PRECHARGE_CELLS"
        assert span.attrs["probes"] == 1


class TestProfiler:
    def test_profiled_report_names_hot_functions(self):
        from repro.telemetry import profiled

        def busy():
            return sum(i * i for i in range(1000))

        with profiled() as prof:
            busy()
        assert "busy" in prof.report()
