"""Span tracing: nesting, sinks, the ambient tracer, observer phase spans."""

import json
import threading

import pytest

from repro.obs import (
    RunObserver,
    Tracer,
    current_tracer,
    emit_event,
    maybe_span,
    read_events,
    traced,
    use_tracer,
)


class TestSpans:
    def test_nesting_records_parents(self):
        tracer = Tracer()
        with tracer.span("outer", kind="phase"):
            with tracer.span("inner", kind="data"):
                pass
        begins = [e for e in tracer.events if e["event"] == "span_begin"]
        ends = [e for e in tracer.events if e["event"] == "span_end"]
        assert [e["name"] for e in begins] == ["outer", "inner"]
        assert begins[0]["parent"] is None
        assert begins[1]["parent"] == begins[0]["span"]
        assert {e["name"] for e in ends} == {"outer", "inner"}
        assert all(e["trace"] == tracer.trace_id for e in tracer.events)

    def test_end_reports_duration(self):
        tracer = Tracer()
        span = tracer.begin("work")
        duration = tracer.end(span)
        assert duration >= 0.0
        end = tracer.events[-1]
        assert end["duration"] == duration

    def test_point_events_attach_to_current_span(self):
        tracer = Tracer()
        with tracer.span("fit") as span:
            tracer.event("epoch", train_loss=4.2)
        point = next(e for e in tracer.events if e["event"] == "point")
        assert point["name"] == "epoch"
        assert point["parent"] == span.span_id
        assert point["attrs"] == {"train_loss": 4.2}

    def test_span_closed_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.events[-1]["event"] == "span_end"
        assert tracer.current_span() is None

    def test_thread_local_stacks(self):
        tracer = Tracer()
        seen = {}

        def worker():
            seen["parent_in_thread"] = tracer.current_span()

        with tracer.span("main-span"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["parent_in_thread"] is None


class TestFileSink:
    def test_writes_jsonl(self, tmp_path):
        path = tmp_path / "nested" / "run.jsonl"
        with Tracer(path) as tracer:
            with tracer.span("fit", kind="phase"):
                tracer.event("epoch", loss=1.0)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert all(isinstance(json.loads(line), dict) for line in lines)

    def test_read_events_skips_garbage(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            '{"event": "point", "name": "a"}\n'
            "not json at all\n"
            "\n"
            '{"event": "point", "name": "b"}\n'
            '{"event": "point", "na'  # truncated mid-write
        )
        events = read_events(path)
        assert [e["name"] for e in events] == ["a", "b"]

    def test_close_is_idempotent(self, tmp_path):
        tracer = Tracer(tmp_path / "run.jsonl")
        tracer.close()
        tracer.close()


@pytest.fixture(scope="module")
def traced_kinds():
    """``{span name: kind}`` over a traced load → fit → recommend → explain."""
    from repro.core import RRRETrainer, explain_item, fast_config, recommend_items
    from repro.data import load_dataset, train_test_split

    tracer = Tracer()
    with use_tracer(tracer):
        dataset = load_dataset("yelpchi", seed=0, scale=0.1)
        train, test = train_test_split(dataset, seed=0)
        trainer = RRRETrainer(fast_config(epochs=1, seed=0, pretrain_words=True))
        trainer.fit(dataset, train, test, telemetry=True)
        recommend_items(trainer, user_id=0, top_k=3)
        explain_item(trainer, item_id=0)
    return {e["name"]: e["kind"] for e in tracer.events if e["event"] == "span_begin"}


class TestKindInference:
    """Every span carries its kind, given where the span is opened."""

    @pytest.mark.parametrize(
        "path,kind",
        [
            ("fit.epoch.eval", "eval"),
            ("fit.epoch.train", "epoch"),
            ("fit.vocab", "data"),
            ("fit.pretrain_words", "data"),
            ("data.load_dataset", "data"),
            ("data.generate_platform", "data"),
            ("rank.recommend_items", "rank"),
            ("rank.explain_item", "rank"),
        ],
    )
    def test_rules(self, traced_kinds, path, kind):
        assert traced_kinds[path] == kind


class TestObserverPhases:
    def test_phases_emit_spans_on_the_ambient_tracer(self):
        tracer = Tracer()
        with use_tracer(tracer):
            observer = RunObserver(telemetry=True)
        assert observer.tracer is tracer
        with observer.phase("fit.epoch.train", "epoch"):
            with observer.phase("fit.checkpoint", "phase"):
                pass
        begins = [e for e in tracer.events if e["event"] == "span_begin"]
        assert [(e["name"], e["kind"]) for e in begins] == [
            ("fit.epoch.train", "epoch"),
            ("fit.checkpoint", "phase"),
        ]
        assert begins[1]["parent"] == begins[0]["span"]
        # The report's timers are the spans' durations, keyed by name.
        ends = {e["name"]: e["duration"] for e in tracer.events if e["event"] == "span_end"}
        timers = observer.finish([]).timers
        assert set(timers) == {"fit.epoch.train", "fit.checkpoint"}
        assert timers["fit.checkpoint"]["total"] == ends["fit.checkpoint"]


class TestAmbientTracer:
    def test_off_by_default(self):
        assert current_tracer() is None
        with maybe_span("anything"):
            pass  # no-op context
        emit_event("dropped")  # silently ignored

    def test_use_tracer_scopes(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
            with maybe_span("load", kind="data"):
                emit_event("mark", x=1)
        assert current_tracer() is None
        names = [e["name"] for e in tracer.events]
        assert names == ["load", "mark", "load"]

    def test_traced_decorator(self):
        tracer = Tracer()

        @traced("rank.recommend_items", kind="rank")
        def fn(x):
            return x * 2

        assert fn(2) == 4  # works with tracing off
        with use_tracer(tracer):
            assert fn(3) == 6
        begin = tracer.events[0]
        assert begin["name"] == "rank.recommend_items"
        assert begin["kind"] == "rank"

    def test_traced_default_name(self):
        tracer = Tracer()

        @traced()
        def helper():
            return 1

        with use_tracer(tracer):
            helper()
        assert tracer.events[0]["name"] == "helper"
