"""Phase timers: the report's ``timers`` view over phase span durations."""

import time

import pytest

from repro.obs import RunObserver, timer_stats
from repro.obs.report import TIMER_EMA_ALPHA


def _timers(observer):
    return observer.finish([]).timers


class TestNesting:
    def test_sibling_scopes_do_not_nest(self):
        observer = RunObserver(telemetry=True)
        with observer.phase("a", "phase"):
            pass
        with observer.phase("b", "phase"):
            pass
        assert sorted(_timers(observer)) == ["a", "b"]

    def test_dotted_names_pass_through(self):
        observer = RunObserver(telemetry=True)
        with observer.phase("fit.epoch.train", "epoch"):
            pass
        assert sorted(_timers(observer)) == ["fit.epoch.train"]

    def test_scope_pops_on_exception(self):
        observer = RunObserver(telemetry=True)
        with pytest.raises(RuntimeError):
            with observer.phase("outer", "phase"):
                raise RuntimeError("boom")
        # The span closed: a new phase is top-level again.
        with observer.phase("after", "phase"):
            pass
        assert observer.tracer.current_span() is None
        timers = _timers(observer)
        assert timers["outer"]["count"] == 1
        assert timers["after"]["count"] == 1


class TestStatMath:
    def test_count_total_mean_min_max(self):
        stat = timer_stats([1.0, 3.0, 2.0])
        assert stat["count"] == 3
        assert stat["total"] == pytest.approx(6.0)
        assert stat["mean"] == pytest.approx(2.0)
        assert stat["min"] == pytest.approx(1.0)
        assert stat["max"] == pytest.approx(3.0)
        assert stat["last"] == pytest.approx(2.0)

    def test_ema_seeds_with_first_value_then_smooths(self):
        assert timer_stats([4.0])["ema"] == pytest.approx(4.0)
        # ema += alpha * (0 - 4)
        expected = 4.0 - TIMER_EMA_ALPHA * 4.0
        assert timer_stats([4.0, 0.0])["ema"] == pytest.approx(expected)

    def test_timer_records_positive_elapsed(self):
        observer = RunObserver(telemetry=True)
        with observer.phase("sleep", "phase"):
            time.sleep(0.01)
        stat = _timers(observer)["sleep"]
        assert stat["total"] >= 0.009
        assert stat["count"] == 1

    def test_snapshot_is_json_shaped_and_detached(self):
        stat = timer_stats([1.0])
        assert set(stat) == {"count", "total", "mean", "ema", "min", "max", "last"}
        stat["count"] = 99
        assert timer_stats([1.0])["count"] == 1


def test_phase_is_a_noop_without_telemetry():
    observer = RunObserver(telemetry=False)
    with observer.phase("fit.vocab", "data"):
        pass
    assert observer.tracer is None
    assert observer.finish([]) is None
