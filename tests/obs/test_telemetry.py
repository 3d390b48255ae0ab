"""End-to-end telemetry: trainer ``telemetry=`` and the train CLI."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.__main__ import main
from repro.core import RRRETrainer, fast_config
from repro.data import load_dataset, train_test_split
from repro.obs import SCHEMA_VERSION, RunReport, read_events


@pytest.fixture(scope="module")
def split():
    dataset = load_dataset("yelpchi", seed=0, scale=0.2)
    train, test = train_test_split(dataset, seed=0)
    return dataset, train, test


@pytest.fixture(scope="module")
def telemetry_trainer(split):
    dataset, train, test = split
    trainer = RRRETrainer(fast_config(epochs=2, seed=0))
    trainer.fit(dataset, train, test, telemetry=True)
    return trainer


class TestTrainerTelemetry:
    def test_report_populated(self, telemetry_trainer):
        report = telemetry_trainer.report
        assert isinstance(report, RunReport)
        assert len(report.history) == 2
        assert report.dataset["name"] == "yelpchi"
        assert report.config["epochs"] == 2
        assert report.model["parameters"] > 0
        assert report.model["components"]

    def test_report_has_layer_profiles(self, telemetry_trainer):
        layers = {l["name"]: l for l in telemetry_trainer.report.layers}
        assert "model" in layers
        assert any(name.startswith("model.") for name in layers)
        assert any(l["forward_seconds"] > 0 for l in layers.values())
        assert any(l["backward_seconds"] > 0 for l in layers.values())

    def test_report_timers_and_backward(self, telemetry_trainer):
        report = telemetry_trainer.report
        assert "fit.vocab" in report.timers
        assert "fit.epoch.train" in report.timers
        assert report.timers["fit.epoch.train"]["count"] == 2
        assert report.backward["passes"] > 0
        assert report.backward["tape_nodes"] > 0

    def test_report_eval_metrics_and_history_metrics(self, telemetry_trainer):
        report = telemetry_trainer.report
        assert "brmse" in report.eval_metrics
        assert report.history[-1]["eval_metrics"] == report.eval_metrics
        assert all(r["grad_norm"] > 0 for r in report.history)

    def test_report_round_trips_through_json(self, telemetry_trainer, tmp_path):
        report = telemetry_trainer.report
        path = report.save(tmp_path / "run.json")
        assert RunReport.load(path).to_dict() == report.to_dict()

    def test_fit_without_telemetry_keeps_report_none(self, split):
        import repro.nn as nn

        dataset, train, _ = split
        trainer = RRRETrainer(fast_config(epochs=1, seed=0))
        trainer.fit(dataset, train)
        assert trainer.report is None
        assert nn.Module._active_profiler is None

    def test_history_unaffected_by_telemetry(self, split, telemetry_trainer):
        """Telemetry must not change training numerics: bitwise, not approx."""
        dataset, train, test = split
        plain = RRRETrainer(fast_config(epochs=2, seed=0)).fit(dataset, train, test)
        hooked = telemetry_trainer
        plain_state, hooked_state = plain.model.state_dict(), hooked.model.state_dict()
        assert sorted(plain_state) == sorted(hooked_state)
        for key in plain_state:
            np.testing.assert_array_equal(hooked_state[key], plain_state[key], err_msg=key)
        assert len(hooked.history) == len(plain.history) == 2
        for ours, theirs in zip(hooked.history, plain.history):
            ours, theirs = asdict(ours), asdict(theirs)
            ours.pop("seconds"), theirs.pop("seconds")
            assert ours == theirs
        # The profiler's probes pass the gradient on into planned layers.
        bilstm = [l for l in hooked.report.layers if l["name"].endswith(".bilstm")]
        assert len(bilstm) == 2
        assert all(l["backward_seconds"] > 0 for l in bilstm), bilstm

    def test_layer_rows_are_layers_that_ran(self, telemetry_trainer):
        """The planned BiLSTM bypasses its LSTM children: they get no row."""
        layers = telemetry_trainer.report.layers
        names = [l["name"] for l in layers]
        assert not [n for n in names if "forward_lstm" in n or "backward_lstm" in n]
        assert all(l["calls"] > 0 for l in layers)

    def test_report_carries_health_and_metrics(self, telemetry_trainer):
        report = telemetry_trainer.report
        assert report.schema_version == SCHEMA_VERSION
        assert report.health["status"] in ("ok", "warn", "critical")
        assert set(report.health["monitors"]) >= {
            "gradient_drift", "dead_units", "attention_entropy", "calibration_drift",
        }
        monitors = report.health["monitors"]
        assert monitors["gradient_drift"]["observations"] == 2
        assert monitors["calibration_drift"]["observations"] == 2
        assert monitors["attention_entropy"]["observations"] == 2
        assert "repro_epochs_total" in report.metrics
        total = report.metrics["repro_epochs_total"]["samples"][0]["value"]
        assert total == 2.0
        assert "repro_batches_total" in report.metrics
        assert "repro_epoch_seconds" in report.metrics

    def test_metrics_registry_exposed_on_trainer(self, telemetry_trainer):
        registry = telemetry_trainer.metrics_registry
        assert registry is not None
        text = registry.to_prometheus()
        assert "# TYPE repro_epoch_seconds histogram" in text
        assert "repro_epochs_total 2" in text
        assert telemetry_trainer.health is not None


class TestTrainCli:
    def test_train_writes_report_json(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        code = main(
            [
                "train",
                "--dataset",
                "yelpchi",
                "--scale",
                "0.2",
                "--epochs",
                "1",
                "--profile",
                "--report-json",
                str(out),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "Run report" in stdout
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["dataset"]["name"] == "yelpchi"
        assert len(payload["history"]) == 1
        assert payload["layers"]

    def test_list_mentions_train(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.split()[0] == "train" for line in lines if line.strip())

    def test_report_json_rejected_for_all(self, tmp_path, capsys):
        code = main(["all", "--report-json", str(tmp_path / "x.json")])
        assert code == 2


class TestTracedTrainCli:
    """The acceptance path: train --events → spans + prom dump + v2 report."""

    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("traced")
        events = tmp / "run.jsonl"
        report = tmp / "report.json"
        code = main(
            [
                "train", "--dataset", "yelpchi", "--scale", "0.2",
                "--epochs", "2", "--events", str(events),
                "--report-json", str(report),
            ]
        )
        assert code == 0
        return events, report

    def test_event_stream_covers_all_span_kinds(self, traced_run):
        events, _ = traced_run
        parsed = read_events(events)
        kinds = {e["kind"] for e in parsed if e["event"] == "span_begin"}
        assert {"data", "epoch", "eval", "rank"} <= kinds
        names = {e["name"] for e in parsed if e["event"] == "point"}
        assert {"run_start", "epoch", "run_end"} <= names
        # Every event belongs to the same trace.
        assert len({e["trace"] for e in parsed}) == 1

    def test_epoch_events_carry_losses(self, traced_run):
        events, _ = traced_run
        epochs = [
            e["attrs"] for e in read_events(events)
            if e["event"] == "point" and e["name"] == "epoch"
        ]
        assert len(epochs) == 2
        assert all("train_loss" in e and "brmse" in e for e in epochs)

    def test_prometheus_dump_written(self, traced_run):
        events, _ = traced_run
        prom = events.with_name(events.name + ".prom")
        text = prom.read_text()
        assert "# TYPE repro_epoch_seconds histogram" in text
        assert "repro_epochs_total 2" in text

    def test_report_is_v2_with_health(self, traced_run):
        _, report = traced_run
        payload = json.loads(report.read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert set(payload["health"]["monitors"]) >= {
            "gradient_drift", "dead_units", "attention_entropy", "calibration_drift",
        }
        assert "repro_epochs_total" in payload["metrics"]

    def test_watch_renders_the_stream(self, traced_run, capsys):
        events, _ = traced_run
        assert main(["watch", str(events)]) == 0
        out = capsys.readouterr().out
        assert "dataset=yelpchi" in out
        assert "status=finished" in out

    def test_list_mentions_watch(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.split()[0] == "watch" for line in lines if line.strip())
