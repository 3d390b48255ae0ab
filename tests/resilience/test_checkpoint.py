"""Unit tests for TrainState persistence: atomicity, rotation, fallback."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.core import RRREConfig
from repro.resilience import (
    CheckpointCorrupt,
    CheckpointError,
    CheckpointManager,
    TrainState,
    capture_rng_states,
    check_config_compatible,
    restore_rng_states,
)


def make_state(epoch=1, seed=0):
    rng = np.random.default_rng(seed)
    return TrainState(
        epoch=epoch,
        model_state={"w": rng.normal(size=(4, 3)), "b": rng.normal(size=(3,))},
        optimizer_state={
            "type": "Adam",
            "lr": 0.004,
            "weight_decay": 1e-5,
            "hyper": {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "step_count": 7},
            "state": [
                {"m": rng.normal(size=(4, 3)), "v": rng.normal(size=(4, 3)) ** 2},
                {"m": rng.normal(size=(3,)), "v": rng.normal(size=(3,)) ** 2},
            ],
        },
        rng_states={"trainer": np.random.default_rng(5).bit_generator.state, "modules": {}},
        history=[{"epoch": epoch, "train_loss": 1.25, "eval_metrics": {"auc": 0.9}}],
        config={"lr": 0.004, "epochs": 8, "encoder": "bilstm"},
        retries=2,
        metrics={"auc": 0.9},
    )


class TestRoundTrip:
    def test_save_load_exact(self, tmp_path):
        manager = CheckpointManager(tmp_path, fsync=False)
        state = make_state(epoch=3)
        manifest = manager.save(state)
        assert manifest.exists()
        loaded = manager.load(manifest)
        assert loaded.epoch == 3
        assert loaded.retries == 2
        for key, value in state.model_state.items():
            np.testing.assert_array_equal(loaded.model_state[key], value)
        assert loaded.optimizer_state["type"] == "Adam"
        assert loaded.optimizer_state["hyper"]["step_count"] == 7
        for saved, restored in zip(
            state.optimizer_state["state"], loaded.optimizer_state["state"]
        ):
            for slot in saved:
                np.testing.assert_array_equal(restored[slot], saved[slot])
        assert loaded.rng_states == state.rng_states
        assert loaded.history == state.history
        assert loaded.config == state.config

    def test_no_temp_files_left(self, tmp_path):
        manager = CheckpointManager(tmp_path, fsync=False)
        manager.save(make_state())
        leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".")]
        assert leftovers == []

    def test_manifest_carries_hash_and_schema(self, tmp_path):
        manager = CheckpointManager(tmp_path, fsync=False)
        manifest_path = manager.save(make_state(epoch=2))
        manifest = json.loads(manifest_path.read_text())
        assert manifest["schema_version"] == 1
        assert manifest["epoch"] == 2
        assert len(manifest["sha256"]) == 64
        assert manifest["payload"] == "ckpt-000002.npz"
        assert manifest["payload_bytes"] > 0

    def test_manifest_with_scheduler_key_loads(self, tmp_path):
        # Manifests written before the scheduler state was dropped carry
        # ``"scheduler": null``; the key is ignored, not an error.
        manager = CheckpointManager(tmp_path, fsync=False)
        manifest_path = manager.save(make_state(epoch=4))
        manifest = json.loads(manifest_path.read_text())
        assert "scheduler" not in manifest
        manifest["scheduler"] = None
        manifest_path.write_text(json.dumps(manifest))
        loaded = manager.load(manifest_path)
        assert loaded.epoch == 4
        assert loaded.optimizer_state["hyper"]["step_count"] == 7


class TestRetention:
    def test_rotation_keeps_newest(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2, fsync=False)
        for epoch in range(1, 6):
            manager.save(make_state(epoch=epoch))
        stems = sorted(p.stem for p in tmp_path.glob("ckpt-*.json"))
        assert stems == ["ckpt-000004", "ckpt-000005"]
        # Payloads rotate together with their manifests.
        assert sorted(p.stem for p in tmp_path.glob("ckpt-*.npz")) == stems

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, keep=0)


class TestCorruption:
    def test_hash_mismatch_detected(self, tmp_path):
        manager = CheckpointManager(tmp_path, fsync=False)
        manifest = manager.save(make_state(epoch=1))
        payload = manifest.with_suffix(".npz")
        payload.write_bytes(payload.read_bytes()[:-20] + b"x" * 20)
        with pytest.raises(CheckpointCorrupt, match="hash mismatch"):
            manager.load(manifest)

    def test_truncated_payload_detected(self, tmp_path):
        manager = CheckpointManager(tmp_path, fsync=False)
        manifest = manager.save(make_state(epoch=1))
        payload = manifest.with_suffix(".npz")
        payload.write_bytes(payload.read_bytes()[: payload.stat().st_size // 2])
        with pytest.raises(CheckpointCorrupt):
            manager.load(manifest)

    def test_latest_good_falls_back(self, tmp_path):
        manager = CheckpointManager(tmp_path, fsync=False)
        manager.save(make_state(epoch=1, seed=1))
        newest = manager.save(make_state(epoch=2, seed=2))
        newest.with_suffix(".npz").write_bytes(b"garbage")
        state = manager.latest_good()
        assert state is not None and state.epoch == 1
        # The corrupt checkpoint is renamed aside so it is never retried.
        assert manager.corrupt == [newest]
        assert not newest.exists()
        assert (tmp_path / "ckpt-000002.json.corrupt").exists()

    def test_latest_good_empty_dir(self, tmp_path):
        assert CheckpointManager(tmp_path, fsync=False).latest_good() is None

    def test_missing_payload(self, tmp_path):
        manager = CheckpointManager(tmp_path, fsync=False)
        manifest = manager.save(make_state(epoch=1))
        manifest.with_suffix(".npz").unlink()
        with pytest.raises(CheckpointCorrupt, match="missing"):
            manager.load(manifest)

    def test_failed_write_leaves_nothing_visible(self, tmp_path):
        def explode(epoch):
            raise OSError("disk full")

        manager = CheckpointManager(tmp_path, fsync=False, fault_hook=explode)
        with pytest.raises(CheckpointError, match="disk full"):
            manager.save(make_state(epoch=1))
        assert list(tmp_path.iterdir()) == []


class TestRngStates:
    def test_capture_restore_roundtrip(self):
        rng = np.random.default_rng(42)
        rng.random(17)  # advance the stream
        states = capture_rng_states(rng)
        expected = rng.random(5)
        fresh = np.random.default_rng(0)
        restore_rng_states(states, fresh)
        np.testing.assert_array_equal(fresh.random(5), expected)

    def test_json_roundtrip_preserves_stream(self):
        rng = np.random.default_rng(7)
        rng.random(3)
        states = json.loads(json.dumps(capture_rng_states(rng)))
        expected = rng.random(4)
        fresh = np.random.default_rng(0)
        restore_rng_states(states, fresh)
        np.testing.assert_array_equal(fresh.random(4), expected)

    def test_module_stream_requires_model(self):
        rng = np.random.default_rng(0)
        states = {"trainer": rng.bit_generator.state, "modules": {"drop": {}}}
        with pytest.raises(CheckpointError):
            restore_rng_states(states, rng, model=None)


class TestConfigCompatibility:
    def test_epochs_ignored(self):
        assert check_config_compatible({"epochs": 3, "lr": 0.1}, {"epochs": 9, "lr": 0.1}) == []

    def test_architecture_mismatch_reported(self):
        problems = check_config_compatible(
            {"encoder": "bilstm", "epochs": 3}, {"encoder": "cnn", "epochs": 3}
        )
        assert problems and "encoder" in problems[0]
        # Every checkpoint written while RRREConfig still had these two
        # fields saved them in its config; such a checkpoint is refused.
        current = asdict(RRREConfig())
        saved = dict(current, share_word_embeddings=True, extras={})
        assert check_config_compatible(saved, current) == [
            "config key 'extras' missing from current config",
            "config key 'share_word_embeddings' missing from current config",
        ]
