"""Versioned training checkpoints: atomic writes, manifests, fallback.

A checkpoint is a :class:`TrainState` bundle — model weights, the Adam
moments, RNG streams, epoch counter, and training history — persisted
as a pair of files:

``ckpt-<epoch>.npz``
    Every array of the bundle, flattened under ``model/<name>`` and
    ``optim/<index>/<slot>`` keys.
``ckpt-<epoch>.json``
    The manifest: schema version, epoch/retry counters, the full config,
    JSON-serializable RNG states, optimizer hyper-parameters, history,
    and the SHA-256 of the payload file.

Writes are atomic: both files are written to dot-prefixed temporaries,
fsync'd, and renamed — payload first, manifest last — so a crash at any
point leaves either a complete checkpoint or an invisible orphan, never
a half-written one.  The manifest's content hash lets
:meth:`CheckpointManager.latest_good` detect corruption (bit rot,
truncation) and fall back to the newest intact checkpoint, renaming the
bad one out of the way.  Retention keeps the newest ``keep`` bundles.

The module is dependency-light on purpose (numpy + stdlib only): it is
imported by :mod:`repro.core.trainer` and must not pull in ``repro.obs``
or ``repro.core`` itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

#: Bump when the on-disk layout changes incompatibly.
SCHEMA_VERSION = 1

#: Manifest keys that must be present for a checkpoint to be loadable.
_MANIFEST_KEYS = (
    "schema_version",
    "epoch",
    "payload",
    "sha256",
    "config",
    "rng_states",
    "optimizer",
    "history",
)


class CheckpointError(RuntimeError):
    """A checkpoint could not be written or read."""


class CheckpointCorrupt(CheckpointError):
    """A checkpoint exists on disk but fails integrity verification."""


@dataclass
class TrainState:
    """Everything needed to continue a training run mid-flight.

    ``model_state`` and the array slots inside ``optimizer_state`` are
    private copies (both :meth:`repro.nn.Module.state_dict` and
    :meth:`repro.nn.Adam.state_dict` copy), so a held ``TrainState``
    is immune to subsequent training steps — the in-memory rollback
    anchor of the divergence guard relies on this.
    """

    #: Number of fully completed epochs at snapshot time.
    epoch: int
    #: ``repro.nn.Module.state_dict()`` of the model.
    model_state: Dict[str, np.ndarray]
    #: ``repro.nn.Adam.state_dict()`` of the optimizer.
    optimizer_state: Dict[str, Any]
    #: RNG streams captured by :func:`capture_rng_states`.
    rng_states: Dict[str, Any]
    #: ``asdict(EpochRecord)`` rows of the history so far.
    history: List[Dict[str, Any]]
    #: ``asdict`` of the run's config, for compatibility checking.
    config: Dict[str, Any]
    #: Divergence retries consumed so far (survives resume).
    retries: int = 0
    #: Eval-metric snapshot of the newest history row, for manifests.
    metrics: Dict[str, float] = field(default_factory=dict)


# ----------------------------------------------------------------------
# RNG capture/restore
# ----------------------------------------------------------------------
def capture_rng_states(trainer_rng: np.random.Generator, model=None) -> Dict[str, Any]:
    """Snapshot every RNG stream a training step consumes.

    ``trainer_rng`` drives batch shuffling; the model contributes the
    generator(s) behind its dropout layers (any module exposing a
    ``_rng`` :class:`numpy.random.Generator`).  The returned dict is
    JSON-serializable (bit-generator states are plain dicts of ints).
    """
    states: Dict[str, Any] = {"trainer": trainer_rng.bit_generator.state, "modules": {}}
    if model is not None:
        for name, module in model.named_modules():
            rng = getattr(module, "_rng", None)
            if isinstance(rng, np.random.Generator):
                states["modules"][name or "<root>"] = rng.bit_generator.state
    return states


def restore_rng_states(
    states: Dict[str, Any], trainer_rng: np.random.Generator, model=None
) -> None:
    """Restore streams captured by :func:`capture_rng_states` in place.

    Module streams are matched by dotted module name; a saved stream
    whose module no longer exists raises :class:`CheckpointError` (a
    silent partial restore would break bitwise resume determinism).
    """
    trainer_rng.bit_generator.state = states["trainer"]
    saved = dict(states.get("modules", {}))
    if not saved:
        return
    if model is None:
        raise CheckpointError("rng state has module streams but no model was given")
    modules = {name or "<root>": module for name, module in model.named_modules()}
    for name, state in saved.items():
        module = modules.get(name)
        rng = getattr(module, "_rng", None) if module is not None else None
        if not isinstance(rng, np.random.Generator):
            raise CheckpointError(f"no RNG stream at module {name!r} to restore into")
        rng.bit_generator.state = state


#: Config keys a resumed run may change.
RESUMABLE_CONFIG_KEYS = ("epochs",)


def check_config_compatible(saved: Dict[str, Any], current: Dict[str, Any]) -> List[str]:
    """Compare two config dicts; returns human-readable mismatches.

    ``epochs`` (:data:`RESUMABLE_CONFIG_KEYS`) is ignored so a resumed
    run may extend (or shorten) the schedule; everything else must match
    because it shapes the architecture or the data pipeline the weights
    were trained on.
    A key on one side only is reported by name, so a checkpoint whose
    config still carries a since-removed field is refused.
    """
    problems: List[str] = []
    for key in sorted(set(saved) | set(current)):
        if key in RESUMABLE_CONFIG_KEYS:
            continue
        if key not in saved:
            problems.append(f"config key {key!r} missing from checkpoint")
        elif key not in current:
            problems.append(f"config key {key!r} missing from current config")
        elif saved[key] != current[key]:
            problems.append(
                f"config key {key!r} differs: checkpoint={saved[key]!r} "
                f"current={current[key]!r}"
            )
    return problems


# ----------------------------------------------------------------------
# Manager
# ----------------------------------------------------------------------
def _json_default(obj):
    """Manifest JSON fallback: numpy scalars → exact builtin equivalents.

    ``float(np.float64)`` is lossless and ``json`` round-trips Python
    floats via shortest-repr, so manifest values restore bit-exactly.
    """
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_file(path) -> str:
    """Streaming SHA-256 of one file — the repo-wide content-hash helper.

    Shared by checkpoint manifests and the serving store's versioned
    export (``repro.serve.store``), so every integrity check in the
    system uses the same digest.
    """
    return _sha256(Path(path))


def _fsync_file(path: Path) -> None:
    with open(path, "rb+") as fh:
        fh.flush()
        os.fsync(fh.fileno())


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class CheckpointManager:
    """Write, rotate, verify, and reload :class:`TrainState` bundles.

    Parameters
    ----------
    directory:
        Checkpoint directory (created if missing).
    keep:
        Retention: newest ``keep`` checkpoints survive rotation.
    fsync:
        Flush files and the directory to stable storage on save; tests
        may disable it for speed.
    fault_hook:
        Optional callable invoked with the checkpoint's epoch right
        before the payload rename — the chaos harness uses it to
        simulate failing writes; a raised exception aborts the save and
        leaves no visible checkpoint behind.
    """

    def __init__(
        self,
        directory,
        keep: int = 3,
        fsync: bool = True,
        fault_hook: Optional[Callable[[int], None]] = None,
    ) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self.fsync = fsync
        self.fault_hook = fault_hook
        #: Manifest paths detected as corrupt by :meth:`latest_good`.
        self.corrupt: List[Path] = []

    # -- naming --------------------------------------------------------
    def _stem(self, epoch: int) -> str:
        return f"ckpt-{epoch:06d}"

    def manifests(self) -> List[Path]:
        """Manifest paths, oldest first."""
        return sorted(self.directory.glob("ckpt-*.json"))

    # -- save ----------------------------------------------------------
    def save(self, state: TrainState) -> Path:
        """Atomically persist ``state``; returns the manifest path."""
        stem = self._stem(state.epoch)
        payload_final = self.directory / f"{stem}.npz"
        manifest_final = self.directory / f"{stem}.json"
        payload_tmp = self.directory / f".{stem}.npz.tmp"
        manifest_tmp = self.directory / f".{stem}.json.tmp"

        arrays: Dict[str, np.ndarray] = {}
        for name, value in state.model_state.items():
            arrays[f"model/{name}"] = np.asarray(value)
        optimizer_meta = dict(state.optimizer_state)
        slot_rows = optimizer_meta.pop("state", [])
        slot_names: List[List[str]] = []
        for index, entry in enumerate(slot_rows):
            slot_names.append(sorted(entry))
            for slot, value in entry.items():
                arrays[f"optim/{index}/{slot}"] = np.asarray(value)
        optimizer_meta["slot_names"] = slot_names

        manifest = {
            "schema_version": SCHEMA_VERSION,
            "epoch": int(state.epoch),
            "retries": int(state.retries),
            "created": time.time(),  # lint: allow[TIME001] — manifest provenance stamp, outside the training path
            "payload": payload_final.name,
            "config": state.config,
            "rng_states": state.rng_states,
            "optimizer": optimizer_meta,
            "history": state.history,
            "metrics": state.metrics,
        }

        try:
            with open(payload_tmp, "wb") as fh:
                np.savez(fh, **arrays)
            if self.fsync:
                _fsync_file(payload_tmp)
            manifest["sha256"] = _sha256(payload_tmp)
            manifest["payload_bytes"] = payload_tmp.stat().st_size
            with open(manifest_tmp, "w", encoding="utf-8") as fh:
                json.dump(manifest, fh, default=_json_default)
                fh.write("\n")
                fh.flush()
                if self.fsync:
                    os.fsync(fh.fileno())
            if self.fault_hook is not None:
                self.fault_hook(state.epoch)
            # Payload becomes visible before the manifest: a manifest's
            # existence therefore implies a fully-written payload.
            os.replace(payload_tmp, payload_final)
            os.replace(manifest_tmp, manifest_final)
            if self.fsync:
                _fsync_dir(self.directory)
        except Exception as exc:
            for tmp in (payload_tmp, manifest_tmp):
                try:
                    tmp.unlink(missing_ok=True)
                except OSError:
                    pass
            raise CheckpointError(f"checkpoint save failed at epoch {state.epoch}: {exc}") from exc

        self._rotate()
        return manifest_final

    def _rotate(self) -> None:
        """Delete the oldest checkpoints beyond the retention window."""
        manifests = self.manifests()
        for manifest in manifests[: max(0, len(manifests) - self.keep)]:
            payload = manifest.with_suffix(".npz")
            for stale in (manifest, payload):
                try:
                    stale.unlink(missing_ok=True)
                except OSError:
                    pass

    # -- load ----------------------------------------------------------
    def load(self, manifest_path) -> TrainState:
        """Load and verify one checkpoint; raises on any inconsistency."""
        manifest_path = Path(manifest_path)
        try:
            with open(manifest_path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointCorrupt(f"{manifest_path}: unreadable manifest: {exc}") from exc
        missing = [key for key in _MANIFEST_KEYS if key not in manifest]
        if missing:
            raise CheckpointCorrupt(f"{manifest_path}: manifest missing keys {missing}")
        if manifest["schema_version"] != SCHEMA_VERSION:
            raise CheckpointError(
                f"{manifest_path}: unsupported schema_version "
                f"{manifest['schema_version']!r} (expected {SCHEMA_VERSION})"
            )
        payload = manifest_path.parent / manifest["payload"]
        if not payload.exists():
            raise CheckpointCorrupt(f"{manifest_path}: payload {payload.name} is missing")
        digest = _sha256(payload)
        if digest != manifest["sha256"]:
            raise CheckpointCorrupt(
                f"{manifest_path}: payload hash mismatch "
                f"(manifest {manifest['sha256'][:12]}…, actual {digest[:12]}…)"
            )
        try:
            with np.load(payload) as archive:
                arrays = {key: archive[key] for key in archive.files}
        except Exception as exc:
            raise CheckpointCorrupt(f"{payload}: unreadable payload: {exc}") from exc

        model_state = {
            key[len("model/"):]: value
            for key, value in arrays.items()
            if key.startswith("model/")
        }
        optimizer_state = dict(manifest["optimizer"])
        slot_names = optimizer_state.pop("slot_names", [])
        optimizer_state["state"] = [
            {slot: arrays[f"optim/{index}/{slot}"] for slot in names}
            for index, names in enumerate(slot_names)
        ]
        return TrainState(
            epoch=int(manifest["epoch"]),
            model_state=model_state,
            optimizer_state=optimizer_state,
            rng_states=manifest["rng_states"],
            history=manifest["history"],
            config=manifest["config"],
            retries=int(manifest.get("retries", 0)),
            metrics=manifest.get("metrics", {}),
        )

    def latest_good(self) -> Optional[TrainState]:
        """Newest checkpoint that passes verification, or ``None``.

        Corrupt checkpoints encountered on the way are renamed with a
        ``.corrupt`` suffix (best effort) and recorded in
        :attr:`corrupt` so they are skipped permanently instead of
        re-verified every call.
        """
        for manifest in reversed(self.manifests()):
            try:
                return self.load(manifest)
            except CheckpointCorrupt:
                self.corrupt.append(manifest)
                payload = manifest.with_suffix(".npz")
                for bad in (manifest, payload):
                    try:
                        if bad.exists():
                            bad.rename(bad.with_name(bad.name + ".corrupt"))
                    except OSError:
                        pass
        return None
