"""Training/evaluation loop for RRRE.

The trainer owns everything derived from a dataset: vocabulary, token
table, input slots, optional pretrained word vectors, the model, and the
optimizer.  It records per-epoch history (loss components, wall time,
and — when a test split is supplied — bRMSE/AUC/AP), which directly
feeds the Fig. 2-4 benchmarks.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.nn import Adam, clip_grad_norm
from repro.resilience import (
    ChaosEngine,
    CheckpointError,
    CheckpointManager,
    DivergenceGuard,
    DivergencePolicy,
    TrainState,
    capture_rng_states,
    check_config_compatible,
    restore_rng_states,
)
from repro.obs import HealthSuite, MetricsRegistry, RunObserver, RunReport

from ..data import (
    InputSlots,
    ReviewDataset,
    ReviewSubset,
    ReviewTextTable,
    iter_batches,
)
from ..metrics import (
    auc,
    average_precision,
    biased_rmse,
    expected_calibration_error,
    ndcg_at_k,
    rmse,
)
from ..text import train_skipgram
from .config import RRREConfig
from .losses import JointLossParts, joint_loss
from .model import RRRE
from .profiles import ProfileTable


class _EpochDiverged(Exception):
    """Internal: the divergence guard rejected a step or an epoch; it aborts."""

    def __init__(self, reason: str, value: float, epoch: int, step: int) -> None:
        super().__init__(reason)
        self.reason = reason
        self.value = value
        self.epoch = epoch
        self.step = step


def _as_guard(guard) -> Optional[DivergenceGuard]:
    """``fit(guard=...)`` as a guard: True, a policy, a guard, or off."""
    if guard is True:
        return DivergenceGuard()
    if isinstance(guard, DivergencePolicy):
        return DivergenceGuard(guard)
    return guard or None


@dataclass
class EpochRecord:
    """One row of training history."""

    epoch: int
    train_loss: float
    reliability_loss: float
    rating_loss: float
    seconds: float
    eval_metrics: Dict[str, float] = field(default_factory=dict)
    #: Mean pre-clip global gradient norm over the epoch's batches
    #: (free to record — clip_grad_norm computes it anyway).
    grad_norm: float = 0.0


class RRRETrainer:
    """Fit and apply RRRE on one dataset.

    Typical use::

        trainer = RRRETrainer(RRREConfig())
        trainer.fit(dataset, train, test)
        metrics = trainer.evaluate(test)
        ratings, reliabilities = trainer.predict_pairs(users, items)
    """

    def __init__(self, config: Optional[RRREConfig] = None) -> None:
        self.config = config or RRREConfig()
        self.model: Optional[RRRE] = None
        self.table: Optional[ReviewTextTable] = None
        self.slots: Optional[InputSlots] = None
        self.dataset: Optional[ReviewDataset] = None
        self.history: List[EpochRecord] = []
        #: Structured telemetry of the last :meth:`fit` call, populated
        #: only when ``fit(..., telemetry=True)``.
        self.report: Optional[RunReport] = None
        #: Metrics collected by the last telemetry-enabled :meth:`fit`;
        #: export with ``to_prometheus()``.
        self.metrics_registry: Optional[MetricsRegistry] = None
        #: Health monitors of the last telemetry-enabled :meth:`fit`.
        self.health: Optional[HealthSuite] = None
        self._profiles: Optional[ProfileTable] = None

    # ------------------------------------------------------------------
    def fit(
        self,
        dataset: ReviewDataset,
        train: ReviewSubset,
        test: Optional[ReviewSubset] = None,
        verbose: bool = False,
        telemetry: bool = False,
        checkpoint_dir=None,
        resume: bool = False,
        checkpoint_every: int = 1,
        keep_checkpoints: int = 3,
        guard: Union[None, bool, DivergencePolicy, DivergenceGuard] = None,
        chaos: Optional[ChaosEngine] = None,
    ) -> "RRRETrainer":
        """Train on ``train``; optionally evaluate on ``test`` per epoch.

        ``telemetry=True`` opts into observability (see
        ``docs/observability.md``): per-layer profiling hooks, phase
        spans, NaN/Inf guards, metric collection, and health monitors,
        with a :class:`repro.obs.RunReport` in :attr:`report`.  When an
        ambient tracer is installed (:func:`repro.obs.use_tracer`), the
        phase spans and the run's ``run_start``/``epoch``/``health``/
        ``run_end`` events go to it.  All of it goes through one
        :class:`repro.obs.RunObserver`; the default (``False``) leaves it
        empty and runs the untouched fast path.

        Fault tolerance (see ``docs/resilience.md``): ``checkpoint_dir``
        persists a :class:`repro.resilience.TrainState` every
        ``checkpoint_every`` epochs (atomic writes, newest
        ``keep_checkpoints`` retained); ``resume=True`` restores the
        newest intact checkpoint — model, optimizer moments, RNG streams,
        history — and continues to a final model bitwise-identical to an
        uninterrupted run.  ``guard`` (``True``, a
        :class:`repro.resilience.DivergencePolicy`, or a prepared
        :class:`repro.resilience.DivergenceGuard`) screens every batch
        for NaN/Inf losses and exploding gradients *before* the update
        is applied and answers a hit with rollback to the last good
        state plus learning-rate backoff, raising
        :class:`repro.resilience.DivergenceError` once retries are
        exhausted.  ``chaos`` injects deterministic faults for tests.
        """
        cfg = self.config
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        if resume and checkpoint_dir is None:
            raise ValueError("resume=True requires checkpoint_dir")
        guard = _as_guard(guard)
        manager: Optional[CheckpointManager] = None
        if checkpoint_dir is not None:
            manager = CheckpointManager(
                checkpoint_dir,
                keep=keep_checkpoints,
                fault_hook=chaos.on_checkpoint if chaos is not None else None,
            )
        restored = manager.latest_good() if resume else None
        observer = RunObserver(telemetry, verbose)
        self.report = None
        self.metrics_registry = observer.metrics
        self.health = observer.health

        rng = np.random.default_rng(cfg.seed)
        with observer.phase("fit.vocab", "data"):
            self._prepare(dataset, train)
        if cfg.pretrain_words and restored is None:
            # A resumed run restores the trained word vectors from the
            # checkpoint; re-running skip-gram would be wasted work.
            with observer.phase("fit.pretrain_words", "data"):
                self._pretrain_words(dataset, train)

        optimizer = Adam(self.model.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
        run_info = dict(
            dataset=dataset.name,
            users=dataset.num_users,
            items=dataset.num_items,
            reviews=len(dataset.reviews),
            epochs=cfg.epochs,
            encoder=cfg.encoder,
            seed=cfg.seed,
        )
        epoch = 0
        if restored is not None:
            epoch = self._resume(restored, optimizer, rng, guard)
            run_info["resumed_from_epoch"] = epoch
        else:
            self.history = []
        # The rollback/checkpoint anchor; the start state covers
        # divergence in the very first epoch.
        track_state = guard is not None or manager is not None
        last_good = restored
        if track_state and last_good is None:
            last_good = self._snapshot_state(optimizer, rng, epoch)

        with observer.run(self.model, **run_info):
            while epoch < cfg.epochs:
                try:
                    record, steps = self._train_epoch(
                        train, optimizer, rng, epoch + 1, observer, guard, chaos
                    )
                except _EpochDiverged as diverged:
                    self._rollback(diverged, guard, last_good, optimizer, rng, observer)
                    continue
                ece = None if test is None else self._evaluate_epoch(record, test, observer)
                self.history.append(record)
                alerts = observer.epoch(asdict(record), ece)
                # Epoch-level trigger: a fresh critical health alert can
                # roll the whole epoch back (opt-in via
                # DivergencePolicy.halt_on_health_critical).
                reason = guard.check_health(alerts) if guard is not None else None
                if reason is not None:
                    diverged = _EpochDiverged(reason, 1.0, record.epoch, steps)
                    self._rollback(diverged, guard, last_good, optimizer, rng, observer)
                    continue
                epoch = record.epoch
                if track_state:
                    retries = guard.retries if guard is not None else 0
                    last_good = self._snapshot_state(optimizer, rng, epoch, retries)
                    if manager is not None and (
                        epoch % checkpoint_every == 0 or epoch == cfg.epochs
                    ):
                        self._write_checkpoint(manager, last_good, observer)

        self.report = observer.finish(
            [asdict(record) for record in self.history],
            **self._report_sections(dataset, train),
        )
        return self

    def _report_sections(self, dataset: ReviewDataset, train: ReviewSubset) -> Dict:
        """The :class:`RunReport` sections only the trainer knows."""
        from repro import __version__

        return dict(
            config=asdict(self.config),
            dataset={
                "name": dataset.name,
                "users": dataset.num_users,
                "items": dataset.num_items,
                "reviews": len(dataset.reviews),
                "train_reviews": int(len(train.ratings)),
            },
            model={
                "parameters": self.model.num_parameters(),
                "components": self.model.component_summary(),
            },
            meta={"library": "repro", "version": __version__, "seed": self.config.seed},
        )

    # ------------------------------------------------------------------
    def _prepare(self, dataset: ReviewDataset, train: ReviewSubset) -> None:
        """Build everything derived from the data and a freshly initialised model.

        The token table (vocabulary from ``dataset``), the latest-``m``
        review slots and the clip range of predicted ratings (from
        ``train``), then :class:`RRRE` sized to them.  Deterministic, so
        :meth:`load` rebuilds exactly what :meth:`fit` trained on.
        """
        cfg = self.config
        self.dataset = dataset
        self.table = ReviewTextTable.build(
            dataset,
            max_len=cfg.max_len,
            min_count=cfg.min_word_count,
            max_vocab=cfg.max_vocab,
        )
        self.slots = InputSlots.build(train, s_u=cfg.s_u, s_i=cfg.s_i)
        self._rating_range = (float(train.ratings.min()), float(train.ratings.max()))
        self.model = RRRE(
            cfg,
            num_users=dataset.num_users,
            num_items=dataset.num_items,
            vocab_size=len(self.table.vocab),
        )

    def _pretrain_words(self, dataset: ReviewDataset, train: ReviewSubset) -> None:
        """Initialise the word embedding with skip-gram vectors of the train reviews."""
        cfg = self.config
        train_tokens = [dataset.tokens[int(i)] for i in train.index_array]
        vectors = train_skipgram(
            train_tokens, self.table.vocab, dim=cfg.word_dim, epochs=1, seed=cfg.seed
        )
        self.model.word_embedding.load_pretrained(vectors)

    def _train_epoch(
        self,
        train: ReviewSubset,
        optimizer,
        rng: np.random.Generator,
        epoch: int,
        observer: RunObserver,
        guard: Optional[DivergenceGuard] = None,
        chaos: Optional[ChaosEngine] = None,
    ) -> Tuple[EpochRecord, int]:
        """One pass over ``train``; returns the history row and its step count.

        Every step: forward, :meth:`_batch_loss`, backward, gradient
        clipping, the guard's check, then the optimizer update.  A guard
        hit raises :class:`_EpochDiverged` before the update is applied.
        """
        cfg = self.config
        start = time.perf_counter()
        self.model.train()
        sums = np.zeros(3)
        grad_norm_sum = 0.0
        steps = 0
        with observer.phase("fit.epoch.train", "epoch"):
            batches = iter_batches(train, cfg.batch_size, shuffle=True, rng=rng)
            for step, batch in enumerate(batches, 1):
                if chaos is not None:
                    batch = chaos.on_batch(epoch, step, batch)
                optimizer.zero_grad()
                out = self.model(batch.user_ids, batch.item_ids, self.slots, self.table)
                parts = self._batch_loss(out, batch)
                parts.total.backward()
                if chaos is not None:
                    chaos.on_gradients(epoch, step, self.model.parameters())
                grad_norm = clip_grad_norm(self.model.parameters(), cfg.grad_clip)
                loss = float(parts.total.data)
                if guard is not None:
                    reason = guard.check_batch(loss, grad_norm)
                    if reason is not None:
                        value = loss if "loss" in reason else grad_norm
                        raise _EpochDiverged(reason, value, epoch, step)
                optimizer.step()
                grad_norm_sum += grad_norm
                sums += (loss, parts.reliability_loss, parts.rating_loss)
                steps = step
                observer.batch(
                    out.user_attention.data, self.slots.user_slot_mask, batch.user_ids
                )
        n = max(steps, 1)
        record = EpochRecord(
            epoch=epoch,
            train_loss=sums[0] / n,
            reliability_loss=sums[1] / n,
            rating_loss=sums[2] / n,
            seconds=time.perf_counter() - start,
            grad_norm=grad_norm_sum / n,
        )
        return record, steps

    def _evaluate_epoch(
        self, record: EpochRecord, test: ReviewSubset, observer: RunObserver
    ) -> Optional[float]:
        """Score ``test`` into ``record.eval_metrics``.

        Returns the reliability head's calibration error when the
        observer's health monitors want it (else None).
        """
        with observer.phase("fit.epoch.eval", "eval"):
            ratings, reliabilities = self.predict_subset(test)
            record.eval_metrics = self._score_predictions(ratings, reliabilities, test)
            if observer.health is None:
                return None
            return expected_calibration_error(reliabilities, test.labels)

    def _batch_loss(self, out, batch) -> JointLossParts:
        """The training objective of one batch: the joint loss of paper Eq. 15."""
        cfg = self.config
        return joint_loss(
            out.rating,
            out.reliability_logits,
            batch.ratings,
            batch.labels,
            lambda_weight=cfg.lambda_weight,
            biased=cfg.biased_loss,
        )

    # ------------------------------------------------------------------
    # Fault tolerance (see docs/resilience.md)
    # ------------------------------------------------------------------
    def _snapshot_state(
        self,
        optimizer,
        rng: np.random.Generator,
        epoch: int,
        retries: int = 0,
    ) -> TrainState:
        """Capture a restartable snapshot of the run at an epoch boundary."""
        return TrainState(
            epoch=epoch,
            model_state=self.model.state_dict(),
            optimizer_state=optimizer.state_dict(),
            rng_states=capture_rng_states(rng, self.model),
            history=[asdict(record) for record in self.history],
            config=asdict(self.config),
            retries=retries,
            metrics=dict(self.history[-1].eval_metrics) if self.history else {},
        )

    def _resume(
        self,
        state: TrainState,
        optimizer,
        rng: np.random.Generator,
        guard: Optional[DivergenceGuard],
    ) -> int:
        """Continue from a checkpoint; returns the epoch it was taken at."""
        problems = check_config_compatible(state.config, asdict(self.config))
        if problems:
            raise CheckpointError(
                "checkpoint is incompatible with the current config: "
                + "; ".join(problems)
            )
        self._restore_state(state, optimizer, rng)
        if guard is not None:
            guard.retries = state.retries
        return state.epoch

    def _restore_state(
        self, state: TrainState, optimizer, rng: np.random.Generator
    ) -> None:
        """Rewind model, optimizer, RNG streams, and history to ``state``."""
        self.model.load_state_dict(state.model_state)
        optimizer.load_state_dict(state.optimizer_state)
        restore_rng_states(state.rng_states, rng, self.model)
        self.history = [EpochRecord(**dict(row)) for row in state.history]

    def _rollback(
        self,
        diverged: "_EpochDiverged",
        guard: DivergenceGuard,
        last_good: TrainState,
        optimizer,
        rng: np.random.Generator,
        observer: RunObserver,
    ) -> None:
        """Answer a divergence: restore the anchor and back off the LR.

        Raises :class:`repro.resilience.DivergenceError` once the
        guard's retry budget is exhausted.
        """
        epoch, step, reason, value = diverged.epoch, diverged.step, diverged.reason, diverged.value
        lr_before = optimizer.lr
        if guard.exhausted:
            guard.record(epoch, step, reason, value, lr_before, lr_before)
            observer.divergence_failure(epoch, step, reason, guard.retries)
            guard.raise_exhausted(epoch, reason, value)
        with observer.phase("fit.rollback", "phase"):
            self._restore_state(last_good, optimizer, rng)
        # Back off from the rate of the *failed* attempt, not the
        # restored one, so repeated retries keep compounding the decay.
        optimizer.lr = guard.backoff_lr(lr_before)
        event = guard.record(epoch, step, reason, value, lr_before, optimizer.lr)
        observer.rollback(event.to_dict(), guard.retries, guard.policy.max_retries)

    def _write_checkpoint(
        self, manager: CheckpointManager, state: TrainState, observer: RunObserver
    ) -> None:
        """Persist ``state``; a failed write degrades to a warning.

        Training carries on after a failed checkpoint (the previous one
        is still intact on disk) — the failure is surfaced through the
        ``repro_checkpoint_failures_total`` counter and a
        ``checkpoint_failed`` trace event instead of killing the run.
        """
        try:
            with observer.phase("fit.checkpoint", "phase"):
                path = manager.save(state)
        except CheckpointError as exc:
            observer.checkpoint_failed(state.epoch, exc)
            return
        observer.checkpoint(state.epoch, path)

    # ------------------------------------------------------------------
    def predict_pairs(self, user_ids, item_ids) -> Tuple[np.ndarray, np.ndarray]:
        """``(ratings, reliability scores)`` for (u, i) pairs, from :meth:`profiles`."""
        return self.profiles().score_pairs(user_ids, item_ids)

    def profiles(self) -> ProfileTable:
        """The :class:`ProfileTable` of the current weights, rebuilt only when stale."""
        self._require_fitted()
        table = self._profiles
        if table is None or not table.is_current(self.model, self.slots, self.table):
            table = ProfileTable.build(self.model, self.slots, self.table, self._rating_range)
            self._profiles = table
        return table

    def predict_subset(self, subset: ReviewSubset) -> Tuple[np.ndarray, np.ndarray]:
        """Predict over the (u, i) pairs of a review subset."""
        return self.predict_pairs(subset.user_ids, subset.item_ids)

    # ------------------------------------------------------------------
    def evaluate(self, subset: ReviewSubset, ndcg_ks: Tuple[int, ...] = ()) -> Dict[str, float]:
        """Score the paper's metrics on a subset.

        Returns bRMSE/RMSE for ratings and AUC/AP (plus optional NDCG@k)
        for reliability.  AUC/AP are skipped if the subset is single-class.
        """
        ratings, reliabilities = self.predict_subset(subset)
        return self._score_predictions(ratings, reliabilities, subset, ndcg_ks)

    def _score_predictions(
        self,
        ratings: np.ndarray,
        reliabilities: np.ndarray,
        subset: ReviewSubset,
        ndcg_ks: Tuple[int, ...] = (),
    ) -> Dict[str, float]:
        """Score already-computed predictions (lets callers reuse them)."""
        metrics: Dict[str, float] = {
            "brmse": biased_rmse(ratings, subset.ratings, subset.labels),
            "rmse": rmse(ratings, subset.ratings),
        }
        labels = subset.labels
        if 0 < labels.sum() < len(labels):
            metrics["auc"] = auc(reliabilities, labels)
            metrics["ap"] = average_precision(reliabilities, labels)
            for k in ndcg_ks:
                metrics[f"ndcg@{k}"] = ndcg_at_k(reliabilities, labels, k)
        return metrics

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Save the trained parameters (``.npz``).

        Only the model weights are stored; reloading requires the same
        dataset (the vocabulary, token table, and slots are rebuilt from
        it deterministically).
        """
        self._require_fitted()
        state = self.model.state_dict()
        np.savez_compressed(path, **state)

    def load(self, path, dataset: ReviewDataset, train: ReviewSubset) -> "RRRETrainer":
        """Rebuild derived structures from ``dataset`` and load weights."""
        self._prepare(dataset, train)
        with np.load(path) as archive:
            self.model.load_state_dict({key: archive[key] for key in archive.files})
        return self

    # ------------------------------------------------------------------
    def _require_fitted(self) -> None:
        if self.model is None:
            raise RuntimeError("trainer is not fitted; call fit() first")
