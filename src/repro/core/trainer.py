"""Training loop for TFMAE.

Implements the paper's schedule (Section V-A.4): Adam at learning rate
1e-4, batch size 64, one epoch over non-overlapping windows of length 100.
The loop is model-agnostic enough that the Table IV/V ablation variants
train through the same code path.

Fault tolerance (see ``docs/robustness.md``): when
``config.checkpoint_dir`` is set the trainer writes an atomic
training-state checkpoint (weights, optimizer, RNG state, probe AUC)
every ``checkpoint_every`` epochs and can resume from it bit-exactly
after a crash.  A :class:`~repro.robustness.DivergenceGuard` watches
every batch; on non-finite loss/gradients or epoch-loss explosion the
trainer rolls back to the last good state, scales the learning rate by
``lr_backoff`` and retries, raising
:class:`~repro.robustness.TrainingDivergedError` after
``max_divergence_retries`` failed retries.
"""

from __future__ import annotations

import copy
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from ..analysis.anomaly import AnomalyError, detect_anomaly
from ..analysis.shapecheck import preflight_model
from ..datasets.windows import non_overlapping_windows
from ..metrics.ranking import roc_auc
from ..nn.optim import Adam
from ..robustness.checkpoint import CheckpointManager, config_fingerprint
from ..robustness.guards import DivergenceGuard, TrainingDivergedError
from .config import TFMAEConfig
from .model import TFMAEModel

__all__ = ["TrainingLog", "TFMAETrainer", "build_synthetic_probe"]

#: Config fields allowed to differ between the run that wrote a checkpoint
#: and the run resuming from it (run control, not trajectory).
_RESUMABLE_FIELDS = (
    "checkpoint_dir",
    "checkpoint_every",
    "resume",
    "epochs",
    "early_stop_patience",
    "max_divergence_retries",
    "lr_backoff",
    "loss_explosion_factor",
    "check_gradients",
    "preflight",
    "detect_anomaly",
    "jit_cache_size",
)


def build_synthetic_probe(
    validation: np.ndarray,
    window_size: int,
    rng: np.random.Generator,
    spike_fraction: float = 0.05,
    magnitude: float = 6.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Corrupt validation windows with synthetic anomalies at known spots.

    Returns ``(windows, labels)`` where labels mark the injected
    positions.  The probe mixes the two anomaly families of the paper's
    taxonomy — 6-sigma point spikes AND pattern segments (flatline or
    drift over ~1/5 of the window) — because contrastive view collapse
    degrades pattern detection first while blatant spikes keep ranking
    high; a spike-only probe misses the failure.  Used by snapshot
    selection without touching any real test labels.
    """
    windows = non_overlapping_windows(validation, window_size).copy()
    if windows.shape[0] == 0:
        raise ValueError("validation split shorter than one window")
    batch, time, features = windows.shape
    labels = np.zeros((batch, time), dtype=np.int64)
    std = validation.std(axis=0) + 1e-8
    count = max(1, int(spike_fraction * time))
    n_channels = max(1, features // 3)
    segment_len = max(4, time // 5)
    for b in range(batch):
        # Point anomalies: +/- magnitude*sigma spikes.
        positions = rng.choice(time, size=count, replace=False)
        channels = rng.choice(features, size=n_channels, replace=False)
        signs = rng.choice([-1.0, 1.0], size=(count, n_channels))
        windows[b][np.ix_(positions, channels)] += magnitude * signs * std[channels]
        labels[b, positions] = 1
        # Pattern anomaly: flatline or linear drift on a channel subset.
        start = int(rng.integers(0, time - segment_len))
        stop = start + segment_len
        seg_channels = rng.choice(features, size=n_channels, replace=False)
        if rng.random() < 0.5:
            windows[b][start:stop, seg_channels] = windows[b][start:stop, seg_channels].mean(axis=0)
        else:
            drift = np.linspace(0.0, 3.0, segment_len)[:, None] * std[seg_channels]
            windows[b][start:stop, seg_channels] += drift * rng.choice([-1.0, 1.0])
        labels[b, start:stop] = 1
    return windows, labels


@dataclass
class TrainingLog:
    """Per-batch loss traces collected during training."""

    losses: list[float] = field(default_factory=list)
    metrics: list[dict[str, float]] = field(default_factory=list)
    #: (epoch, reason) pairs for every divergence rollback performed.
    rollbacks: list[tuple[int, str]] = field(default_factory=list)
    #: True when this run restored state from a checkpoint before training.
    resumed: bool = False

    def summary(self) -> dict[str, float]:
        if not self.losses:
            return {"batches": 0}
        return {
            "batches": len(self.losses),
            "first_loss": self.losses[0],
            "last_loss": self.losses[-1],
            "mean_loss": float(np.mean(self.losses)),
        }

    def truncate(self, length: int) -> None:
        """Drop trace entries past ``length`` (divergence rollback)."""
        del self.losses[length:]
        del self.metrics[length:]


class TFMAETrainer:
    """Fits a :class:`~repro.core.model.TFMAEModel` on a training series."""

    def __init__(self, model: TFMAEModel, config: TFMAEConfig | None = None):
        self.model = model
        self.config = config if config is not None else model.config
        self.optimizer = Adam(
            model.parameters(),
            lr=self.config.learning_rate,
            grad_clip=self.config.grad_clip,
        )
        self.log = TrainingLog()

    # ------------------------------------------------------------------
    # training state snapshots (rollback + checkpoint share one format)
    # ------------------------------------------------------------------
    def _snapshot(self, epoch, rng, best_auc, best_state, best_epoch_loss,
                  epochs_without_improvement, guard) -> dict:
        return {
            "epoch": epoch,
            "model": self.model.state_dict(),
            "optim": self.optimizer.state_dict(),
            "rng_state": copy.deepcopy(rng.bit_generator.state),
            "best_auc": best_auc,
            "best_state": best_state,
            "best_epoch_loss": best_epoch_loss,
            "epochs_without_improvement": epochs_without_improvement,
            "guard_best": guard.best_epoch_loss,
            "log_length": len(self.log.losses),
        }

    def _restore(self, snapshot: dict, rng, guard) -> None:
        self.model.load_state_dict(snapshot["model"])
        self.optimizer.load_state_dict(snapshot["optim"])
        rng.bit_generator.state = copy.deepcopy(snapshot["rng_state"])
        guard.best_epoch_loss = snapshot["guard_best"]
        self.log.truncate(snapshot["log_length"])

    def _write_checkpoint(self, manager: CheckpointManager, snapshot: dict) -> None:
        metadata = {
            "epoch": snapshot["epoch"],
            "rng_state": snapshot["rng_state"],
            "best_probe_auc": None if snapshot["best_auc"] == -np.inf
            else float(snapshot["best_auc"]),
            "best_epoch_loss": None if snapshot["best_epoch_loss"] == np.inf
            else float(snapshot["best_epoch_loss"]),
            "epochs_without_improvement": snapshot["epochs_without_improvement"],
            "guard_best_epoch_loss": snapshot["guard_best"],
            "learning_rate": float(self.optimizer.lr),
            "config_fingerprint": config_fingerprint(self.config, _RESUMABLE_FIELDS),
        }
        extra = None
        if snapshot["best_state"] is not None:
            extra = {f"best.{name}": array for name, array in snapshot["best_state"].items()}
        manager.save(self.model, self.optimizer, metadata, extra_arrays=extra)

    def fit(
        self,
        train: np.ndarray,
        shuffle: bool = True,
        verbose: bool = False,
        validation: np.ndarray | None = None,
        checkpoint_dir: str | None = None,
        resume: bool | None = None,
    ) -> TrainingLog:
        """Train on a ``(time, features)`` series.

        Windows shorter than ``window_size`` at the tail are dropped, as in
        the reference protocol.  When ``config.select_best_epoch`` is set
        and a validation split is given, the weights revert at the end to
        the epoch with the best synthetic-probe ROC-AUC (see
        :func:`build_synthetic_probe`).

        ``checkpoint_dir``/``resume`` override the config fields of the
        same names; see the module docstring for the fault-tolerance
        contract.
        """
        config = self.config
        checkpoint_dir = checkpoint_dir if checkpoint_dir is not None else config.checkpoint_dir
        resume = resume if resume is not None else config.resume
        windows = non_overlapping_windows(train, config.window_size)
        if windows.shape[0] == 0:
            raise ValueError(
                f"training series of length {train.shape[0]} is shorter than "
                f"window_size={config.window_size}"
            )
        rng = np.random.default_rng(config.seed)

        if config.preflight:
            # Cheap shape/dtype/grad-flow trace of model.loss before any
            # training; raises ShapeCheckError naming the culpable op.
            # Internal RNG state is restored, so the training trajectory is
            # identical with or without the pre-flight.
            preflight_model(self.model)

        probe = None
        if config.select_best_epoch and validation is not None:
            probe = build_synthetic_probe(validation, config.window_size,
                                          np.random.default_rng(config.seed + 1))
        best_auc = -np.inf
        best_state = None

        guard = DivergenceGuard(
            explosion_factor=config.loss_explosion_factor,
            check_gradients=config.check_gradients,
        )
        manager = CheckpointManager(checkpoint_dir) if checkpoint_dir else None

        epoch = 0
        best_epoch_loss = np.inf
        epochs_without_improvement = 0

        if resume and manager is not None and manager.exists():
            metadata, extra = manager.load(self.model, self.optimizer)
            manager.verify_config(metadata, config, _RESUMABLE_FIELDS)
            rng.bit_generator.state = metadata["rng_state"]
            epoch = int(metadata["epoch"])
            best_auc = metadata.get("best_probe_auc")
            best_auc = -np.inf if best_auc is None else float(best_auc)
            loaded_best = metadata.get("best_epoch_loss")
            best_epoch_loss = np.inf if loaded_best is None else float(loaded_best)
            epochs_without_improvement = int(metadata.get("epochs_without_improvement", 0))
            guard.best_epoch_loss = metadata.get("guard_best_epoch_loss")
            best_state = {
                name[len("best."):]: array
                for name, array in extra.items()
                if name.startswith("best.")
            } or None
            self.log.resumed = True
            if verbose:
                print(f"resumed from {manager.path} at epoch {epoch}")

        # The rollback target: always valid, even before any checkpoint
        # is written (a divergence in the very first epoch restores the
        # initial weights).
        last_good = self._snapshot(epoch, rng, best_auc, best_state,
                                   best_epoch_loss, epochs_without_improvement, guard)
        retries = 0

        self.model.train()
        while epoch < config.epochs:
            order = rng.permutation(windows.shape[0]) if shuffle else np.arange(windows.shape[0])
            epoch_losses = []
            report = None
            for start in range(0, len(order), config.batch_size):
                batch = windows[order[start : start + config.batch_size]]
                try:
                    sanitizer = detect_anomaly() if config.detect_anomaly else nullcontext()
                    with sanitizer:
                        loss, metrics = self.model.loss(batch)
                        loss_value = loss.item()
                        # The adversarial objective's value is 0 by construction
                        # (min minus max of the same quantity), so log the
                        # minimisation component — the meaningful convergence trace.
                        tracked = metrics.get("minimise", loss_value)
                        report = guard.check_batch_loss(loss_value) or guard.check_batch_loss(tracked)
                        if report is None:
                            self.optimizer.zero_grad()
                            loss.backward()
                            report = guard.check_batch_gradients(self.optimizer.parameters)
                except AnomalyError as anomaly:
                    # The sanitizer pinpointed the op that produced the first
                    # NaN/Inf; roll back through the standard divergence path
                    # with the culpable op in the report.
                    report = guard.report_anomaly(anomaly)
                if report is not None:
                    break
                self.optimizer.step()
                epoch_losses.append(tracked)
                self.log.losses.append(tracked)
                self.log.metrics.append(metrics)
            if report is None:
                epoch_loss = float(np.mean(epoch_losses))
                report = guard.check_epoch_loss(epoch_loss)

            if report is not None:
                self.log.rollbacks.append((epoch, report.reason))
                retries += 1
                if retries > config.max_divergence_retries:
                    raise TrainingDivergedError(
                        f"training diverged at epoch {epoch + 1} ({report}) and "
                        f"exhausted {config.max_divergence_retries} rollback "
                        f"retries; last learning rate {self.optimizer.lr:g}"
                    )
                self._restore(last_good, rng, guard)
                self.optimizer.lr *= config.lr_backoff
                epoch = last_good["epoch"]
                best_auc = last_good["best_auc"]
                best_state = last_good["best_state"]
                best_epoch_loss = last_good["best_epoch_loss"]
                epochs_without_improvement = last_good["epochs_without_improvement"]
                if verbose:
                    print(f"divergence at epoch {epoch + 1} ({report}); rolled back, "
                          f"lr -> {self.optimizer.lr:g} "
                          f"(retry {retries}/{config.max_divergence_retries})")
                continue

            if verbose:
                print(f"epoch {epoch + 1}/{config.epochs}: mean loss {epoch_loss:.6f}")
            if probe is not None:
                self.model.eval()
                scores = self.model.score_windows(probe[0]).reshape(-1)
                auc = roc_auc(scores, probe[1].reshape(-1))
                self.model.train()
                if verbose:
                    print(f"  probe AUC {auc:.4f}")
                if auc > best_auc:
                    best_auc = auc
                    best_state = self.model.state_dict()
            stop_early = False
            if config.early_stop_patience is not None:
                if epoch_loss < best_epoch_loss:
                    best_epoch_loss = epoch_loss
                    epochs_without_improvement = 0
                else:
                    epochs_without_improvement += 1
                    if epochs_without_improvement >= config.early_stop_patience:
                        if verbose:
                            print(f"early stop after epoch {epoch + 1}")
                        stop_early = True
            epoch += 1
            last_good = self._snapshot(epoch, rng, best_auc, best_state,
                                       best_epoch_loss, epochs_without_improvement, guard)
            if manager is not None and (
                epoch % config.checkpoint_every == 0
                or epoch == config.epochs
                or stop_early
            ):
                self._write_checkpoint(manager, last_good)
            if stop_early:
                break
        if best_state is not None:
            self.model.load_state_dict(best_state)
        self.model.eval()
        return self.log
