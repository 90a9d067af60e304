"""Public TFMAE detector facade.

:class:`TFMAE` wires the model, trainer, windowed scoring and threshold
protocol behind the library-wide :class:`~repro.detector.BaseDetector`
interface:

>>> from repro.core import TFMAE, TFMAEConfig
>>> detector = TFMAE(TFMAEConfig(window_size=100))
>>> detector.fit(train, validation)          # doctest: +SKIP
>>> labels = detector.predict(test)          # doctest: +SKIP
"""

from __future__ import annotations

import numpy as np

from ..datasets.windows import batched_window_scores, score_series
from ..detector import BaseDetector, check_finite_series
from .config import TFMAEConfig
from .model import TFMAEModel
from .trainer import TFMAETrainer, TrainingLog

__all__ = ["TFMAE"]


class TFMAE(BaseDetector):
    """Temporal-Frequency Masked Autoencoder anomaly detector.

    Parameters
    ----------
    config:
        Model/training configuration; defaults reproduce the paper's
        Section V-A.4 settings.  The number of series features is inferred
        at :meth:`fit` time.
    """

    name = "TFMAE"

    def __init__(self, config: TFMAEConfig | None = None):
        self.config = config if config is not None else TFMAEConfig()
        super().__init__(anomaly_ratio=self.config.anomaly_ratio)
        self.model: TFMAEModel | None = None
        self.training_log: TrainingLog | None = None

    def fit(self, train: np.ndarray, validation: np.ndarray | None = None) -> "TFMAE":
        # Stash the validation split so the trainer can run snapshot
        # selection against a synthetic probe built from it.
        self._validation_for_selection = validation
        super().fit(train, validation)
        return self

    def _fit(self, train: np.ndarray) -> None:
        self.model = TFMAEModel(n_features=train.shape[1], config=self.config)
        trainer = TFMAETrainer(self.model, self.config)
        self.training_log = trainer.fit(
            train, validation=getattr(self, "_validation_for_selection", None)
        )

    def refit(
        self,
        recent: np.ndarray,
        validation: np.ndarray | None = None,
        epochs: int | None = None,
        learning_rate: float | None = None,
    ) -> "TFMAE":
        """Incrementally refit the existing model on recent telemetry.

        Continues training from the **current** weights (fresh Adam
        state, same schedule) instead of reinitialising — the serving
        lifecycle's answer to score-distribution drift: a few cheap
        epochs on the recent slice re-anchor the model without paying
        for a full retrain.  The threshold is recalibrated on
        ``validation`` (or ``recent`` when absent) so the anomaly-ratio
        contract holds against the *new* score distribution.

        ``epochs``/``learning_rate`` override the config for this refit
        only — drift refreshes typically use fewer epochs and a smaller
        rate than the original fit.
        """
        self._require_fitted()
        assert self.model is not None
        recent = np.asarray(recent, dtype=np.float64)
        if recent.ndim != 2:
            raise ValueError(f"recent must be (time, features), got shape {recent.shape}")
        if recent.shape[1] != self.model.n_features:
            raise ValueError(
                f"recent has {recent.shape[1]} features but the model was fit "
                f"with {self.model.n_features}"
            )
        check_finite_series(recent, name="refit data")
        overrides = {}
        if epochs is not None:
            overrides["epochs"] = epochs
        if learning_rate is not None:
            overrides["learning_rate"] = learning_rate
        config = self.config.with_overrides(**overrides) if overrides else self.config
        trainer = TFMAETrainer(self.model, config)
        self.training_log = trainer.fit(recent, validation=validation)
        self.calibrate_threshold(validation if validation is not None else recent)
        return self

    def score(self, series: np.ndarray) -> np.ndarray:
        """Per-observation contrastive discrepancy (Eq. 16)."""
        self._require_fitted()
        assert self.model is not None
        series = check_finite_series(series, name="TFMAE scoring input")
        return score_series(
            series,
            size=self.config.window_size,
            score_fn=self.model.score_windows,
            batch_size=self.config.batch_size,
        )

    def score_last(self, windows: np.ndarray) -> np.ndarray:
        """Vectorized last-observation scores for a batch of windows.

        One :meth:`~repro.core.model.TFMAEModel.score_last_windows`
        forward pass per ``config.batch_size`` chunk instead of one full
        :meth:`score` per window.  Bitwise identical to ``[score(w)[-1]
        for w in windows]``: for each window the last observation's score
        always comes from the ``window_size``-length slice ending at that
        observation (the tail slice when the window is long enough, the
        front-padded window :func:`~repro.datasets.windows.score_series`
        builds otherwise), ``score_last_windows`` is bitwise the last
        column of ``score_windows``, and both are batch-size invariant
        because every window flows through the model independently.
        """
        self._require_fitted()
        assert self.model is not None
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim == 2:
            windows = windows[None]
        if windows.ndim != 3:
            raise ValueError(
                f"windows must be (batch, time, features), got shape {windows.shape}"
            )
        windows = check_finite_series(windows, name="TFMAE scoring input")
        size = self.config.window_size
        time = windows.shape[1]
        if time >= size:
            tails = windows[:, time - size:, :]
        else:
            pad = np.repeat(windows[:, :1, :], size - time, axis=1)
            tails = np.concatenate([pad, windows], axis=1)
        return batched_window_scores(
            tails,
            self.model.score_last_windows,
            batch_size=self.config.batch_size,
        )
