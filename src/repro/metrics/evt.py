"""Extreme-value-theory thresholding (POT, after Siffer et al., KDD 2017).

The paper's reference [51] motivates windowed local statistics with the
SPOT stream detector; this module provides the batch Peaks-Over-Threshold
variant as an alternative to the fixed-ratio rule of Eq. 17: fit a
generalised Pareto distribution (GPD) to the excesses over a high initial
quantile of the (anomaly-free) calibration scores, then place the final
threshold at the level exceeded with a target probability ``q``.

Compared with :func:`repro.metrics.threshold.ratio_threshold`, POT
extrapolates beyond the observed score range, which matters when the
calibration split is short — exactly the regime of this reproduction's
bench datasets.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pot_threshold"]


def pot_threshold(
    scores: np.ndarray,
    q: float = 1e-3,
    initial_quantile: float = 98.0,
    min_excesses: int = 20,
) -> float:
    """Peaks-over-threshold anomaly threshold.

    Parameters
    ----------
    scores:
        Calibration anomaly scores (validation split).
    q:
        Target exceedance probability of the final threshold — roughly
        the tolerated false-alarm rate per observation.
    initial_quantile:
        Percentile of ``scores`` used as the GPD fitting threshold ``t``.
    min_excesses:
        Below this many excesses the GPD fit is unreliable and the
        function falls back to the empirical ``1 - q`` quantile.

    Returns
    -------
    float
        The threshold ``z_q`` with ``P(score > z_q) ~= q`` under the
        fitted tail model.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if scores.size == 0:
        raise ValueError("cannot derive a threshold from empty scores")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    if not 50.0 <= initial_quantile < 100.0:
        raise ValueError(f"initial_quantile must be in [50, 100), got {initial_quantile}")

    t = float(np.percentile(scores, initial_quantile))
    excesses = scores[scores > t] - t
    if excesses.size < min_excesses or np.allclose(excesses, excesses[0] if excesses.size else 0.0):
        # Too little tail information for a stable fit.
        return float(np.quantile(scores, 1.0 - q))

    # Fit GPD to excesses with location pinned at zero.
    # scipy.stats costs ~1 s to import; only this function needs it, so
    # serving processes and pool workers never pay for it.
    from scipy.stats import genpareto

    shape, _, scale = genpareto.fit(excesses, floc=0.0)
    n = scores.size
    n_excess = excesses.size
    # Quantile extrapolation: z_q = t + (sigma/xi) * ((q*n/N_t)^(-xi) - 1).
    ratio = q * n / n_excess
    if abs(shape) < 1e-9:
        z = t + scale * np.log(1.0 / ratio)
    else:
        z = t + (scale / shape) * (ratio ** (-shape) - 1.0)
    if not np.isfinite(z) or z <= t:
        return float(np.quantile(scores, 1.0 - q))
    return float(z)
