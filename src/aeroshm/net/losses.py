"""Classification loss: categorical cross-entropy with label smoothing."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, NumericError


def smoothed_targets(labels: np.ndarray, n_classes: int, smoothing: float) -> np.ndarray:
    """Target distribution: (1 - s) * one-hot + s / m."""
    if not 0.0 <= smoothing < 1.0:
        raise ConfigError(f"label smoothing must be in [0, 1), got {smoothing}")
    labels = np.asarray(labels, dtype=np.int64)
    if (labels < 0).any() or (labels >= n_classes).any():
        raise ConfigError(f"labels must lie in [0, {n_classes})")
    targets = np.full((len(labels), n_classes), smoothing / n_classes)
    targets[np.arange(len(labels)), labels] += 1.0 - smoothing
    return targets


def cross_entropy_from_logits(logits: np.ndarray, labels: np.ndarray,
                              smoothing: float = 0.0):
    """Mean smoothed cross-entropy over a batch and its logit gradient.

    Returns (loss, dloss/dlogits). The gradient already carries the 1/N
    batch-mean factor. Both are computed in float64 whatever the logits'
    dtype, and the gradient is handed back in the logits' dtype: a float64
    gradient would widen the whole backward pass of a float32 stack.
    """
    n, m = logits.shape
    targets = smoothed_targets(labels, m, smoothing)
    wide = np.asarray(logits, dtype=np.float64)
    z = wide - wide.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = float(-(targets * log_probs).sum() / n)
    if not np.isfinite(loss):
        raise NumericError("non-finite loss")
    dlogits = (np.exp(log_probs) - targets) / n
    return loss, dlogits.astype(logits.dtype, copy=False)
