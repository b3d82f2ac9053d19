"""Training loop: batched gradient steps plus the validation-driven
callbacks (best-checkpoint, learning-rate plateau reduction, early
stopping)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, NumericError
from .losses import cross_entropy_from_logits
from .optim import AdamW
from .stack import LayerStack


@dataclass
class FitSettings:
    """The settings `fit` reads. harness.ExperimentConfig extends this
    class, so an experiment config is passed to `fit` as it is."""

    batch_size: int = 32
    max_epochs: int = 150
    lr: float = 1e-3
    weight_decay: float = 1e-5
    label_smoothing: float = 0.05
    plateau_factor: float = 0.5
    plateau_patience: int = 10
    min_lr: float = 1e-5
    early_stop_patience: int = 12
    seed: int = 0
    log_every: int = 0  # epochs between progress prints, 0 = silent


@dataclass
class FitResult:
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = float("inf")
    stopped_early: bool = False
    epochs_run: int = 0


def train_step(stack: LayerStack, x_batch: np.ndarray, labels: np.ndarray,
               optimizer: AdamW, label_smoothing: float = 0.05) -> float:
    """One optimizer step on a batch; returns the mean batch loss."""
    labels = np.asarray(labels)
    if len(labels) == 0:
        raise ConfigError("empty batch")
    logits = stack.logits(x_batch, train=True)
    loss, dlogits = cross_entropy_from_logits(logits, labels, label_smoothing)
    stack.zero_grads()
    stack.backprop_logits(dlogits, need_param_grads=True)
    optimizer.step()
    return loss


def evaluate_loss(stack: LayerStack, x: np.ndarray, labels: np.ndarray,
                  label_smoothing: float):
    """Mean loss and accuracy in infer mode."""
    logits = stack.logits(x)
    loss, _ = cross_entropy_from_logits(logits, labels, label_smoothing)
    correct = (logits.argmax(axis=1) == labels).sum()
    return loss, int(correct) / len(x)


def fit(stack: LayerStack, train_x: np.ndarray, train_y: np.ndarray,
        val_x: np.ndarray, val_y: np.ndarray,
        settings: FitSettings | None = None) -> FitResult:
    """Train with AdamW until max_epochs or early stopping.

    Checkpoints the best-validation-loss weights and restores them at the
    end. Deterministic for a fixed seed, data, and batch order.
    """
    s = settings or FitSettings()
    optimizer = AdamW(stack, lr=s.lr, weight_decay=s.weight_decay)
    shuffle_rng = np.random.default_rng(s.seed)
    result = FitResult()
    best_state = stack.copy_state()
    plateau_wait = 0
    stop_wait = 0

    n = len(train_x)
    for epoch in range(s.max_epochs):
        order = shuffle_rng.permutation(n)
        losses = []
        for start in range(0, n, s.batch_size):
            idx = order[start:start + s.batch_size]
            losses.append(train_step(stack, train_x[idx], train_y[idx],
                                     optimizer, s.label_smoothing))
        train_loss = float(np.mean(losses))
        if not np.isfinite(train_loss):
            raise NumericError(f"training diverged at epoch {epoch}")
        val_loss, val_acc = evaluate_loss(stack, val_x, val_y, s.label_smoothing)
        result.history.append({
            "epoch": epoch, "train_loss": train_loss,
            "val_loss": val_loss, "val_accuracy": val_acc, "lr": optimizer.lr,
        })
        result.epochs_run = epoch + 1
        if s.log_every and epoch % s.log_every == 0:
            print(f"epoch {epoch:3d}  train {train_loss:.4f}  "
                  f"val {val_loss:.4f}  acc {val_acc:.3f}  lr {optimizer.lr:.2e}")

        if val_loss < result.best_val_loss:
            result.best_val_loss = val_loss
            result.best_epoch = epoch
            best_state = stack.copy_state()
            plateau_wait = 0
            stop_wait = 0
        else:
            plateau_wait += 1
            stop_wait += 1
            if plateau_wait >= s.plateau_patience:
                optimizer.lr = max(optimizer.lr * s.plateau_factor, s.min_lr)
                plateau_wait = 0
            if stop_wait >= s.early_stop_patience:
                result.stopped_early = True
                break

    stack.load_state(best_state)
    return result
