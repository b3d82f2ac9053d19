"""Minimal reverse-mode network engine: layers, stacks, loss, optimizer,
training loop, and checkpoint I/O."""

from .checkpoint import load_checkpoint, save_checkpoint
from .layers import (
    BatchNorm,
    Conv1d,
    Dense,
    Dropout,
    GlobalAvgPool,
    Layer,
    ReLU,
    Softmax,
    Standardize,
    layer_from_config,
)
from .losses import cross_entropy_from_logits, smoothed_targets
from .optim import AdamW
from .stack import LayerStack
from .training import FitResult, FitSettings, evaluate_loss, fit, train_step

__all__ = [
    "AdamW",
    "BatchNorm",
    "Conv1d",
    "Dense",
    "Dropout",
    "FitResult",
    "FitSettings",
    "GlobalAvgPool",
    "Layer",
    "LayerStack",
    "ReLU",
    "Softmax",
    "Standardize",
    "cross_entropy_from_logits",
    "evaluate_loss",
    "fit",
    "layer_from_config",
    "load_checkpoint",
    "save_checkpoint",
    "smoothed_targets",
    "train_step",
]
