"""Builders for the two classifier architectures.

"fcn-cnn": a standardize layer, then three conv blocks (128 filters k=8,
256 k=5, 128 k=3), each followed by batchnorm + ReLU, then global average
pooling and a dense softmax head. Same-padding keeps the temporal length
through all blocks, so the pool averages exactly the input's time steps.
`fit` sets the standardize layer to the training set's per-channel
statistics over samples and time. It removes the large channel profile
that all jointly z-scored windows share, which conv0 would turn into an
offset that the first batchnorm's running mean lags behind.

"mean-mlp": a standardize layer, which `fit` sets to the training set's
statistics, then four dense layers (128, 128, 64, n_classes), batchnorm +
ReLU after each hidden layer, dropout 0.2 on the standardised input and
0.4 after the first two hidden layers, softmax output.

The fcn-cnn computes in float32: its convolutions are GEMM-bound, and
float32 GEMMs run about twice as fast. It reads the float32 windows of
`build_samples` as they are. The mean-mlp stays float64; it is small, and
gains nothing. Its inputs are the windows' channel means, taken in
float64; the model standardises them itself.

ARCHITECTURES is the one registry of both: each entry says how to build
the stack, the rank of one input, which features of a window array it
reads, and which baseline the architecture is retrained on.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .net import (
    BatchNorm,
    Conv1d,
    Dense,
    Dropout,
    GlobalAvgPool,
    LayerStack,
    ReLU,
    Softmax,
    Standardize,
)
from .preprocessing import channel_means

CNN_BLOCKS = ((128, 8), (256, 5), (128, 3))
MLP_WIDTHS = (128, 128, 64)
MLP_INPUT_DROPOUT = 0.2
MLP_HIDDEN_DROPOUT = 0.4


def build_cnn(input_channels: int = 37, input_steps: int = 150,
              n_classes: int = 6, seed: int = 0) -> LayerStack:
    if input_channels < 1:
        raise ConfigError(f"input_channels must be >= 1, got {input_channels}")
    largest_kernel = max(k for _, k in CNN_BLOCKS)
    if input_steps < largest_kernel:
        raise ConfigError(
            f"input_steps must be >= largest kernel ({largest_kernel}), got {input_steps}")
    rng = np.random.default_rng(seed)
    layers = [Standardize(input_channels)]
    channels = input_channels
    for filters, kernel in CNN_BLOCKS:
        layers.append(Conv1d(channels, filters, kernel, rng))
        layers.append(BatchNorm(filters))
        layers.append(ReLU())
        channels = filters
    layers.append(GlobalAvgPool())
    layers.append(Dense(channels, n_classes, rng))
    layers.append(Softmax())
    return LayerStack(layers, (input_channels, input_steps), seed=seed,
                      arch="fcn-cnn").astype(np.float32)


def build_mlp(input_dim: int = 37, n_classes: int = 6, seed: int = 0) -> LayerStack:
    if input_dim < 1:
        raise ConfigError(f"input_dim must be >= 1, got {input_dim}")
    rng = np.random.default_rng(seed)
    layers = [Standardize(input_dim), Dropout(MLP_INPUT_DROPOUT, rng)]
    width_in = input_dim
    for i, width in enumerate(MLP_WIDTHS):
        layers.append(Dense(width_in, width, rng))
        layers.append(BatchNorm(width))
        layers.append(ReLU())
        if i < 2:
            layers.append(Dropout(MLP_HIDDEN_DROPOUT, rng))
        width_in = width
    layers.append(Dense(width_in, n_classes, rng))
    layers.append(Softmax())
    return LayerStack(layers, (input_dim,), seed=seed, arch="mean-mlp")


@dataclass(frozen=True)
class Architecture:
    build: Callable[..., LayerStack]  # build(*input_shape, n_classes=, seed=)
    input_rank: int
    # what the model reads of a (n, channels, steps) window array
    features: Callable[[np.ndarray], np.ndarray]
    retrain_baseline: str  # the baseline it is retrained on from scratch


ARCHITECTURES = {
    "fcn-cnn": Architecture(build_cnn, 2, lambda values: values, "tvb"),
    "mean-mlp": Architecture(build_mlp, 1, channel_means, "mvb"),
}


def architecture(name: str) -> Architecture:
    if name not in ARCHITECTURES:
        raise ConfigError(
            f"unknown architecture {name!r}; available: {', '.join(sorted(ARCHITECTURES))}")
    return ARCHITECTURES[name]


def build_architecture(name: str, input_shape: tuple[int, ...],
                       n_classes: int = 6, seed: int = 0) -> LayerStack:
    """Build a named architecture for the given input shape."""
    spec = architecture(name)
    if len(input_shape) != spec.input_rank:
        raise ConfigError(
            f"{name} expects a rank-{spec.input_rank} input shape, got {tuple(input_shape)}")
    return spec.build(*input_shape, n_classes=n_classes, seed=seed)
