"""Layer set for the differentiable network engine.

Eight layer kinds: conv1d, batchnorm, standardize, relu, global-avg-pool,
dense, dropout, softmax. Every layer but softmax implements a forward pass
that caches what its backward pass needs, and a backward pass returning
the gradient with respect to its input while accumulating parameter
gradients. Softmax, the head every `LayerStack` ends in, has a forward
pass only: a stack's gradients start at its logits (see net/stack.py).
All math runs on plain numpy arrays.

Dtype rule: a layer computes in the dtype of the array it is handed.
Every array it allocates (conv1d's padded buffer and input gradient,
dropout's mask) takes that dtype, and its parameters, buffers and
gradients are expected to share it: `LayerStack.astype` casts them and
`LayerStack` casts its inputs to match. Python-float constants (eps,
momentum, 1/T) do not widen a numpy array, so a float32 layer stays
float32 from end to end. Parameters are drawn in float64 and cast, so a
float32 layer holds the float64 layer's weights rounded.

Array conventions:
    conv/pool layers   (batch, time, channels)
    dense layers       (batch, features)

The time-major layout is the engine's compute layout only: the data and
the stored conv weights stay channels-first, and `LayerStack` maps one
to the other (see net/stack.py).

A stack uses the backward contract in two ways. A training step
(`LayerStack.backprop_logits`, after a train-mode pass) runs `backward`
on the layers above the first layer with parameters and `param_grads`,
which accumulates a layer's parameter gradients alone, on that layer:
it needs no gradient with respect to the network's input. Attribution
runs `backward` with `need_param_grads=False` over infer-mode layers,
which roughly halves the cost of input-only gradients.

BatchNorm is folded on infer passes: in infer mode it is a fixed
channel-wise affine map, so `LayerStack` runs a conv1d or dense layer that
a batchnorm directly follows as one layer of the same class with scaled
weights and a shifted bias (`BatchNorm.fold_into`). Train mode runs the
batchnorm as a layer of its own, and so does infer mode where no conv1d
or dense layer directly precedes it; that is the one use of its
infer-mode backward.

Layers never modify their inputs: neither `x` in forward nor `dout` in
backward. In-place arithmetic only touches arrays a layer has just
allocated itself. That is how BatchNorm works: it centres `x` once into a
new array and scales that into `xhat`, applies its affine to a fresh
output, and builds its input gradient in the buffer of `dout * gamma`.
It is also why GlobalAvgPool can return its input gradient as a
read-only broadcast view of `dout / T`: no layer writes into it.

Conv1d im2col: in the zero-padded (batch, time + k - 1, channels) buffer
the k input steps that output step s reads are one contiguous run of k*c
values, `xp[b, s:s+k, :]`. So every im2col row is a plain copy of such a
run, taken as every c-th window of a sample's flattened buffer, and the
GEMM's K axis is in (tap, channel) order; the weight is reordered to
match on each call. The forward GEMM's (n*t, filters) result is the
(n, t, filters) output as it stands. Backward multiplies `dout` as one
(n*t, filters) matrix: the weight gradient comes back in (tap, channel)
order and is stored as (filters, in_channels, kernel_size), and the
input-gradient columns (n, t, k, c) are folded, tap by tap in tap order,
into the unpadded (n, t, c) input gradient.

Summing K in (tap, channel) order rounds differently from the plain
direct-sum formulas, so conv results agree with them to rounding, not bit
for bit. ReLU's backward (`dout * mask`) can give -0.0 where `np.where`
gave 0.0.
"""

from __future__ import annotations

import copy

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ConfigError, ShapeError


class Layer:
    """Base class: parameter store plus forward/backward contract."""

    kind = "?"

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.buffers: dict[str, np.ndarray] = {}
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray, need_param_grads: bool = True) -> np.ndarray:
        raise NotImplementedError

    def param_grads(self, dout: np.ndarray) -> None:
        """Accumulate the parameter gradients of the last forward pass for
        the gradient dout at its output, without the input gradient. Only
        layers with parameters implement it."""
        raise NotImplementedError

    def config(self) -> dict:
        """Hyperparameters needed to rebuild this layer (no weights)."""
        return {"kind": self.kind}

    def fault(self) -> str | None:
        """What is wrong with this layer's buffers as loaded, or None."""
        return None

    def zero_grads(self) -> None:
        for name, p in self.params.items():
            g = self.grads.get(name)
            if g is None or g.shape != p.shape:
                self.grads[name] = np.zeros_like(p)
            else:
                g.fill(0.0)

    def _init_uniform(self, rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape).astype(np.float64)


class Conv1d(Layer):
    """1-D convolution over time with zero-padded "same" output length.

    Input (batch, time, in_channels), output (batch, time, filters); weight
    shape (filters, in_channels, kernel_size); stride fixed at 1. For even
    kernels the extra pad step goes on the right.
    """

    kind = "conv1d"
    out_axis = 0  # the weight axis of the filters

    def __init__(self, in_channels: int, filters: int, kernel_size: int,
                 rng: np.random.Generator):
        super().__init__()
        if kernel_size < 1 or filters < 1 or in_channels < 1:
            raise ConfigError(
                f"conv1d needs positive dims, got in={in_channels} "
                f"filters={filters} k={kernel_size}"
            )
        self.in_channels = in_channels
        self.filters = filters
        self.kernel_size = kernel_size
        self.pad_left = (kernel_size - 1) // 2
        fan_in = in_channels * kernel_size
        self.params["weight"] = self._init_uniform(rng, (filters, in_channels, kernel_size), fan_in)
        self.params["bias"] = self._init_uniform(rng, (filters,), fan_in)
        self.zero_grads()

    def forward(self, x, train=False):
        n, t, c = x.shape
        if c != self.in_channels:
            raise ShapeError(f"conv1d expects {self.in_channels} channels, got {c}")
        if t < self.kernel_size:
            raise ShapeError(f"conv1d kernel {self.kernel_size} longer than input ({t})")
        k = self.kernel_size
        xp = np.zeros((n, t + k - 1, c), dtype=x.dtype)
        xp[:, self.pad_left:self.pad_left + t] = x
        # im2col: row (b, s) is the contiguous run xp[b, s:s+k, :], (tap, channel)
        windows = sliding_window_view(xp.reshape(n, -1), k * c, axis=1)[:, ::c]
        cols = windows.reshape(n * t, k * c)
        w_mat = self.params["weight"].transpose(0, 2, 1).reshape(self.filters, k * c)
        out = cols @ w_mat.T
        out += self.params["bias"]
        self._cache = (cols, w_mat, (n, t, c))
        return out.reshape(n, t, self.filters)

    def param_grads(self, dout):
        cols, _, (n, t, c) = self._cache
        dout2 = dout.reshape(n * t, self.filters)
        dw = (dout2.T @ cols).reshape(self.filters, self.kernel_size, c)
        self.grads["weight"] += dw.transpose(0, 2, 1)
        self.grads["bias"] += dout2.sum(axis=0)

    def backward(self, dout, need_param_grads=True):
        if need_param_grads:
            self.param_grads(dout)
        _, w_mat, (n, t, c) = self._cache
        k, pl = self.kernel_size, self.pad_left
        dcols = (dout.reshape(n * t, self.filters) @ w_mat).reshape(n, t, k, c)
        dx = np.zeros((n, t, c), dtype=dcols.dtype)
        for j in range(k):  # tap j of output step s reads input step s + j - pad_left
            lo, hi = max(pl - j, 0), min(t + pl - j, t)
            dx[:, lo + j - pl:hi + j - pl] += dcols[:, lo:hi, j]
        return dx

    def config(self):
        return {"kind": self.kind, "in_channels": self.in_channels,
                "filters": self.filters, "kernel_size": self.kernel_size}


class BatchNorm(Layer):
    """Per-channel batch normalization with running statistics, over every
    axis but the last: (batch, channels) or (batch, time, channels).

    Train mode normalizes by batch statistics (biased variance) and updates
    the running estimates; infer mode applies the running statistics, which
    makes the layer a fixed channel-wise affine map. `LayerStack` folds that
    map into a conv1d or dense layer directly before it (`fold_into`).
    """

    kind = "batchnorm"

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.params["gamma"] = np.ones(channels)
        self.params["beta"] = np.zeros(channels)
        self.buffers["running_mean"] = np.zeros(channels)
        self.buffers["running_var"] = np.ones(channels)
        self.zero_grads()

    def _axes(self, x):
        """Every axis but the last, which holds the channels."""
        if x.ndim not in (2, 3):
            raise ShapeError(f"batchnorm expects 2-D or 3-D input, got {x.ndim}-D")
        if x.shape[-1] != self.channels:
            raise ShapeError(f"batchnorm expects {self.channels} channels, got {x.shape[-1]}")
        return tuple(range(x.ndim - 1))

    def forward(self, x, train=False):
        axes = self._axes(x)
        if train:
            mean = x.mean(axis=axes)
            xhat = x - mean
            n_reduced = x.size // self.channels
            var = np.square(xhat).sum(axis=axes) / n_reduced  # np.var's arithmetic
            inv_std = 1.0 / np.sqrt(var + self.eps)
            xhat *= inv_std
            m = self.momentum
            self.buffers["running_mean"] *= 1.0 - m
            self.buffers["running_mean"] += m * mean
            self.buffers["running_var"] *= 1.0 - m
            self.buffers["running_var"] += m * var
            self._cache = ("train", xhat, inv_std, axes, n_reduced)
        else:
            inv_std = 1.0 / np.sqrt(self.buffers["running_var"] + self.eps)
            xhat = x - self.buffers["running_mean"]
            xhat *= inv_std
            self._cache = ("infer", xhat, inv_std, axes, None)
        out = self.params["gamma"] * xhat
        out += self.params["beta"]
        return out

    def param_grads(self, dout):
        _, xhat, _, axes, _ = self._cache
        self.grads["gamma"] += (dout * xhat).sum(axis=axes)
        self.grads["beta"] += dout.sum(axis=axes)

    def backward(self, dout, need_param_grads=True):
        if need_param_grads:
            self.param_grads(dout)
        mode, xhat, inv_std, axes, n = self._cache
        dx = dout * self.params["gamma"]  # dxhat, then turned into dx in place
        if mode == "infer":
            dx *= inv_std
            return dx
        prod = dx * xhat
        s1 = dx.sum(axis=axes)
        s2 = prod.sum(axis=axes)
        dx *= n
        dx -= s1
        dx -= np.multiply(xhat, s2, out=prod)
        dx *= inv_std / n
        return dx

    def fold_into(self, layer: Layer) -> Layer:
        """layer (a conv1d or dense) followed by this layer in infer mode,
        as one layer of layer's class: weight W * s and bias
        (b - running_mean) * s + beta, with s = gamma / sqrt(running_var +
        eps) per output channel. The folded layer is a new object that
        shares no array with either layer and accumulates no gradient, so
        it serves infer passes only."""
        s = self.params["gamma"] / np.sqrt(self.buffers["running_var"] + self.eps)
        weight = layer.params["weight"]
        shape = [1] * weight.ndim
        shape[layer.out_axis] = -1
        folded = copy.copy(layer)
        folded.params = {
            "weight": weight * s.reshape(shape),
            "bias": (layer.params["bias"] - self.buffers["running_mean"]) * s
            + self.params["beta"],
        }
        folded.grads = {}
        folded._cache = None
        return folded

    def config(self):
        return {"kind": self.kind, "channels": self.channels,
                "eps": self.eps, "momentum": self.momentum}


class Standardize(Layer):
    """Per-channel (x - mean) / std over the last axis, as in BatchNorm,
    with fixed buffers and no parameters, alike in train and infer mode.
    net/training.py's `fit` sets a leading one from the training inputs."""

    kind = "standardize"

    def __init__(self, channels: int):
        super().__init__()
        self.channels = channels
        self.buffers.update(mean=np.zeros(channels), std=np.ones(channels))

    def fit(self, x: np.ndarray) -> None:
        """The mean and std of x over all axes but the last; a zero std is 1."""
        axes = tuple(range(x.ndim - 1))
        std = x.std(axis=axes)
        std[std == 0.0] = 1.0
        self.buffers["mean"][...] = x.mean(axis=axes)
        self.buffers["std"][...] = std

    def fault(self) -> str | None:
        mean, std = self.buffers["mean"], self.buffers["std"]
        for name, bad, what in (("mean", mean[~np.isfinite(mean)], "finite"),
                                ("std", std[~(np.isfinite(std) & (std > 0))], "positive finite")):
            if bad.size:
                return f"{name} must hold {what} values, got {float(bad[0])!r}"
        return None

    def forward(self, x, train=False):
        if x.shape[-1] != self.channels:
            raise ShapeError(f"standardize expects {self.channels} channels, got {x.shape[-1]}")
        return (x - self.buffers["mean"]) / self.buffers["std"]

    def backward(self, dout, need_param_grads=True):
        return dout / self.buffers["std"]

    def config(self):
        return {"kind": self.kind, "channels": self.channels}


class ReLU(Layer):
    kind = "relu"

    def forward(self, x, train=False):
        self._cache = x > 0
        return np.maximum(x, 0.0)

    def backward(self, dout, need_param_grads=True):
        return dout * self._cache


class GlobalAvgPool(Layer):
    """Average over the time axis: (batch, time, channels) -> (batch, channels)."""

    kind = "global-avg-pool"

    def forward(self, x, train=False):
        if x.ndim != 3:
            raise ShapeError(f"global-avg-pool expects 3-D input, got {x.ndim}-D")
        self._cache = x.shape[1]
        return x.mean(axis=1)

    def backward(self, dout, need_param_grads=True):
        t = self._cache
        # every time step receives exactly 1/T of the pooled gradient
        n, c = dout.shape
        return np.broadcast_to((dout / t)[:, None, :], (n, t, c))


class Dense(Layer):
    kind = "dense"
    out_axis = 1  # the weight axis of the outputs

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        if in_dim < 1 or out_dim < 1:
            raise ConfigError(f"dense needs positive dims, got {in_dim}->{out_dim}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.params["weight"] = self._init_uniform(rng, (in_dim, out_dim), in_dim)
        self.params["bias"] = self._init_uniform(rng, (out_dim,), in_dim)
        self.zero_grads()

    def forward(self, x, train=False):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(
                f"dense expects (batch, {self.in_dim}), got {x.shape}")
        self._cache = x
        return x @ self.params["weight"] + self.params["bias"]

    def param_grads(self, dout):
        self.grads["weight"] += self._cache.T @ dout
        self.grads["bias"] += dout.sum(axis=0)

    def backward(self, dout, need_param_grads=True):
        if need_param_grads:
            self.param_grads(dout)
        return dout @ self.params["weight"].T

    def config(self):
        return {"kind": self.kind, "in_dim": self.in_dim, "out_dim": self.out_dim}


class Dropout(Layer):
    """Inverted dropout: scales kept units by 1/(1-rate) at train time so
    that infer mode is a pure pass-through."""

    kind = "dropout"

    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng

    def forward(self, x, train=False):
        if not train or self.rate == 0.0:
            self._cache = None
            return x
        keep = 1.0 - self.rate
        mask = np.divide(self.rng.random(x.shape) < keep, keep, dtype=x.dtype)
        self._cache = mask
        return x * mask

    def backward(self, dout, need_param_grads=True):
        if self._cache is None:
            return dout
        return dout * self._cache

    def config(self):
        return {"kind": self.kind, "rate": self.rate}


class Softmax(Layer):
    kind = "softmax"

    def forward(self, x, train=False):
        z = x - x.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)


LAYER_KINDS = {
    cls.kind: cls
    for cls in (Conv1d, BatchNorm, Standardize, ReLU, GlobalAvgPool, Dense, Dropout, Softmax)
}
SEEDED_LAYERS = (Conv1d, Dense, Dropout)  # the layers that take an rng


def layer_from_config(cfg: dict, rng: np.random.Generator) -> Layer:
    """Rebuild a layer from its config() dict: the keys other than "kind"
    are its constructor's arguments. Weights are freshly seeded and are
    expected to be overwritten when loading a checkpoint."""
    args = dict(cfg)
    cls = LAYER_KINDS.get(args.pop("kind", None))
    if cls is None:
        raise ConfigError(f"unknown layer kind {cfg.get('kind')!r}")
    if cls in SEEDED_LAYERS:
        args["rng"] = rng
    try:
        return cls(**args)
    except TypeError as exc:
        raise ConfigError(f"malformed {cls.kind} layer config {cfg}: {exc}") from None
