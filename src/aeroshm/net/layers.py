"""Layer set for the differentiable network engine.

Seven layer kinds: conv1d, batchnorm, relu, global-avg-pool, dense,
dropout, softmax. Every layer implements a forward pass that caches what
its backward pass needs, and a backward pass returning the gradient with
respect to its input while accumulating parameter gradients. All math is
float64 and runs on plain numpy arrays.

Array conventions:
    conv/pool layers   (batch, channels, time)
    dense layers       (batch, features)

The backward passes optionally skip parameter-gradient work
(`need_param_grads=False`), which roughly halves the cost of input-only
gradients as used by attribution.

Layers never modify their inputs: neither `x` in forward nor `dout` in
backward. In-place arithmetic only touches arrays a layer has just
allocated itself. That is how BatchNorm works: it centres `x` once into a
new array and scales that into `xhat`, applies its affine to a fresh
output, and builds its input gradient in the buffer of `dout * gamma`.

Conv1d's input gradient is one batched GEMM, `w_mat.T @ dout`, whose
(n, c*k, t) result reads as (n, c, k, t): for each kernel tap j the slice
`[:, :, j]` is a contiguous (n, c, t) block, and the k blocks are added
at shifts 0..k-1 onto the zero-padded input gradient, in tap order.

Every such rewrite keeps the float64 arithmetic and its order, so results
are bit-identical to the plain formulas, with one exception: ReLU's
backward (`dout * mask`) can give -0.0 where `np.where` gave 0.0.
"""

from __future__ import annotations

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

    def config(self) -> dict:
        """Hyperparameters needed to rebuild this layer (no weights)."""
        return {"kind": self.kind}

    @property
    def n_params(self) -> int:
        return sum(p.size for p in self.params.values())

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

    Weight shape (filters, in_channels, kernel_size); stride fixed at 1.
    For even kernels the extra pad column goes on the right.
    """

    kind = "conv1d"

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
        self.pad_right = kernel_size - 1 - self.pad_left
        fan_in = in_channels * kernel_size
        self.params["weight"] = self._init_uniform(rng, (filters, in_channels, kernel_size), fan_in)
        self.params["bias"] = self._init_uniform(rng, (filters,), fan_in)
        self.zero_grads()

    def forward(self, x, train=False):
        n, c, t = x.shape
        if c != self.in_channels:
            raise ShapeError(f"conv1d expects {self.in_channels} channels, got {c}")
        if t < self.kernel_size:
            raise ShapeError(f"conv1d kernel {self.kernel_size} longer than input ({t})")
        k = self.kernel_size
        xp = np.pad(x, ((0, 0), (0, 0), (self.pad_left, self.pad_right)))
        # im2col: one GEMM of (n*t, c*k) @ (c*k, filters)
        windows = sliding_window_view(xp, k, axis=2)  # (n, c, t, k)
        cols = windows.transpose(0, 2, 1, 3).reshape(n * t, c * k)
        w_mat = self.params["weight"].reshape(self.filters, c * k)
        out = cols @ w_mat.T + self.params["bias"]
        self._cache = (cols, (n, c, t))
        return np.ascontiguousarray(out.reshape(n, t, self.filters).transpose(0, 2, 1))

    def backward(self, dout, need_param_grads=True):
        cols, (n, c, t) = self._cache
        k = self.kernel_size
        w_mat = self.params["weight"].reshape(self.filters, c * k)
        if need_param_grads:
            dout2 = dout.transpose(0, 2, 1).reshape(n * t, self.filters)
            self.grads["weight"] += (dout2.T @ cols).reshape(self.params["weight"].shape)
            self.grads["bias"] += dout2.sum(axis=0)
        # one batched GEMM: (c*k, filters) @ (n, filters, t) -> (n, c, k, t)
        dcols = (w_mat.T @ dout).reshape(n, c, k, t)
        dxp = np.zeros((n, c, t + k - 1))
        for j in range(k):  # fold the k shifted copies back onto the padded input
            dxp[:, :, j:j + t] += dcols[:, :, j]
        return dxp[:, :, self.pad_left:self.pad_left + t]

    def config(self):
        return {"kind": self.kind, "in_channels": self.in_channels,
                "filters": self.filters, "kernel_size": self.kernel_size}


class BatchNorm(Layer):
    """Per-channel batch normalization with running statistics.

    Train mode normalizes by batch statistics (biased variance) and updates
    the running estimates; infer mode applies the running statistics, which
    makes the layer a fixed per-channel affine map.
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

    def _shape_info(self, x):
        if x.ndim == 2:
            return (0,), (1, self.channels)
        if x.ndim == 3:
            return (0, 2), (1, self.channels, 1)
        raise ShapeError(f"batchnorm expects 2-D or 3-D input, got {x.ndim}-D")

    def forward(self, x, train=False):
        axes, bshape = self._shape_info(x)
        if x.shape[1] != self.channels:
            raise ShapeError(f"batchnorm expects {self.channels} channels, got {x.shape[1]}")
        gamma = self.params["gamma"].reshape(bshape)
        beta = self.params["beta"].reshape(bshape)
        if train:
            mean = x.mean(axis=axes)
            xhat = x - mean.reshape(bshape)
            n_reduced = x.size // self.channels
            var = np.square(xhat).sum(axis=axes) / n_reduced  # np.var's arithmetic
            inv_std = 1.0 / np.sqrt(var + self.eps)
            xhat *= inv_std.reshape(bshape)
            m = self.momentum
            self.buffers["running_mean"] *= 1.0 - m
            self.buffers["running_mean"] += m * mean
            self.buffers["running_var"] *= 1.0 - m
            self.buffers["running_var"] += m * var
            self._cache = ("train", xhat, inv_std, axes, bshape, n_reduced)
        else:
            inv_std = 1.0 / np.sqrt(self.buffers["running_var"] + self.eps)
            xhat = x - self.buffers["running_mean"].reshape(bshape)
            xhat *= inv_std.reshape(bshape)
            self._cache = ("infer", xhat, inv_std, axes, bshape, None)
        out = gamma * xhat
        out += beta
        return out

    def backward(self, dout, need_param_grads=True):
        mode, xhat, inv_std, axes, bshape, n = self._cache
        gamma = self.params["gamma"].reshape(bshape)
        if need_param_grads:
            self.grads["gamma"] += (dout * xhat).sum(axis=axes)
            self.grads["beta"] += dout.sum(axis=axes)
        dx = dout * gamma  # dxhat, then turned into dx in place
        if mode == "infer":
            dx *= inv_std.reshape(bshape)
            return dx
        prod = dx * xhat
        s1 = dx.sum(axis=axes).reshape(bshape)
        s2 = prod.sum(axis=axes).reshape(bshape)
        dx *= n
        dx -= s1
        dx -= np.multiply(xhat, s2, out=prod)
        dx *= inv_std.reshape(bshape) / n
        return dx

    def config(self):
        return {"kind": self.kind, "channels": self.channels,
                "eps": self.eps, "momentum": self.momentum}


class ReLU(Layer):
    kind = "relu"

    def forward(self, x, train=False):
        self._cache = x > 0
        return np.maximum(x, 0.0)

    def backward(self, dout, need_param_grads=True):
        return dout * self._cache


class GlobalAvgPool(Layer):
    """Average over the time axis: (batch, channels, time) -> (batch, channels)."""

    kind = "global-avg-pool"

    def forward(self, x, train=False):
        if x.ndim != 3:
            raise ShapeError(f"global-avg-pool expects 3-D input, got {x.ndim}-D")
        self._cache = x.shape[2]
        return x.mean(axis=2)

    def backward(self, dout, need_param_grads=True):
        t = self._cache
        # every time step receives exactly 1/T of the pooled gradient
        return np.repeat(dout[:, :, None], t, axis=2) / t


class Dense(Layer):
    kind = "dense"

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

    def backward(self, dout, need_param_grads=True):
        x = self._cache
        if need_param_grads:
            self.grads["weight"] += x.T @ dout
            self.grads["bias"] += dout.sum(axis=0)
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
        mask = (self.rng.random(x.shape) < keep) / keep
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
        p = e / e.sum(axis=1, keepdims=True)
        self._cache = p
        return p

    def backward(self, dout, need_param_grads=True):
        p = self._cache
        return p * (dout - (dout * p).sum(axis=1, keepdims=True))


LAYER_KINDS = {
    cls.kind: cls
    for cls in (Conv1d, BatchNorm, ReLU, GlobalAvgPool, Dense, Dropout, Softmax)
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
