"""Sequential layer stack with reverse-mode gradients.

A classifier stack ends in a softmax layer. `forward` returns class
probabilities; `logits` stops just before the softmax. Gradients are
available with respect to parameters (for training) and with respect to
the input (for attribution), against either the pre-softmax logit of a
target class or its post-softmax probability.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, NumericError, ShapeError
from .layers import Layer, Softmax, layer_from_config


class LayerStack:
    def __init__(self, layers: list[Layer], input_shape: tuple[int, ...],
                 seed: int = 0, arch: str = "custom"):
        if not layers:
            raise ConfigError("empty layer stack")
        self.layers = layers
        self.input_shape = tuple(int(d) for d in input_shape)
        self.seed = seed
        self.arch = arch

    # -- construction ----------------------------------------------------

    @classmethod
    def from_configs(cls, configs: list[dict], input_shape, seed=0, arch="custom"):
        rng = np.random.default_rng(seed)
        layers = [layer_from_config(c, rng) for c in configs]
        stack = cls(layers, input_shape, seed=seed, arch=arch)
        stack.rng = rng
        return stack

    @property
    def has_softmax_head(self) -> bool:
        return isinstance(self.layers[-1], Softmax)

    @property
    def n_classes(self) -> int:
        for layer in reversed(self.layers):
            if layer.kind == "dense":
                return layer.out_dim
        raise ConfigError("stack has no dense layer to define an output size")

    def layer_configs(self) -> list[dict]:
        return [layer.config() for layer in self.layers]

    def parameter_count(self) -> int:
        return sum(layer.n_params for layer in self.layers)

    # -- forward ---------------------------------------------------------

    # Non-finite values are caught where they can first appear: at the
    # input and after every parametric layer. The layers between pass a NaN
    # or inf on (ReLU's np.maximum propagates NaN), so checking after them
    # as well would only repeat these checks.
    _CHECKED_KINDS = frozenset({"conv1d", "dense", "batchnorm"})

    def _batched(self, x: np.ndarray) -> tuple[np.ndarray, bool]:
        x = np.asarray(x, dtype=np.float64)
        if x.shape == self.input_shape:
            xb, single = x[None], True
        elif x.shape[1:] == self.input_shape:
            xb, single = x, False
        else:
            raise ShapeError(
                f"input shape {x.shape} does not match model input {self.input_shape}")
        if not np.isfinite(xb).all():
            raise NumericError("non-finite value in network input")
        return xb, single

    def _run(self, xb: np.ndarray, layers, train: bool) -> np.ndarray:
        out = xb
        for i, layer in enumerate(layers):
            out = layer.forward(out, train=train)
            if layer.kind in self._CHECKED_KINDS and not np.isfinite(out).all():
                raise NumericError(
                    f"non-finite activation after {layer.kind} layer {i}")
        return out

    def forward(self, x, train: bool = False) -> np.ndarray:
        """Class probabilities, shape (batch, m) or (m,) for a single input."""
        xb, single = self._batched(x)
        out = self._run(xb, self.layers, train)
        return out[0] if single else out

    def logits(self, x, train: bool = False) -> np.ndarray:
        """Pre-softmax scores (requires a softmax-terminated stack)."""
        if not self.has_softmax_head:
            raise ConfigError("logits() requires a softmax-terminated stack")
        xb, single = self._batched(x)
        out = self._run(xb, self.layers[:-1], train)
        return out[0] if single else out

    def predict(self, x, batch_size: int = 64) -> np.ndarray:
        """Argmax class indices in infer mode, computed in batches."""
        xb, single = self._batched(x)
        preds = np.empty(len(xb), dtype=np.int64)
        for start in range(0, len(xb), batch_size):
            chunk = xb[start:start + batch_size]
            preds[start:start + len(chunk)] = self.logits(chunk).argmax(axis=1)
        return preds[0] if single else preds

    # -- backward --------------------------------------------------------

    def zero_grads(self) -> None:
        for layer in self.layers:
            layer.zero_grads()

    def backprop_logits(self, dlogits: np.ndarray,
                        need_param_grads: bool = True) -> np.ndarray:
        """Backpropagate a gradient seeded at the logits through the stack
        prefix. Caches from the most recent logits() call are consumed."""
        grad = dlogits
        for layer in reversed(self.layers[:-1]):
            grad = layer.backward(grad, need_param_grads=need_param_grads)
        if not np.isfinite(grad).all():
            raise NumericError("non-finite gradient in backward pass")
        return grad

    def class_gradients(self, x, class_index, target: str = "logit",
                        need_param_grads: bool = False):
        """Scalar output and its input-gradient for each row of a batch.

        class_index may be a single int (applied to every row) or an array
        of per-row indices. target selects the differentiated scalar:
        "logit" for the pre-softmax class score, "prob" for the softmax
        probability.
        """
        xb, single = self._batched(x)
        n = len(xb)
        idx = np.full(n, class_index, dtype=np.int64) if np.isscalar(class_index) \
            else np.asarray(class_index, dtype=np.int64)
        if idx.shape != (n,):
            raise ShapeError(f"class_index shape {idx.shape} does not match batch {n}")
        m = self.n_classes
        if (idx < 0).any() or (idx >= m).any():
            raise ConfigError(f"class index out of range [0, {m})")
        logits = self.logits(xb)
        rows = np.arange(n)
        if target == "logit":
            values = logits[rows, idx]
            dlogits = np.zeros_like(logits)
            dlogits[rows, idx] = 1.0
        elif target == "prob":
            probs = self.layers[-1].forward(logits)
            values = probs[rows, idx]
            # row of the softmax Jacobian: dp_k/dz = p_k (e_k - p)
            dlogits = -probs * values[:, None]
            dlogits[rows, idx] += values
        else:
            raise ConfigError(f"target must be 'logit' or 'prob', got {target!r}")
        grads = self.backprop_logits(dlogits, need_param_grads=need_param_grads)
        if single:
            return float(values[0]), grads[0]
        return values, grads

    # -- state -----------------------------------------------------------

    def state_arrays(self):
        """Deterministically ordered (label, array) pairs of all weights and
        buffers, used by the checkpoint container and weight copying."""
        out = []
        for i, layer in enumerate(self.layers):
            for name in sorted(layer.params):
                out.append((f"{i}.param.{name}", layer.params[name]))
            for name in sorted(layer.buffers):
                out.append((f"{i}.buffer.{name}", layer.buffers[name]))
        return out

    def copy_state(self) -> dict[str, np.ndarray]:
        return {label: arr.copy() for label, arr in self.state_arrays()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        for label, arr in self.state_arrays():
            if label not in state:
                raise ConfigError(f"state is missing array {label!r}")
            src = state[label]
            if src.shape != arr.shape:
                raise ShapeError(
                    f"state array {label!r} has shape {src.shape}, expected {arr.shape}")
            arr[...] = src
