"""Sequential layer stack with reverse-mode gradients.

A classifier stack ends in a softmax layer. `forward` returns class
probabilities; `logits` stops just before the softmax. Gradients are
available with respect to parameters (for training) and with respect to
the input (for attribution), against either the pre-softmax logit of a
target class or its post-softmax probability.

The stack is the one place that maps the data's layout to the layers'
layout and back. Inputs and input gradients are (batch, channels, time)
like the data; conv, batchnorm and pool layers compute on (batch, time,
channels), where each im2col row is one contiguous run (see
net/layers.py). A rank-3 batch goes to the first layer as the view
`x.transpose(0, 2, 1)`, and `backprop_logits` hands the input gradient
back through the same transpose. Rank-2 (batch, features) batches pass
as they are.

Infer-mode passes (`forward` and `logits` with train=False, `predict`,
`class_gradients`) run over their batch in blocks of INFER_BLOCK_ROWS rows
and concatenate the per-block results. These blocks are the only batching
on inference paths: callers pass whole batches (integrated gradients its
whole path, `evaluate_loss` a whole validation slice). The blocks keep
the im2col and input-gradient buffers small enough to be reused from the
heap instead of being mapped afresh on every pass. In infer mode no row reads
another: BatchNorm applies its running statistics, each output row of the
conv GEMMs (forward and input gradient) reads only its own row of the
(batch * time)-row operand, and pooling, dense and softmax work row by
row. So
the results equal those of one whole-batch pass bit for bit, as far as
the BLAS rounds a row alike in any matrix size. Two cases where it does
not (OpenBLAS): numpy runs a one-row matmul as a matrix-vector product,
so a lone last row joins the block before it; and the dense input
gradient `dout @ W.T` takes a kernel chosen by matrix size, so the
mean-mlp's input gradients may differ from a whole-batch pass in the
last bits. The fcn-cnn's passes and the mean-mlp's forward passes are
bit-identical (tests/test_netcore.py::TestInferBlocks).

After a blocked pass the layer caches hold only its last block, so
`backprop_logits` checks that its gradient has as many rows as the pass
the caches hold. Train mode runs the whole batch at once, since
BatchNorm's batch statistics couple the rows.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, NumericError, ShapeError
from .layers import Layer, Softmax, layer_from_config

# Rows per infer-mode block. On the benchmark's `attribute` workload (2-core
# box, OpenBLAS, 30 s runs, seeds 7101-7109, time-major layers) the IG-sample
# p50 read 1048/1153/1084 ms with 8 rows (median 1084), 1050/1105/1124 with
# 16 (median 1105) and 1222/1304/1169 with 32 (median 1222); peak RSS
# 296/296/308, 296/300/296 and 310/310/310 MB.
INFER_BLOCK_ROWS = 8


def _row_blocks(n: int) -> list[slice]:
    """Row slices of an infer-mode pass over n rows: INFER_BLOCK_ROWS each,
    except that a lone last row joins the block before it (a one-row
    matmul would round differently)."""
    stops = list(range(INFER_BLOCK_ROWS, n, INFER_BLOCK_ROWS))
    if stops and n - stops[-1] == 1:
        stops.pop()
    return [slice(a, b) for a, b in zip([0] + stops, stops + [n])]


class LayerStack:
    def __init__(self, layers: list[Layer], input_shape: tuple[int, ...],
                 seed: int = 0, arch: str = "custom"):
        if not layers:
            raise ConfigError("empty layer stack")
        self.layers = layers
        self.input_shape = tuple(int(d) for d in input_shape)
        self.seed = seed
        self.arch = arch
        self._cached_rows = None  # rows of the pass the layer caches hold

    # -- construction ----------------------------------------------------

    @classmethod
    def from_configs(cls, configs: list[dict], input_shape, seed=0, arch="custom"):
        rng = np.random.default_rng(seed)
        layers = [layer_from_config(c, rng) for c in configs]
        return cls(layers, input_shape, seed=seed, arch=arch)

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
        self._cached_rows = None  # until every layer has cached this pass
        out = xb.transpose(0, 2, 1) if xb.ndim == 3 else xb  # layers run time-major
        for i, layer in enumerate(layers):
            out = layer.forward(out, train=train)
            if layer.kind in self._CHECKED_KINDS and not np.isfinite(out).all():
                raise NumericError(
                    f"non-finite activation after {layer.kind} layer {i}")
        self._cached_rows = len(xb)
        return out

    def _pass(self, xb: np.ndarray, layers, train: bool) -> np.ndarray:
        """One pass of `layers` over a batch: whole in train mode, where
        BatchNorm's batch statistics couple the rows, and in row blocks in
        infer mode."""
        if train:
            return self._run(xb, layers, train)
        return np.concatenate([self._run(xb[rows], layers, train)
                               for rows in _row_blocks(len(xb))])

    def forward(self, x, train: bool = False) -> np.ndarray:
        """Class probabilities, shape (batch, m) or (m,) for a single input."""
        xb, single = self._batched(x)
        out = self._pass(xb, self.layers, train)
        return out[0] if single else out

    def logits(self, x, train: bool = False) -> np.ndarray:
        """Pre-softmax scores (requires a softmax-terminated stack)."""
        if not self.has_softmax_head:
            raise ConfigError("logits() requires a softmax-terminated stack")
        xb, single = self._batched(x)
        out = self._pass(xb, self.layers[:-1], train)
        return out[0] if single else out

    def predict(self, x) -> np.ndarray:
        """Argmax class indices in infer mode."""
        return self.logits(x).argmax(axis=-1)

    # -- backward --------------------------------------------------------

    def zero_grads(self) -> None:
        for layer in self.layers:
            layer.zero_grads()

    def backprop_logits(self, dlogits: np.ndarray,
                        need_param_grads: bool = True) -> np.ndarray:
        """Backpropagate a gradient seeded at the logits through the stack
        prefix. The caches of the most recent pass are consumed; dlogits
        must have as many rows as that pass (its last block in infer mode).
        Returns the gradient with respect to that pass's input, in the
        input's own layout."""
        if self._cached_rows is None or len(dlogits) != self._cached_rows:
            raise ShapeError(
                f"dlogits has {len(dlogits)} rows, but the layer caches hold "
                f"a pass over {self._cached_rows} rows")
        grad = dlogits
        for layer in reversed(self.layers[:-1]):
            grad = layer.backward(grad, need_param_grads=need_param_grads)
        if not np.isfinite(grad).all():
            raise NumericError("non-finite gradient in backward pass")
        return grad.transpose(0, 2, 1) if grad.ndim == 3 else grad

    def class_gradients(self, x, class_index, target: str = "logit"):
        """Scalar output and its input-gradient for each row of a batch.

        class_index may be a single int (applied to every row) or an array
        of per-row indices. target selects the differentiated scalar:
        "logit" for the pre-softmax class score, "prob" for the softmax
        probability. The batch runs in infer-mode row blocks, and no
        parameter gradient is computed.
        """
        if not self.has_softmax_head:
            raise ConfigError("class_gradients() requires a softmax-terminated stack")
        xb, single = self._batched(x)
        n = len(xb)
        idx = np.full(n, class_index, dtype=np.int64) if np.isscalar(class_index) \
            else np.asarray(class_index, dtype=np.int64)
        if idx.shape != (n,):
            raise ShapeError(f"class_index shape {idx.shape} does not match batch {n}")
        m = self.n_classes
        if (idx < 0).any() or (idx >= m).any():
            raise ConfigError(f"class index out of range [0, {m})")
        if target not in ("logit", "prob"):
            raise ConfigError(f"target must be 'logit' or 'prob', got {target!r}")
        values = np.empty(n)
        grads = np.empty_like(xb)
        for rows in _row_blocks(n):
            values[rows], grads[rows] = self._block_gradients(xb[rows], idx[rows], target)
        if single:
            return float(values[0]), grads[0]
        return values, grads

    def _block_gradients(self, xb, idx, target):
        """class_gradients of one row block, in one forward and one
        backward pass."""
        logits = self._run(xb, self.layers[:-1], False)
        rows = np.arange(len(xb))
        if target == "logit":
            values = logits[rows, idx]
            dlogits = np.zeros_like(logits)
            dlogits[rows, idx] = 1.0
        else:
            probs = self.layers[-1].forward(logits)
            values = probs[rows, idx]
            # row of the softmax Jacobian: dp_k/dz = p_k (e_k - p)
            dlogits = -probs * values[:, None]
            dlogits[rows, idx] += values
        return values, self.backprop_logits(dlogits, need_param_grads=False)

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
