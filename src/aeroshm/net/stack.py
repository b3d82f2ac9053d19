"""Sequential layer stack with reverse-mode gradients.

A classifier stack ends in a softmax layer. `forward` returns class
probabilities; `logits` stops just before the softmax. Gradients are
available with respect to parameters, for training, after a train-mode
pass (`backprop_logits`), and with respect to the input, for
attribution, in infer mode (`class_gradients`, `path_gradients`), against
either the pre-softmax logit of a target class or its post-softmax
probability.

The stack is the one place that maps the data's layout to the layers'
layout and back. Inputs and input gradients are (batch, channels, time)
like the data; conv, batchnorm and pool layers compute on (batch, time,
channels), where each im2col row is one contiguous run (see
net/layers.py). A rank-3 batch goes to the first layer as the view
`x.transpose(0, 2, 1)`, and an input gradient goes back through the
same transpose. Rank-2 (batch, features) batches pass as they are.

Infer-mode passes (`forward` and `logits` with train=False, `predict`,
`class_gradients`, `path_gradients`) run folded layers: in infer mode a
batchnorm is a fixed per-channel affine map, so each conv1d or dense
layer that a batchnorm directly follows runs as one layer of its own
class with weight W * s and bias (b - running_mean) * s + beta, where
s = gamma / sqrt(running_var + eps) (Jacob et al. 2018, arXiv:1712.05877,
section 3.2). `_infer_layers` builds that list afresh from the current
parameters on each public call, with no cache, since `fit` runs infer
passes between its steps. Train mode runs the stack's own layers.

Infer-mode passes run over their batch in blocks of INFER_BLOCK_ROWS rows
and concatenate the per-block results. These blocks are the only batching
on inference paths: callers pass whole batches (integrated gradients its
whole path, `evaluate_loss` a whole validation slice). The blocks keep
the im2col and input-gradient buffers small enough to be reused from the
heap instead of being mapped afresh on every pass. In infer mode no row reads
another: the folded layers apply the running statistics, each output row
of the conv GEMMs (forward and input gradient) reads only its own row of
the (batch * time)-row operand, and pooling, dense and softmax work row
by row. So
the results equal those of one whole-batch pass bit for bit, as far as
the BLAS rounds a row alike in any matrix size. Two cases where it does
not (OpenBLAS): numpy runs a one-row matmul as a matrix-vector product,
so a lone last row joins the block before it; and the dense input
gradient `dout @ W.T` takes a kernel chosen by matrix size, so the
mean-mlp's input gradients may differ from a whole-batch pass in the
last bits. The fcn-cnn's passes and the mean-mlp's forward passes are
bit-identical (tests/test_netcore.py::TestInferBlocks).

`path_gradients` serves integrated gradients. An infer pass begins with
a run of affine layers (the folded first conv, after any dropout), and
on the path x' + g (x - x') that run's output is a' + g (a - a'), where
a and a' are its outputs at x and x'. So the run goes forward on those two
rows only, and, being linear, backward once on the gradient summed over
the path (Sundararajan et al. 2017, arXiv:1703.01365).

`constant_logits` serves windows that hold each channel constant in
time (the APB and MVB baselines). Up to the global average pool, the
fcn-cnn's infer layers are time-local: a folded "same" conv1d of kernel
k reads pad_left = (k - 1) // 2 steps before an output step and
k - 1 - pad_left after it, and ReLU reads its own step. Summed over the
convs, that gives the halos, 3 + 2 + 1 = 6 steps on the left and
4 + 2 + 1 = 7 on the right. On a constant window, an activation before
the pool depends on its time step only through the zero padding in
view. It is the same value at every step whose halos lie inside the
window, and the same value as the step at that distance from its edge
otherwise. So the layers before the pool run, in the usual row blocks,
on a window of 6 + 1 + 7 = 14 steps. Its output is expanded to the full
length: 6 left-edge columns, the interior column repeated (137 times for
150 steps), 7 right-edge columns. Then the pool and the head run on the
expanded array. Every expanded value is computed from the same in-range
values as in a full pass, by a GEMM row with the same operands, and the
pool reduces an array of the same shape and layout. So the logits are
those of a full pass bit for bit, on the same BLAS caveat as the row
blocks (tests/test_netcore.py::TestConstantLogits). A window no wider
than 14 steps runs whole.

A stack computes in its parameters' dtype (`dtype`): the fcn-cnn in
float32, the mean-mlp and the layer-level test oracles in float64.
`_batched` casts every input to it, and `astype` casts the parameters,
buffers and gradients; every layer then allocates in its input's dtype
(net/layers.py). Two sums are kept wide: the loss is taken in float64
(net/losses.py), and `path_gradients` sums the path gradients in float64
before they go back through the affine run.

`backprop_logits` serves training only. It gives the parameter
gradients of the last train-mode pass, which runs the whole batch at once
since BatchNorm's batch statistics couple the rows; the stack records
that pass's row count and nothing else, and forgets it on any other
pass. `class_gradients` and `path_gradients` take each block's gradient
back through the layers it has just run, before the next block runs.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, NumericError, ShapeError
from .layers import Layer, Softmax, layer_from_config

# Rows per infer-mode block. On the benchmark's `attribute` workload (2-core
# box, OpenBLAS 0.3.31 on 2 threads, fcn-cnn in float32, 30 s runs, seeds
# 13201-13210, the three sizes run in turn in a rotating order) the
# IG-sample p50 read a median 320 ms [q25 313, q75 332] with 8 rows,
# 329 [320, 339] with 16 and 334 [326, 336] with 32. 16 and 32 rows each
# beat 8 in 3 of 10 rounds. Peak RSS read 190, 190 and 220 MB.
INFER_BLOCK_ROWS = 8

# The class outputs gradients are taken of: the pre-softmax logit or the
# softmax probability.
GRADIENT_TARGETS = ("logit", "prob")

# Layer kinds that are affine maps in infer mode (dropout passes its input on).
_INFER_AFFINE = frozenset({"conv1d", "dense", "batchnorm", "dropout"})

# Layer kinds whose infer-mode output at a time step reads only the input
# steps a conv kernel spans around it (the others act step by step).
_TIME_LOCAL = frozenset({"conv1d", "batchnorm", "relu", "dropout"})


def _first_with_params(layers) -> int:
    """Index of the first layer that has parameters."""
    return next(i for i, layer in enumerate(layers) if layer.params)


def _row_blocks(n: int) -> list[slice]:
    """Row slices of an infer-mode pass over n rows: INFER_BLOCK_ROWS each,
    except that a lone last row joins the block before it (a one-row
    matmul would round differently)."""
    stops = list(range(INFER_BLOCK_ROWS, n, INFER_BLOCK_ROWS))
    if stops and n - stops[-1] == 1:
        stops.pop()
    return [slice(a, b) for a, b in zip([0] + stops, stops + [n])]


def _infer_layers(layers: list[Layer]) -> list[Layer]:
    """The layers an infer-mode pass runs for `layers`: each conv1d or
    dense layer that a batchnorm directly follows is folded with it into
    one layer of its own class (BatchNorm.fold_into). Built from the
    current parameters on every call."""
    out: list[Layer] = []
    for layer in layers:
        if layer.kind == "batchnorm" and out and out[-1].kind in ("conv1d", "dense"):
            out[-1] = layer.fold_into(out[-1])
        else:
            out.append(layer)
    return out


def _input_gradient(layers: list[Layer], grad: np.ndarray) -> np.ndarray:
    """The gradient at the input of `layers` for `grad` at their output,
    from the caches of the pass they have just run; no parameter
    gradient."""
    for layer in reversed(layers):
        grad = layer.backward(grad, need_param_grads=False)
    return grad


def _time_major(xb: np.ndarray) -> np.ndarray:
    """A batch in the layers' layout: a rank-3 (batch, channels, time)
    batch as a (batch, time, channels) view, a rank-2 one as it is. The
    same transpose maps a layer-layout gradient back."""
    return xb.transpose(0, 2, 1) if xb.ndim == 3 else xb


class LayerStack:
    def __init__(self, layers: list[Layer], input_shape: tuple[int, ...],
                 seed: int = 0, arch: str = "custom"):
        if not layers:
            raise ConfigError("empty layer stack")
        self.layers = layers
        self.input_shape = tuple(int(d) for d in input_shape)
        self.seed = seed
        self.arch = arch
        # rows of the last train-mode pass that completed, whose caches the
        # layers hold; None after any other pass
        self._train_rows = None

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

    @property
    def dtype(self) -> np.dtype:
        """The dtype the stack computes in: its parameters' (float64 for
        a stack without parameters)."""
        for layer in self.layers:
            for p in layer.params.values():
                return p.dtype
        return np.dtype(np.float64)

    def astype(self, dtype) -> "LayerStack":
        """Cast every layer's parameters, buffers and gradients to dtype, in
        place, and return the stack. An optimizer built before keeps state
        of the old dtype, so build it after."""
        for layer in self.layers:
            for store in (layer.params, layer.grads, layer.buffers):
                for name, arr in store.items():
                    store[name] = arr.astype(dtype, copy=False)
        self._train_rows = None
        return self

    def layer_configs(self) -> list[dict]:
        return [layer.config() for layer in self.layers]

    # -- forward ---------------------------------------------------------

    # Non-finite values are caught where they can first appear: at the
    # input and after every parametric layer. The layers between pass a NaN
    # or inf on (ReLU's np.maximum propagates NaN), so checking after them
    # as well would only repeat these checks.
    _CHECKED_KINDS = frozenset({"conv1d", "dense", "batchnorm"})

    def _batched(self, x: np.ndarray, shape=None) -> tuple[np.ndarray, bool]:
        """x in the stack's dtype as a batch of `shape` rows (the model
        input's by default), and whether it was one row; checks the shape
        and that every value is finite."""
        shape = self.input_shape if shape is None else shape
        x = np.asarray(x, dtype=self.dtype)
        if x.shape == shape:
            xb, single = x[None], True
        elif x.shape[1:] == shape:
            xb, single = x, False
        else:
            raise ShapeError(f"input shape {x.shape} does not match {shape}")
        if not np.isfinite(xb).all():
            raise NumericError("non-finite value in network input")
        return xb, single

    def _run(self, out: np.ndarray, layers, train: bool) -> np.ndarray:
        """Run `layers` over a batch in the layers' layout."""
        self._train_rows = None  # until every layer has cached this pass
        for i, layer in enumerate(layers):
            out = layer.forward(out, train=train)
            if layer.kind in self._CHECKED_KINDS and not np.isfinite(out).all():
                raise NumericError(
                    f"non-finite activation after {layer.kind} layer {i}")
        if train:
            self._train_rows = len(out)
        return out

    def _pass(self, xb: np.ndarray, layers, train: bool) -> np.ndarray:
        """One pass of `layers` over a batch: the stack's own layers, whole,
        in train mode, where BatchNorm's batch statistics couple the rows;
        folded layers in row blocks in infer mode."""
        if train:
            return self._run(_time_major(xb), layers, train)
        layers = _infer_layers(layers)
        return np.concatenate([self._run(_time_major(xb[rows]), layers, train)
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

    def constant_logits(self, levels) -> np.ndarray:
        """`logits` of the windows that hold each row of `levels`, shape
        (batch, channels) or (channels,), constant over input_shape[1]
        steps, bit for bit, from a pass over a window only as wide as the
        receptive field of the layers before the pool (module docstring).
        A window no wider than that runs whole."""
        if len(self.input_shape) != 2:
            raise ConfigError("constant windows need a (channels, time) model input")
        if not self.has_softmax_head:
            raise ConfigError("logits() requires a softmax-terminated stack")
        lb, single = self._batched(levels, self.input_shape[:1])
        layers = _infer_layers(self.layers[:-1])
        kinds = [layer.kind for layer in layers]
        if "global-avg-pool" not in kinds:
            raise ConfigError("constant windows need a global-avg-pool layer")
        pool = kinds.index("global-avg-pool")
        if not _TIME_LOCAL.issuperset(kinds[:pool]):
            raise ConfigError(
                f"constant windows need time-local layers before the pool, got {kinds[:pool]}")
        convs = [layer for layer in layers[:pool] if layer.kind == "conv1d"]
        left = sum(conv.pad_left for conv in convs)
        right = sum(conv.kernel_size - 1 - conv.pad_left for conv in convs)
        steps = self.input_shape[1]
        width = min(steps, left + 1 + right)
        repeats = np.ones(width, dtype=np.intp)
        if width < steps:  # column `left` stands for every step with no padding in view
            repeats[left] = steps - width + 1
        out = []
        for rows in _row_blocks(len(lb)):
            window = np.broadcast_to(lb[rows, None, :],
                                     (rows.stop - rows.start, width, lb.shape[1]))
            acts = self._run(window, layers[:pool], False)
            out.append(self._run(np.repeat(acts, repeats, axis=1), layers[pool:], False))
        out = np.concatenate(out)
        return out[0] if single else out

    def predict(self, x) -> np.ndarray:
        """Argmax class indices in infer mode."""
        return self.logits(x).argmax(axis=-1)

    # -- backward --------------------------------------------------------

    def zero_grads(self) -> None:
        for layer in self.layers:
            layer.zero_grads()

    def backprop_logits(self, dlogits: np.ndarray) -> None:
        """Accumulate the parameter gradients of the last train-mode pass
        for a gradient seeded at its logits, consuming the layers' caches.
        dlogits must have as many rows as that pass. The layers above the
        first layer with parameters run backward; that layer computes its
        parameter gradients only, and the layers below it do nothing, as a
        training step needs no gradient with respect to the input. The
        finite check reads that layer's parameter gradients, which every
        gradient of the pass feeds."""
        if self._train_rows is None:
            raise ConfigError(
                "parameter gradients need a train-mode pass: an infer-mode pass "
                "runs BatchNorm folded into the layer before it")
        if len(dlogits) != self._train_rows:
            raise ShapeError(
                f"dlogits has {len(dlogits)} rows, but the layer caches hold "
                f"a pass over {self._train_rows} rows")
        layers = self.layers[:-1] if self.has_softmax_head else self.layers
        first = _first_with_params(layers)
        grad = dlogits
        for layer in reversed(layers[first + 1:]):
            grad = layer.backward(grad, need_param_grads=True)
        layers[first].param_grads(grad)
        if not all(np.isfinite(g).all() for g in layers[first].grads.values()):
            raise NumericError("non-finite gradient in backward pass")

    def _targets(self, class_index, n: int, target: str) -> np.ndarray:
        """class_index as n per-row indices, checked with target."""
        if not self.has_softmax_head:
            raise ConfigError("gradients of a class output require a softmax-terminated stack")
        idx = np.full(n, class_index, dtype=np.int64) if np.isscalar(class_index) \
            else np.asarray(class_index, dtype=np.int64)
        if idx.shape != (n,):
            raise ShapeError(f"class_index shape {idx.shape} does not match batch {n}")
        m = self.n_classes
        if (idx < 0).any() or (idx >= m).any():
            raise ConfigError(f"class index out of range [0, {m})")
        if target not in GRADIENT_TARGETS:
            raise ConfigError(f"target must be 'logit' or 'prob', got {target!r}")
        return idx

    def class_gradients(self, x, class_index, target: str = "logit"):
        """Scalar output and its input-gradient for each row of a batch.

        class_index may be a single int (applied to every row) or an array
        of per-row indices. target selects the differentiated scalar:
        "logit" for the pre-softmax class score, "prob" for the softmax
        probability. The batch runs in infer-mode row blocks, and no
        parameter gradient is computed.
        """
        xb, single = self._batched(x)
        n = len(xb)
        idx = self._targets(class_index, n, target)
        layers = _infer_layers(self.layers[:-1])
        values = np.empty(n)
        grads = np.empty_like(xb)
        for rows in _row_blocks(n):
            logits = self._run(_time_major(xb[rows]), layers, False)
            values[rows], dlogits = self._seed(logits, idx[rows], target)
            grads[rows] = _time_major(_input_gradient(layers, dlogits))
        if not np.isfinite(grads).all():
            raise NumericError("non-finite gradient in backward pass")
        if single:
            return float(values[0]), grads[0]
        return values, grads

    def _seed(self, logits, idx, target):
        """The target scalar of each row of a block's logits, and its
        gradient with respect to them."""
        rows = np.arange(len(logits))
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
        return values, dlogits

    def path_gradients(self, x, baseline, steps: int, class_index: int,
                       target: str = "logit") -> tuple[float, float, np.ndarray]:
        """F(x), F(baseline) and the input gradient of F summed over the
        midpoint path: the `steps` points baseline + g (x - baseline) with
        g = (k + 1/2) / steps. F is the class_index output, its logit or
        probability as in class_gradients. This is what integrated
        gradients asks of a model.

        The leading affine run of the infer layers goes forward on x and
        the baseline only. Every path point's activation after it is
        built from those two, block by block, and the remaining layers run
        over the endpoints and the path points in infer-mode row blocks.
        The gradients at the run's output are summed over the path points
        in float64, and that sum goes backward through the run once, in
        the stack's dtype. A stack that begins with a non-affine layer has
        an empty run, and the path is built on the input itself.
        """
        if steps < 1:
            raise ConfigError(f"steps must be >= 1, got {steps}")
        for name, value in (("x", x), ("baseline", baseline)):
            if np.shape(value) != self.input_shape:
                raise ShapeError(f"{name} shape {np.shape(value)} does not match "
                                 f"model input {self.input_shape}")
        xb, _ = self._batched(np.stack([x, baseline]))
        n = steps + 2  # rows: x, the baseline, then the path points
        idx = self._targets(class_index, n, target)
        layers = _infer_layers(self.layers[:-1])
        affine = 0
        while affine < len(layers) and layers[affine].kind in _INFER_AFFINE:
            affine += 1
        prefix, rest = layers[:affine], layers[affine:]

        ends = self._run(_time_major(xb), prefix, False)
        diff = ends[0] - ends[1]
        gammas = np.concatenate([[1.0, 0.0], (np.arange(steps) + 0.5) / steps])
        gammas = gammas.astype(diff.dtype).reshape((-1,) + (1,) * diff.ndim)
        values = np.empty(2)
        grad_sum = np.zeros(diff.shape)  # float64, whatever the stack's dtype
        for rows in _row_blocks(n):
            k = max(min(rows.stop, 2) - rows.start, 0)  # endpoint rows in the block
            acts = ends[1] + gammas[rows] * diff
            acts[:k] = ends[rows.start:rows.start + k]  # as they are, not a' + 1 (a - a')
            block_values, dlogits = self._seed(self._run(acts, rest, False),
                                               idx[rows], target)
            grads = _input_gradient(rest, dlogits)
            values[rows.start:rows.start + k] = block_values[:k]
            grad_sum += grads[k:].sum(axis=0, dtype=np.float64)

        grad = np.zeros_like(ends)
        grad[0] = grad_sum
        grad = _time_major(_input_gradient(prefix, grad))[0]
        if not np.isfinite(grad).all():
            raise NumericError("non-finite gradient in backward pass")
        return float(values[0]), float(values[1]), grad

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
