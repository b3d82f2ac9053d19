"""Shared test helpers: finite-difference oracles, an unfolded infer-pass
reference, small random models, float64 fcn-cnns, checkpoint header
surgery and a CSV run writer."""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from aeroshm.data import SensorLayout
from aeroshm.models import build_cnn
from aeroshm.net import (
    BatchNorm,
    Conv1d,
    Dense,
    Dropout,
    GlobalAvgPool,
    LayerStack,
    ReLU,
    Softmax,
)


def float64_cnn(*args, **kwargs):
    """build_cnn's fcn-cnn cast to float64. build_cnn builds float32; the
    oracle tests (1e-12 tolerances, finite differences) hold float64
    rounding to account and run this stack instead."""
    return build_cnn(*args, **kwargs).astype(np.float64)


def probabilities(stack, xb):
    """Class probabilities of a batch: the stack's softmax head on its
    logits."""
    return stack.layers[-1].forward(stack.logits(xb))


def scalar_output(stack, x, class_idx, target="logit"):
    """The differentiated scalar, recomputed via a plain forward pass."""
    out = stack.logits(x[None]) if target == "logit" else probabilities(stack, x[None])
    return float(out[0, class_idx])


def fd_input_gradient(stack, x, class_idx, target="logit", h=1e-4):
    """Central finite differences of the class scalar w.r.t. every input
    coordinate. Independent of the backward pass."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = scalar_output(stack, x, class_idx, target)
        flat[i] = orig - h
        fm = scalar_output(stack, x, class_idx, target)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def gradient_match_fraction(analytic, numeric, rel_tol=1e-4, abs_tol=1e-6):
    """Fraction of coordinates where the two gradients agree."""
    analytic = np.asarray(analytic).reshape(-1)
    numeric = np.asarray(numeric).reshape(-1)
    diff = np.abs(analytic - numeric)
    ok = diff <= abs_tol + rel_tol * np.maximum(np.abs(analytic), np.abs(numeric))
    return ok.mean()


def unfolded_logits(stack, xb):
    """Infer-mode logits of a batch through the stack's own layers, one
    by one, each BatchNorm run as a layer of its own: the infer pass as it
    was before BatchNorm was folded into the layer before it."""
    out = xb.transpose(0, 2, 1) if xb.ndim == 3 else xb
    for layer in stack.layers[:-1]:
        out = layer.forward(out, train=False)
    return out


def unfolded_gradients(stack, xb, class_index, target="logit"):
    """The class output and its input gradient for each row of a batch, as
    class_gradients gave them before the fold: unfolded_logits, then
    backward through the same layers."""
    logits = unfolded_logits(stack, xb)
    rows = np.arange(len(xb))
    if target == "logit":
        values = logits[rows, class_index]
        grad = np.zeros_like(logits)
        grad[rows, class_index] = 1.0
    else:
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        values = probs[rows, class_index]
        grad = -probs * values[:, None]
        grad[rows, class_index] += values
    for layer in reversed(stack.layers[:-1]):
        grad = layer.backward(grad, need_param_grads=False)
    return values, grad.transpose(0, 2, 1) if grad.ndim == 3 else grad


def unfolded_integrated_gradients(stack, x, baseline, steps, class_index,
                                  target="logit", block=8):
    """The IG map and F(x) - F(x') by the midpoint formula the engine used
    before the affine run and the fold: x, x' and every path point through
    unfolded_gradients, in blocks of `block` rows."""
    diff = x - baseline
    gammas = (np.arange(steps) + 0.5) / steps
    rows = np.concatenate([x[None], baseline[None],
                           baseline[None] + gammas.reshape((-1,) + (1,) * x.ndim) * diff])
    values, grads = zip(*(unfolded_gradients(stack, rows[i:i + block], class_index, target)
                          for i in range(0, len(rows), block)))
    values, grads = np.concatenate(values), np.concatenate(grads)
    return diff * (grads[2:].sum(axis=0) / steps), float(values[0] - values[1])


def relative_error(a, b):
    """The largest |a - b| relative to the largest |b|."""
    return float(np.abs(np.asarray(a) - b).max() / np.abs(b).max())


def warm_batchnorm(stack, rng, rows=8):
    """Warm a stack's BatchNorm running statistics with a train-mode pass,
    then draw its gammas and betas, so that every BatchNorm is a
    nontrivial affine map in infer mode."""
    stack.logits(rng.normal(size=(rows,) + stack.input_shape), train=True)
    for layer in stack.layers:
        if isinstance(layer, BatchNorm):
            layer.params["gamma"][...] = rng.uniform(0.5, 1.5, layer.channels)
            layer.params["beta"][...] = rng.normal(0.0, 0.2, layer.channels)
    return stack


def random_small_model(rng: np.random.Generator):
    """A random classifier stack: at most 3 parametric layers, at most 8
    channels, at most 16 time steps."""
    n_classes = int(rng.integers(2, 5))
    kind = rng.integers(0, 3)
    if kind == 0:  # dense-only on a vector input
        dim = int(rng.integers(3, 9))
        hidden = int(rng.integers(3, 9))
        mrng = np.random.default_rng(rng.integers(1 << 31))
        layers = [Dense(dim, hidden, mrng), ReLU(), Dense(hidden, n_classes, mrng),
                  Softmax()]
        stack = LayerStack(layers, (dim,), seed=0)
        x = rng.normal(size=(dim,))
        return stack, x
    channels = int(rng.integers(2, 9))
    steps = int(rng.integers(8, 17))
    filters = int(rng.integers(2, 7))
    kernel = int(rng.integers(1, 6))
    mrng = np.random.default_rng(rng.integers(1 << 31))
    layers = [Conv1d(channels, filters, kernel, mrng)]
    if kind == 2:
        layers.append(BatchNorm(filters))
    layers += [ReLU(), GlobalAvgPool(), Dense(filters, n_classes, mrng), Softmax()]
    stack = LayerStack(layers, (channels, steps), seed=0)
    x = rng.normal(size=(channels, steps))
    if kind == 2:  # warm the running statistics so infer mode is nontrivial
        stack.logits(rng.normal(size=(8, channels, steps)), train=True)
    return stack, x


def rewrite_checkpoint_header(src, dst, edit):
    """Copy a checkpoint with its JSON header passed through edit(header),
    keeping the array data."""
    blob = src.read_bytes()
    (header_len,) = struct.unpack("<Q", blob[12:20])
    header = json.loads(blob[20:20 + header_len])
    edit(header)
    new = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    dst.write_bytes(blob[:12] + struct.pack("<Q", len(new)) + new + blob[20 + header_len:])


def export_csv_run(run, csv_path, meta_path, layout=None):
    """Write a run as the CSV table and metadata sidecar that
    data.ingest_csv_run reads back bit for bit."""
    layout = layout or SensorLayout()
    header = ",".join(str(i) for i in layout.working_ids)
    np.savetxt(csv_path, run.values.T, delimiter=",", header=header, comments="",
               fmt="%.17g")
    Path(meta_path).write_text(json.dumps(run.meta_dict(), indent=2, sort_keys=True))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
