"""Per-layer forward and backward checks against independent oracles."""

import numpy as np
import pytest

from aeroshm.errors import ConfigError, ShapeError
from aeroshm.net import (
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


def time_major(a):
    """(batch, channels, time) <-> (batch, time, channels) as a view. The
    oracles below work on (batch, channels, time) arrays; conv, batchnorm
    and pool layers take and return (batch, time, channels) ones. 2-D
    arrays pass through."""
    return a.transpose(0, 2, 1) if a.ndim == 3 else a


def brute_force_conv1d(x, weight, bias):
    """Direct convolution sum with same padding; the oracle for Conv1d."""
    n, c, t = x.shape
    f, _, k = weight.shape
    pl = (k - 1) // 2
    out = np.zeros((n, f, t))
    for b in range(n):
        for fi in range(f):
            for ti in range(t):
                acc = bias[fi]
                for ci in range(c):
                    for j in range(k):
                        src = ti + j - pl
                        if 0 <= src < t:
                            acc += weight[fi, ci, j] * x[b, ci, src]
                out[b, fi, ti] = acc
    return out


def direct_conv1d_input_grad(dout, weight, t):
    """Input gradient of same-padded Conv1d as a direct-sum transposed
    convolution: dx[b, c, s] = sum_{f, j} w[f, c, j] dout[b, f, s - j + pad]."""
    n, f, _ = dout.shape
    _, c, k = weight.shape
    pl = (k - 1) // 2
    dx = np.zeros((n, c, t))
    for b in range(n):
        for ci in range(c):
            for s in range(t):
                acc = 0.0
                for fi in range(f):
                    for j in range(k):
                        ti = s - j + pl
                        if 0 <= ti < t:
                            acc += weight[fi, ci, j] * dout[b, fi, ti]
                dx[b, ci, s] = acc
    return dx


def layer_fd_input(layer, x, dout_weights, train=False, h=1e-6):
    """Finite differences of sum(forward(x) * R) w.r.t. x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float((layer.forward(x, train=train) * dout_weights).sum())
        flat[i] = orig - h
        fm = float((layer.forward(x, train=train) * dout_weights).sum())
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def layer_fd_param(layer, x, dout_weights, name, train=False, h=1e-6):
    grad = np.zeros_like(layer.params[name])
    flat = layer.params[name].reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float((layer.forward(x, train=train) * dout_weights).sum())
        flat[i] = orig - h
        fm = float((layer.forward(x, train=train) * dout_weights).sum())
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


class TestConv1d:
    def test_matches_brute_force(self, rng):
        layer = Conv1d(3, 4, 5, rng)
        x = rng.normal(size=(2, 3, 11))
        expected = brute_force_conv1d(x, layer.params["weight"], layer.params["bias"])
        np.testing.assert_allclose(time_major(layer.forward(time_major(x))), expected,
                                   atol=1e-12)

    @pytest.mark.parametrize("kernel", [1, 2, 3, 8])
    def test_same_padding_preserves_length(self, rng, kernel):
        layer = Conv1d(2, 3, kernel, rng)
        out = time_major(layer.forward(time_major(rng.normal(size=(1, 2, 16)))))
        assert out.shape == (1, 3, 16)

    def test_backward_matches_fd(self, rng):
        layer = Conv1d(3, 4, 4, rng)
        # contiguous copies: the finite differences perturb x in place
        x = np.ascontiguousarray(time_major(rng.normal(size=(2, 3, 9))))
        r = np.ascontiguousarray(time_major(rng.normal(size=(2, 4, 9))))
        layer.forward(x)
        layer.zero_grads()
        dx = layer.backward(r.copy())
        np.testing.assert_allclose(dx, layer_fd_input(layer, x, r), atol=1e-7)
        np.testing.assert_allclose(
            layer.grads["weight"], layer_fd_param(layer, x, r, "weight"), atol=1e-7)
        np.testing.assert_allclose(
            layer.grads["bias"], layer_fd_param(layer, x, r, "bias"), atol=1e-7)

    @pytest.mark.parametrize("need_param_grads", [True, False])
    @pytest.mark.parametrize("kernel", [1, 3, 4, 8])
    def test_input_grad_matches_direct_transposed_conv(self, rng, kernel,
                                                       need_param_grads):
        layer = Conv1d(3, 5, kernel, rng)
        x = rng.normal(size=(2, 3, 13))
        dout = rng.normal(size=(2, 5, 13))
        layer.forward(time_major(x))
        dx = time_major(layer.backward(time_major(dout), need_param_grads=need_param_grads))
        # a tolerance, not equality: BLAS builds may sum in other orders
        np.testing.assert_allclose(
            dx, direct_conv1d_input_grad(dout, layer.params["weight"], 13),
            rtol=1e-12, atol=1e-14)

    def test_skip_param_grads_leaves_them_zero(self, rng):
        layer = Conv1d(2, 2, 3, rng)
        x = rng.normal(size=(1, 2, 8))
        layer.forward(time_major(x))
        layer.zero_grads()
        layer.backward(time_major(np.ones((1, 2, 8))), need_param_grads=False)
        assert np.all(layer.grads["weight"] == 0.0)

    def test_rejects_bad_shapes(self, rng):
        layer = Conv1d(3, 2, 3, rng)
        with pytest.raises(ShapeError):
            layer.forward(time_major(np.zeros((1, 4, 10))))
        with pytest.raises(ShapeError):
            layer.forward(time_major(np.zeros((1, 3, 2))))


class TestBatchNorm:
    def test_train_normalizes_batch(self, rng):
        layer = BatchNorm(4)
        x = rng.normal(loc=3.0, scale=2.5, size=(16, 4, 10))
        out = time_major(layer.forward(time_major(x), train=True))
        np.testing.assert_allclose(out.mean(axis=(0, 2)), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=(0, 2)), 1.0, atol=1e-6)

    def test_infer_is_affine_per_channel(self, rng):
        layer = BatchNorm(3)
        for _ in range(5):
            layer.forward(time_major(rng.normal(size=(8, 3, 6))), train=True)
        x = rng.normal(size=(4, 3, 6))
        a, b = 1.7, -0.4
        out1 = time_major(layer.forward(time_major(a * x + b)))
        # affine map commutes: f(a x + b) = a f(x) + (f(b) - f(0)) elementwise
        scale = layer.params["gamma"] / np.sqrt(layer.buffers["running_var"] + layer.eps)
        out2 = time_major(layer.forward(time_major(x)))
        np.testing.assert_allclose(out1 - out2, (a - 1) * x * scale[None, :, None]
                                   + b * scale[None, :, None], atol=1e-10)

    def test_running_stats_converge(self, rng):
        layer = BatchNorm(2)
        for _ in range(200):
            layer.forward(rng.normal(loc=5.0, scale=3.0, size=(64, 2)), train=True)
        np.testing.assert_allclose(layer.buffers["running_mean"], 5.0, rtol=0.05)
        np.testing.assert_allclose(layer.buffers["running_var"], 9.0, rtol=0.1)

    @pytest.mark.parametrize("shape", [(6, 3), (5, 3, 7)])
    def test_train_backward_matches_fd(self, rng, shape):
        layer = BatchNorm(3)
        layer.params["gamma"] = rng.normal(size=3) + 1.0
        layer.params["beta"] = rng.normal(size=3)
        # contiguous copies: the finite differences perturb x in place
        x = np.ascontiguousarray(time_major(rng.normal(size=shape)))
        r = np.ascontiguousarray(time_major(rng.normal(size=shape)))
        layer.forward(x, train=True)
        layer.zero_grads()
        dx = layer.backward(r.copy())
        np.testing.assert_allclose(dx, layer_fd_input(layer, x, r, train=True),
                                   atol=1e-6)
        np.testing.assert_allclose(
            layer.grads["gamma"], layer_fd_param(layer, x, r, "gamma", train=True),
            atol=1e-6)

    def test_infer_backward_is_scaled_identity(self, rng):
        layer = BatchNorm(2)
        layer.forward(time_major(rng.normal(size=(32, 2, 5))), train=True)
        x = rng.normal(size=(3, 2, 5))
        layer.forward(time_major(x))
        dout = rng.normal(size=(3, 2, 5))
        dx = time_major(layer.backward(time_major(dout.copy())))
        scale = layer.params["gamma"] / np.sqrt(layer.buffers["running_var"] + layer.eps)
        np.testing.assert_allclose(dx, dout * scale[None, :, None], atol=1e-12)


class TestStandardize:
    def test_fit_takes_mean_and_std_over_all_but_the_last_axis(self, rng):
        x = rng.normal(loc=2.0, scale=3.0, size=(20, 4))
        x[:, 2] = 7.0  # zero std, which maps to 1
        layer = Standardize(4)
        layer.fit(x)
        std = x.std(axis=0)
        std[2] = 1.0
        np.testing.assert_array_equal(layer.buffers["mean"], x.mean(axis=0))
        np.testing.assert_array_equal(layer.buffers["std"], std)
        np.testing.assert_array_equal(layer.forward(x), (x - x.mean(axis=0)) / std)
        assert (layer.forward(x)[:, 2] == 0.0).all()
        # (batch, time, channels): statistics per channel over samples and time
        x3 = rng.normal(size=(5, 3, 7))
        layer = Standardize(3)
        layer.fit(time_major(x3))
        np.testing.assert_allclose(layer.buffers["mean"], x3.mean(axis=(0, 2)), rtol=1e-12)
        np.testing.assert_allclose(layer.buffers["std"], x3.std(axis=(0, 2)), rtol=1e-12)

    @pytest.mark.parametrize("train", [True, False])
    def test_backward_matches_fd(self, rng, train):
        layer = Standardize(3)
        layer.fit(rng.normal(loc=1.0, scale=2.0, size=(16, 3)))
        x = rng.normal(size=(4, 3))
        r = rng.normal(size=(4, 3))
        layer.forward(x, train=train)
        np.testing.assert_allclose(layer.backward(r.copy()),
                                   layer_fd_input(layer, x.copy(), r, train=train),
                                   atol=1e-7)
        assert layer.params == {} and layer.grads == {}

    @pytest.mark.parametrize("name,index,value,message", [
        ("mean", 1, np.nan, "mean must hold finite values, got nan"),
        ("std", 0, 0.0, "std must hold positive finite values, got 0.0"),
        ("std", 2, -1.0, "std must hold positive finite values, got -1.0"),
        ("std", 1, np.inf, "std must hold positive finite values, got inf"),
    ])
    def test_fault_names_the_first_bad_value(self, name, index, value, message):
        layer = Standardize(3)
        assert layer.fault() is None
        layer.buffers[name][index] = value
        assert layer.fault() == message

    def test_rejects_other_channel_count(self):
        with pytest.raises(ShapeError, match="3 channels, got 4"):
            Standardize(3).forward(np.zeros((2, 4)))


class TestReLU:
    def test_forward_and_dead_region(self, rng):
        layer = ReLU()
        x = np.array([[-2.0, 0.0, 3.0]])
        np.testing.assert_array_equal(layer.forward(x), [[0.0, 0.0, 3.0]])
        dx = layer.backward(np.ones_like(x))
        # strictly negative pre-activation contributes zero gradient
        np.testing.assert_array_equal(dx, [[0.0, 0.0, 1.0]])


class TestGlobalAvgPool:
    def test_forward_mean(self, rng):
        layer = GlobalAvgPool()
        x = rng.normal(size=(2, 3, 10))
        np.testing.assert_allclose(layer.forward(time_major(x)), x.mean(axis=2))

    def test_backward_uniform_share(self, rng):
        t = 12
        layer = GlobalAvgPool()
        layer.forward(time_major(rng.normal(size=(2, 3, t))))
        dout = rng.normal(size=(2, 3))
        dx = time_major(layer.backward(dout))
        # each time step receives exactly 1/T of the pooled gradient
        np.testing.assert_array_equal(dx, np.repeat(dout[:, :, None], t, axis=2) / t)


class TestDense:
    def test_backward_matches_fd(self, rng):
        layer = Dense(5, 3, rng)
        x = rng.normal(size=(4, 5))
        r = rng.normal(size=(4, 3))
        layer.forward(x)
        layer.zero_grads()
        dx = layer.backward(r.copy())
        np.testing.assert_allclose(dx, layer_fd_input(layer, x, r), atol=1e-8)
        np.testing.assert_allclose(
            layer.grads["weight"], layer_fd_param(layer, x, r, "weight"), atol=1e-8)


class TestDropout:
    def test_infer_is_passthrough(self, rng):
        layer = Dropout(0.4, rng)
        x = rng.normal(size=(5, 8))
        np.testing.assert_array_equal(layer.forward(x, train=False), x)

    def test_train_inverted_scaling(self):
        layer = Dropout(0.5, np.random.default_rng(7))
        x = np.ones((2000, 10))
        out = layer.forward(x, train=True)
        kept = out[out != 0.0]
        np.testing.assert_allclose(kept, 2.0)  # 1 / (1 - rate)
        assert abs(out.mean() - 1.0) < 0.05

    def test_backward_uses_same_mask(self, rng):
        layer = Dropout(0.3, rng)
        x = rng.normal(size=(6, 4))
        out = layer.forward(x, train=True)
        mask = out / np.where(x == 0.0, 1.0, x)
        dx = layer.backward(np.ones_like(x))
        np.testing.assert_allclose(dx, mask, atol=1e-12)

    def test_rejects_bad_rate(self, rng):
        with pytest.raises(ConfigError):
            Dropout(1.0, rng)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        layer = Softmax()
        p = layer.forward(rng.normal(scale=10.0, size=(50, 6)))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(p > 0.0) and np.all(p < 1.0)


def make_layer(kind, rng):
    """One layer of every kind, with its (batch, ...) input and output shapes
    ((batch, channels, time) for 3-D ones)."""
    if kind == "conv1d":
        return Conv1d(3, 4, 5, rng), (6, 3, 10), (6, 4, 10)
    if kind == "batchnorm-3d":
        return BatchNorm(3), (6, 3, 10), (6, 3, 10)
    if kind == "batchnorm-2d":
        return BatchNorm(3), (6, 3), (6, 3)
    if kind == "standardize":
        layer = Standardize(3)
        layer.fit(rng.normal(loc=1.0, scale=2.0, size=(8, 3)))
        return layer, (6, 3, 10), (6, 3, 10)
    if kind == "relu":
        return ReLU(), (6, 3, 10), (6, 3, 10)
    if kind == "global-avg-pool":
        return GlobalAvgPool(), (6, 3, 10), (6, 3)
    if kind == "dense":
        return Dense(5, 4, rng), (6, 5), (6, 4)
    if kind == "dropout":
        return Dropout(0.5, rng), (6, 5), (6, 5)
    return Softmax(), (6, 5), (6, 5)


@pytest.mark.parametrize("need_param_grads", [True, False])
@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("kind", ["conv1d", "batchnorm-3d", "batchnorm-2d", "standardize",
                                  "relu", "global-avg-pool", "dense", "dropout", "softmax"])
def test_layers_never_modify_their_inputs(rng, kind, train, need_param_grads):
    layer, in_shape, out_shape = make_layer(kind, rng)
    if isinstance(layer, BatchNorm):  # nontrivial running statistics for infer mode
        layer.forward(time_major(rng.normal(loc=1.0, scale=2.0, size=in_shape)), train=True)
    x = rng.normal(size=in_shape)
    dout = rng.normal(size=out_shape)
    x_before, dout_before = x.copy(), dout.copy()
    layer.forward(time_major(x), train=train)
    if kind != "softmax":  # the head has no backward (net/stack.py)
        layer.backward(time_major(dout), need_param_grads=need_param_grads)
    np.testing.assert_array_equal(x, x_before)
    np.testing.assert_array_equal(dout, dout_before)


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("kind", ["conv1d", "batchnorm-3d", "batchnorm-2d", "standardize",
                                  "relu", "global-avg-pool", "dense", "dropout", "softmax"])
def test_float32_layers_stay_float32(rng, kind, train):
    """A layer cast to float32 and handed float32 arrays computes in
    float32: its output, its input gradient and its parameter gradients."""
    layer, in_shape, out_shape = make_layer(kind, rng)
    LayerStack([layer, Softmax()], in_shape[1:]).astype(np.float32)
    x = rng.normal(size=in_shape).astype(np.float32)
    dout = rng.normal(size=out_shape).astype(np.float32)
    out = layer.forward(time_major(x), train=train)
    dx = out if kind == "softmax" else layer.backward(time_major(dout))
    assert out.dtype == dx.dtype == np.float32
    for store in (layer.params, layer.grads, layer.buffers):
        assert all(arr.dtype == np.float32 for arr in store.values())
