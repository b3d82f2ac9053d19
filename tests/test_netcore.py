"""Stack-level engine tests: forward contracts, gradient oracles, training
steps, determinism, the checkpoint container and the float32 fcn-cnn."""

import json
import struct

import numpy as np
import pytest

from conftest import (
    fd_input_gradient,
    float64_cnn,
    gradient_match_fraction,
    probabilities,
    random_small_model,
    relative_error,
    rewrite_checkpoint_header,
    unfolded_integrated_gradients,
    unfolded_logits,
    warm_batchnorm,
)

from aeroshm.baselines import make_baseline
from aeroshm.errors import ConfigError, NumericError, ShapeError
from aeroshm.models import build_cnn, build_mlp
from aeroshm.net import stack as stack_module
from aeroshm.net import training as training_module
from aeroshm.net import (
    AdamW,
    BatchNorm,
    Conv1d,
    Dense,
    FitSettings,
    GlobalAvgPool,
    LayerStack,
    ReLU,
    Softmax,
    Standardize,
    cross_entropy_from_logits,
    fit,
    load_checkpoint,
    save_checkpoint,
    smoothed_targets,
    train_step,
)


class TestForward:
    def test_zero_input_gives_valid_distribution(self):
        stack = float64_cnn(4, 16, seed=3)
        probs = probabilities(stack, np.zeros((1, 4, 16)))
        assert probs.shape == (1, 6)
        assert abs(probs.sum() - 1.0) <= 1e-9
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_zero_final_dense_gives_uniform_output(self, rng):
        stack = build_cnn(3, 16, seed=0)
        dense = stack.layers[-2]
        dense.params["weight"][...] = 0.0
        dense.params["bias"][...] = 0.0
        probs = probabilities(stack, rng.normal(size=(2, 3, 16)))
        np.testing.assert_allclose(probs, np.full((2, 6), 1.0 / 6.0), atol=1e-12)

    def test_hand_computed_convolution(self):
        # 2 channels, 4 steps, one k=2 filter, hand-set weights.
        # Same padding for k=2 pads one zero on the right, so
        #   out[t] = b + w00 x0[t] + w01 x0[t+1] + w10 x1[t] + w11 x1[t+1]
        # with x0 = (1,2,3,4), x1 = (0,1,0,-1), w = ((1,-1),(2,0.5)), b = 0.25:
        #   out = (-0.25, 1.25, -1.25, 2.25)
        conv = Conv1d(2, 1, 2, np.random.default_rng(0))
        conv.params["weight"][...] = [[[1.0, -1.0], [2.0, 0.5]]]
        conv.params["bias"][...] = [0.25]
        x = np.array([[[1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 0.0, -1.0]]])
        # the layer takes (batch, time, channels) and returns (batch, time, filters)
        np.testing.assert_allclose(conv.forward(x.transpose(0, 2, 1))[0, :, 0],
                                   [-0.25, 1.25, -1.25, 2.25], atol=1e-15)

    def test_dropout_only_active_in_train_mode(self):
        stack = build_mlp(12, seed=9)
        x = np.random.default_rng(0).normal(size=(4, 12))
        np.testing.assert_array_equal(stack.logits(x), stack.logits(x))  # infer mode deterministic
        t1 = stack.logits(x, train=True)
        t2 = stack.logits(x, train=True)
        assert not np.array_equal(t1, t2)  # fresh dropout masks

    @pytest.mark.parametrize("shape", [(1, 5, 16), (4, 16), (2, 1, 4, 16)],
                             ids=["wrong-channels", "one-sample", "batch-of-batches"])
    def test_shape_mismatch_raises(self, shape):
        stack = build_cnn(4, 16)
        for call in (stack.logits, stack.predict, lambda x: stack.class_gradients(x, 0)):
            with pytest.raises(ShapeError, match="not a batch"):
                call(np.zeros(shape))

    def test_non_finite_activation_raises(self):
        stack = build_cnn(2, 16)
        with pytest.raises(NumericError):
            stack.logits(np.full((1, 2, 16), np.inf))

    @pytest.mark.parametrize("layers", [[], [Dense(3, 2, np.random.default_rng(0))],
                                        [Softmax(), Dense(3, 2, np.random.default_rng(0))]],
                             ids=["empty", "no-head", "head-first"])
    def test_stack_without_a_softmax_head_rejected(self, layers):
        with pytest.raises(ConfigError, match="must end in a softmax layer"):
            LayerStack(layers, (3,))


class TestBackward:
    def test_dense_softmax_matches_analytic_jacobian(self, rng):
        # F(x) = softmax(W x + b); dF_k/dx = W (p_k e_k - p_k p)
        mrng = np.random.default_rng(11)
        stack = LayerStack([Dense(5, 3, mrng), Softmax()], (5,), seed=11)
        x = rng.normal(size=(1, 5))
        w = stack.layers[0].params["weight"]
        p = probabilities(stack, x)[0]
        for k in range(3):
            seed = -p[k] * p
            seed[k] += p[k]
            expected = w @ seed
            _, grad = stack.class_gradients(x, k, target="prob")
            np.testing.assert_allclose(grad[0], expected, atol=1e-12)

    def test_logit_gradient_of_linear_layer_is_weight_column(self, rng):
        mrng = np.random.default_rng(4)
        stack = LayerStack([Dense(6, 4, mrng), Softmax()], (6,), seed=4)
        x = rng.normal(size=(1, 6))
        for k in range(4):
            _, grad = stack.class_gradients(x, k, target="logit")
            np.testing.assert_allclose(grad[0], stack.layers[0].params["weight"][:, k],
                                       atol=1e-12)

    def test_relu_dead_region_blocks_gradient(self):
        mrng = np.random.default_rng(2)
        stack = LayerStack([Dense(3, 3, mrng), ReLU(), Dense(3, 2, mrng), Softmax()],
                           (3,), seed=2)
        first = stack.layers[0]
        first.params["weight"][...] = np.eye(3)
        first.params["bias"][...] = [0.0, 0.0, -10.0]  # unit 2 strictly negative
        x = np.array([[0.5, 0.5, 0.5]])
        _, grad = stack.class_gradients(x, 0, target="logit")
        assert grad[0, 2] == 0.0

    @pytest.mark.parametrize("target", ["logit", "prob"])
    def test_matches_finite_differences_on_random_models(self, target):
        rng = np.random.default_rng(77)
        for _ in range(8):
            stack, x = random_small_model(rng)
            k = int(rng.integers(0, stack.n_classes))
            _, analytic = stack.class_gradients(x[None], k, target=target)
            numeric = fd_input_gradient(stack, x, k, target=target, h=1e-4)
            assert gradient_match_fraction(analytic[0], numeric) >= 0.95

    def test_batched_rows_are_independent(self, rng):
        stack = float64_cnn(3, 16, seed=1)
        xs = rng.normal(size=(4, 3, 16))
        _, batch_grads = stack.class_gradients(xs, 1)
        for i in range(4):
            _, single = stack.class_gradients(xs[i:i + 1], 1)
            np.testing.assert_allclose(batch_grads[i], single[0], atol=1e-12)


B = stack_module.INFER_BLOCK_ROWS


def warmed_model(arch):
    """A model whose BatchNorm running statistics are not the identity:
    the fcn-cnn in float64, as the oracles here need, or as build_cnn
    builds it ("fcn-cnn-float32"), or the mean-mlp, whose standardize
    layer is not the identity either."""
    rng = np.random.default_rng(31)
    if arch == "fcn-cnn":
        stack, shape = float64_cnn(3, 16, seed=4), (3, 16)
    elif arch == "fcn-cnn-float32":
        stack, shape = build_cnn(3, 16, seed=4), (3, 16)
    else:
        stack, shape = build_mlp(5, seed=4), (5,)
        stack.fit_standardize(np.random.default_rng(32).normal(2.0, 3.0, size=(16, 5)))
    stack.logits(rng.normal(size=(8,) + shape), train=True)
    return stack, shape


def record_pool_rows(monkeypatch):
    """The row count of every GlobalAvgPool forward call from now on: one
    per block of a pass, since a stack has one pool."""
    rows = []
    forward = GlobalAvgPool.forward
    monkeypatch.setattr(GlobalAvgPool, "forward",
                        lambda self, x, *a, **k: rows.append(len(x)) or forward(self, x, *a, **k))
    return rows


def infer_outputs(stack, x):
    out = [stack.logits(x), stack.predict(x)]
    for target in ("logit", "prob"):
        for class_index in (1, np.arange(len(x)) % stack.n_classes):
            out.extend(stack.class_gradients(x, class_index, target=target))
    return out


class TestInferBlocks:
    """Infer-mode passes run in row blocks and must give what one pass over
    the whole batch gives. The reference is the same code with a block size
    larger than the batch. (Row-by-row passes are no reference: numpy runs a
    one-row matmul as a matrix-vector product, which rounds differently; see
    test_batched_rows_are_independent.)"""

    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 1, 2 * B + 2])
    @pytest.mark.parametrize("arch", ["fcn-cnn", "fcn-cnn-float32", "mean-mlp"])
    def test_blocked_passes_equal_one_whole_batch_pass(self, arch, n, monkeypatch):
        stack, shape = warmed_model(arch)
        x = np.random.default_rng(n).normal(size=(n,) + shape)
        blocked = infer_outputs(stack, x)
        monkeypatch.setattr(stack_module, "INFER_BLOCK_ROWS", 10 * n)
        whole = infer_outputs(stack, x)
        for i, (a, b) in enumerate(zip(blocked, whole)):
            if arch == "mean-mlp" and i >= 2 and i % 2 == 1:
                # input gradients of the dense layers, `dout @ W.T`: OpenBLAS
                # picks its dgemm kernel by matrix size, so another block
                # size may round differently
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)
            else:
                np.testing.assert_array_equal(a, b, err_msg=f"output {i}")

    def test_lone_last_row_joins_the_previous_block(self, monkeypatch):
        stack, shape = warmed_model("fcn-cnn")
        x = np.random.default_rng(0).normal(size=(2 * B + 2,) + shape)
        blocks = record_pool_rows(monkeypatch)
        stack.logits(x[:2 * B + 1])
        assert blocks == [B, B + 1]
        blocks.clear()
        stack.logits(x)
        assert blocks == [B, B, 2]

    def test_train_pass_is_not_blocked(self, rng, monkeypatch):
        stack, shape = warmed_model("fcn-cnn")
        x = rng.normal(size=(2 * B + 1,) + shape)
        blocks = record_pool_rows(monkeypatch)
        stack.logits(x, train=True)
        assert blocks == [2 * B + 1]
        stack.backprop_logits(np.ones((2 * B + 1, stack.n_classes)))


class TestConstantLogits:
    """constant_logits runs the layers before the pool on a window as wide
    as their receptive field and must give what `logits` gives on the
    whole constant windows, bit for bit."""

    @staticmethod
    def stack(dtype, steps=150):
        stack = build_cnn(5, steps, seed=6).astype(dtype)
        return warm_batchnorm(stack, np.random.default_rng(steps))

    @staticmethod
    def record_conv_steps(monkeypatch):
        steps = []
        forward = Conv1d.forward
        monkeypatch.setattr(Conv1d, "forward",
                            lambda self, x, *a, **k: steps.append(x.shape[1])
                            or forward(self, x, *a, **k))
        return steps

    @pytest.mark.parametrize("kind", ["mvb", "apb"])
    @pytest.mark.parametrize("n", [1, 2, 3, 9, 17])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_full_window_logits(self, dtype, n, kind):
        stack = self.stack(dtype)
        rng = np.random.default_rng(n)
        x = (rng.normal(size=(n, 5, 150)) + rng.normal(size=(n, 5, 1))).astype(np.float32)
        windows = make_baseline(x, kind)
        levels = windows[..., 0]
        expected = stack.logits(windows)
        logits = stack.constant_logits(levels)
        assert logits.dtype == expected.dtype
        np.testing.assert_array_equal(logits, expected)

    @pytest.mark.parametrize("steps, width", [(150, 14), (15, 14), (14, 14), (10, 10)])
    def test_window_is_the_receptive_field_or_the_whole_input(self, steps, width,
                                                              monkeypatch):
        stack = self.stack(np.float32, steps)
        levels = np.random.default_rng(1).normal(size=(3, 5)).astype(np.float32)
        windows = np.repeat(levels[:, :, None], steps, axis=2)
        expected = stack.logits(windows)
        conv_steps = self.record_conv_steps(monkeypatch)
        np.testing.assert_array_equal(stack.constant_logits(levels), expected)
        assert conv_steps == [width] * 3

    def test_non_finite_level_raises(self):
        stack = self.stack(np.float32)
        levels = np.zeros((3, 5))
        levels[1, 2] = np.nan
        with pytest.raises(NumericError):
            stack.constant_logits(levels)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            self.stack(np.float32).constant_logits(np.zeros((3, 4)))

    def test_rank_1_stack_raises(self):
        with pytest.raises(ConfigError, match="channels, time"):
            build_mlp(5, seed=0).constant_logits(np.zeros((3, 5)))

    @pytest.mark.parametrize("middle, word", [((Softmax, GlobalAvgPool), "time-local"),
                                              ((), "global-avg-pool")],
                             ids=["softmax-before-the-pool", "no-pool"])
    def test_stack_without_a_time_local_run_to_a_pool_raises(self, middle, word):
        rng = np.random.default_rng(0)
        stack = LayerStack([Conv1d(3, 4, 3, rng), *(cls() for cls in middle),
                            Dense(4, 6, rng), Softmax()], (3, 16))
        with pytest.raises(ConfigError, match=word):
            stack.constant_logits(np.zeros((2, 3)))


class TestBackpropLogits:
    """backprop_logits gives the parameter gradients of the last train-mode
    pass that completed, and refuses a gradient it cannot take back."""

    @pytest.mark.parametrize("arch", ["fcn-cnn", "mean-mlp"])
    def test_refuses_gradient_of_other_rows(self, arch):
        stack, shape = warmed_model(arch)
        stack.logits(np.random.default_rng(2).normal(size=(2 * B + 1,) + shape), train=True)
        with pytest.raises(ShapeError):
            stack.backprop_logits(np.ones((2 * B, stack.n_classes)))
        stack.backprop_logits(np.ones((2 * B + 1, stack.n_classes)))

    def test_before_any_pass_raises(self):
        stack, _ = warmed_model("mean-mlp")
        fresh = type(stack)(stack.layers, stack.input_shape)
        with pytest.raises(ConfigError, match="train-mode"):
            fresh.backprop_logits(np.ones((1, stack.n_classes)))

    def test_failed_pass_leaves_no_cache_to_backprop(self):
        stack, shape = warmed_model("fcn-cnn")
        x = np.ones((2,) + shape)
        stack.logits(x, train=True)
        stack.layers[0].params["weight"][...] = 1e308  # conv output overflows
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            stack.logits(x, train=True)
        with pytest.raises(ConfigError, match="train-mode"):
            stack.backprop_logits(np.ones((2, stack.n_classes)))

    @pytest.mark.parametrize("arch", ["fcn-cnn", "mean-mlp"])
    def test_after_an_infer_pass_raises(self, arch, rng):
        stack, shape = warmed_model(arch)
        x = rng.normal(size=(3,) + shape)
        stack.logits(x)
        with pytest.raises(ConfigError, match="train-mode"):
            stack.backprop_logits(np.ones((3, stack.n_classes)))
        stack.logits(x, train=True)
        stack.backprop_logits(np.ones((3, stack.n_classes)))
        stack.class_gradients(x, 0)
        with pytest.raises(ConfigError, match="train-mode"):
            stack.backprop_logits(np.ones((3, stack.n_classes)))

    def test_astype_forgets_the_train_pass(self, rng):
        stack, shape = warmed_model("mean-mlp")
        stack.logits(rng.normal(size=(3,) + shape), train=True)
        stack.astype(np.float32)
        with pytest.raises(ConfigError, match="train-mode"):
            stack.backprop_logits(np.ones((3, stack.n_classes)))


class TestFoldedInferPasses:
    """Infer-mode passes fold each BatchNorm into the conv or dense layer
    before it; the reference runs the stack's own layers one by one."""

    @pytest.mark.parametrize("arch", ["fcn-cnn", "mean-mlp"])
    def test_folded_logits_equal_unfolded_layers(self, arch):
        stack, shape = warmed_model(arch)
        rng = np.random.default_rng(8)
        warm_batchnorm(stack, rng)
        x = rng.normal(size=(2 * B + 3,) + shape)
        reference = unfolded_logits(stack, x)
        logits = stack.logits(x)
        assert relative_error(logits, reference) <= 1e-12
        np.testing.assert_array_equal(stack.predict(x), reference.argmax(axis=1))

    def test_fold_follows_a_train_step(self, rng):
        stack, shape = warmed_model("fcn-cnn")
        x = rng.normal(size=(B + 2,) + shape)
        before = stack.logits(x)
        train_step(stack, rng.normal(size=(8,) + shape), np.arange(8) % 6,
                   AdamW(stack, lr=1e-2))
        after = stack.logits(x)
        assert relative_error(after, unfolded_logits(stack, x)) <= 1e-12
        assert relative_error(after, before) > 1e-6

    def test_train_mode_runs_the_batchnorm_layers(self, rng, monkeypatch):
        stack, shape = warmed_model("mean-mlp")
        calls = []
        forward = BatchNorm.forward
        monkeypatch.setattr(BatchNorm, "forward",
                            lambda self, *a, **k: calls.append(1) or forward(self, *a, **k))
        stack.logits(rng.normal(size=(4,) + shape))
        assert calls == []
        stack.logits(rng.normal(size=(4,) + shape), train=True)
        assert len(calls) == 3


class TestPathGradients:
    """path_gradients runs the leading affine run of the infer layers on
    the two endpoints only; the reference runs every path point through
    the unfolded layers."""

    @staticmethod
    def check(stack, x, baseline, steps, class_index, target="logit", exact_ends=True):
        f_x, f_baseline, grad_sum = stack.path_gradients(x, baseline, steps, class_index,
                                                         target=target)
        scores = (x - baseline) * (grad_sum / steps)
        ref_scores, ref_delta = unfolded_integrated_gradients(
            stack, x, baseline, steps, class_index, target)
        assert relative_error(scores, ref_scores) <= 1e-12
        assert abs((f_x - f_baseline) - ref_delta) <= 1e-15
        if exact_ends:  # the infer pass's own outputs at x and x'
            values, _ = stack.class_gradients(np.stack([x, baseline]), class_index, target)
            assert (f_x, f_baseline) == tuple(values)

    @pytest.mark.parametrize("target", ["logit", "prob"])
    @pytest.mark.parametrize("arch", ["fcn-cnn", "mean-mlp"])
    def test_matches_unfolded_path(self, arch, target):
        stack, shape = warmed_model(arch)
        rng = np.random.default_rng(9)
        warm_batchnorm(stack, rng)
        x, baseline = rng.normal(size=(2,) + shape)
        for steps in (1, B - 2, 3 * B):
            self.check(stack, x, baseline, steps, 1, target)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_small_blocks(self, rows, monkeypatch):
        stack, shape = warmed_model("fcn-cnn")
        rng = np.random.default_rng(10)
        x, baseline = rng.normal(size=(2,) + shape)
        monkeypatch.setattr(stack_module, "INFER_BLOCK_ROWS", rows)
        # one-row blocks run their matmuls as matrix-vector products, which
        # round differently from the two-row endpoint pass
        self.check(stack, x, baseline, 7, 3, exact_ends=rows > 1)

    def test_stack_starting_with_a_nonlinearity(self, rng):
        mrng = np.random.default_rng(3)
        stack = LayerStack([ReLU(), Conv1d(3, 4, 3, mrng), BatchNorm(4), ReLU(),
                            GlobalAvgPool(), Dense(4, 3, mrng), Softmax()], (3, 16))
        warm_batchnorm(stack, rng)
        x, baseline = rng.normal(size=(2, 3, 16))
        self.check(stack, x, baseline, 20, 2)

    def test_all_affine_stack(self, rng):
        mrng = np.random.default_rng(3)
        stack = LayerStack([Dense(5, 4, mrng), BatchNorm(4), Dense(4, 3, mrng), Softmax()],
                           (5,))
        warm_batchnorm(stack, rng)
        x, baseline = rng.normal(size=(2, 5))
        self.check(stack, x, baseline, 20, 0)

    def test_first_conv_runs_on_the_endpoints_once(self, monkeypatch):
        stack, shape = warmed_model("fcn-cnn")
        rng = np.random.default_rng(4)
        x, baseline = rng.normal(size=(2,) + shape)
        calls = []
        for way in ("forward", "backward"):
            method = getattr(Conv1d, way)

            def counted(layer, arr, *args, _way=way, _method=method, **kwargs):
                calls.append((_way, layer.in_channels, len(arr)))
                return _method(layer, arr, *args, **kwargs)
            monkeypatch.setattr(Conv1d, way, counted)
        stack.path_gradients(x, baseline, 3 * B, 0)
        first = [(way, rows) for way, channels, rows in calls if channels == shape[0]]
        assert first == [("forward", 2), ("backward", 2)]
        blocks = len(stack_module._row_blocks(3 * B + 2))
        assert sum(way == "forward" for way, *_ in calls) == 1 + 2 * blocks

    def test_bad_arguments_rejected(self, rng):
        stack, shape = warmed_model("mean-mlp")
        x = rng.normal(size=shape)
        with pytest.raises(ShapeError):
            stack.path_gradients(x, x[:-1], 5, 0)
        with pytest.raises(ConfigError):
            stack.path_gradients(x, x, 0, 0)
        with pytest.raises(ConfigError):
            stack.path_gradients(x, x, 5, stack.n_classes)
        with pytest.raises(ConfigError):
            stack.path_gradients(x, x, 5, 0, target="loss")
        with pytest.raises(NumericError):
            stack.path_gradients(np.full(shape, np.nan), x, 5, 0)


class TestLeadingStandardize:
    """A stack that begins with a standardize layer: `fit` sets it from the
    training inputs before the first step, and infer passes run it as an
    affine, time-local layer."""

    def test_fit_sets_it_from_train_x_before_the_first_step(self, monkeypatch):
        rng = np.random.default_rng(6)
        x = rng.normal(loc=4.0, scale=0.5, size=(24, 5))
        x[:, 3] = 1.5  # zero std, which maps to 1
        y = np.arange(24) % 6
        stack = build_mlp(5, seed=2)
        seen = []
        step = training_module.train_step
        monkeypatch.setattr(training_module, "train_step", lambda st, *a, **k: seen.append(
            {name: arr.copy() for name, arr in st.layers[0].buffers.items()})
            or step(st, *a, **k))
        fit(stack, x, y, x[:6], y[:6], FitSettings(max_epochs=2, batch_size=8, seed=1))
        std = x.std(axis=0)
        std[3] = 1.0
        assert len(seen) == 6
        for buffers in (seen[0], stack.layers[0].buffers):
            np.testing.assert_array_equal(buffers["mean"], x.mean(axis=0))
            np.testing.assert_array_equal(buffers["std"], std)

    @staticmethod
    def standardized_cnn(rng):
        cnn = float64_cnn(3, 16, seed=4)
        stack = LayerStack([Standardize(3), *cnn.layers], (3, 16))
        windows = rng.normal(loc=1.0, scale=2.0, size=(10, 3, 16))
        stack.fit_standardize(windows)
        np.testing.assert_allclose(stack.layers[0].buffers["mean"],
                                   windows.mean(axis=(0, 2)), rtol=1e-12)
        np.testing.assert_allclose(stack.layers[0].buffers["std"],
                                   windows.std(axis=(0, 2)), rtol=1e-12)
        return warm_batchnorm(stack, rng)

    def test_constant_logits_equal_full_window_logits(self, rng):
        stack = self.standardized_cnn(rng)
        levels = rng.normal(size=(5, 3))
        windows = np.repeat(levels[:, :, None], 16, axis=2)
        np.testing.assert_array_equal(stack.constant_logits(levels), stack.logits(windows))

    def test_path_runs_it_on_the_endpoints_only(self, rng, monkeypatch):
        stack = self.standardized_cnn(rng)
        x, baseline = rng.normal(size=(2, 3, 16))
        rows = []
        forward = Standardize.forward
        monkeypatch.setattr(Standardize, "forward", lambda self, arr, *a, **k:
                            rows.append(len(arr)) or forward(self, arr, *a, **k))
        stack.path_gradients(x, baseline, 20, 1)
        assert rows == [2]
        TestPathGradients.check(stack, x, baseline, 20, 1)


class TestLoss:
    def test_smoothed_targets_mix(self):
        targets = smoothed_targets(np.array([2]), 6, 0.05)
        expected = np.full(6, 0.05 / 6)
        expected[2] += 0.95
        np.testing.assert_allclose(targets[0], expected, atol=1e-15)

    def test_loss_value_hand_computed(self):
        # known probability vector -> loss = -sum(t_i log p_i)
        p = np.array([0.5, 0.2, 0.1, 0.1, 0.05, 0.05])
        logits = np.log(p)[None]
        t = np.full(6, 0.05 / 6)
        t[0] += 0.95
        expected = -float((t * np.log(p)).sum())
        loss, _ = cross_entropy_from_logits(logits, np.array([0]), smoothing=0.05)
        assert abs(loss - expected) < 1e-12

    def test_gradient_is_probs_minus_targets(self, rng):
        logits = rng.normal(size=(3, 6))
        labels = np.array([0, 3, 5])
        _, dlogits = cross_entropy_from_logits(logits, labels, smoothing=0.05)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        expected = (probs - smoothed_targets(labels, 6, 0.05)) / 3
        np.testing.assert_allclose(dlogits, expected, atol=1e-12)


class TestTrainStep:
    def test_zero_learning_rate_leaves_weights(self, rng):
        stack = build_cnn(2, 16, seed=0)
        before = stack.copy_state()
        x = rng.normal(size=(3, 2, 16))
        y = np.array([0, 1, 2])
        opt = AdamW(stack, lr=0.0, weight_decay=0.0)
        loss = train_step(stack, x, y, opt)
        for label, arr in stack.state_arrays():
            if label.endswith("running_mean") or label.endswith("running_var"):
                continue  # batchnorm statistics move on any train forward
            np.testing.assert_array_equal(arr, before[label], err_msg=label)
        # returned loss equals the smoothed cross-entropy of the prediction
        logits = stack.logits(x, train=True)
        expected, _ = cross_entropy_from_logits(logits, y, 0.05)
        assert loss > 0.0 and np.isfinite(loss)
        assert abs(loss - expected) < 0.2  # same magnitude; batch stats differ

    @pytest.mark.parametrize("arch", ["fcn-cnn", "mean-mlp"])
    def test_equals_a_full_backward_pass(self, arch):
        """train_step skips the first layer's input gradient; its parameter
        gradients and AdamW state stay those of a pass that computes it,
        here every layer's backward in turn."""
        rng = np.random.default_rng(8)
        (stack, shape), (full, _) = warmed_model(arch), warmed_model(arch)
        opt, full_opt = AdamW(stack, lr=1e-2), AdamW(full, lr=1e-2)
        for _ in range(2):
            x, y = rng.normal(size=(6,) + shape), rng.integers(0, 6, size=6)
            train_step(stack, x, y, opt)
            _, grad = cross_entropy_from_logits(full.logits(x, train=True), y, 0.05)
            full.zero_grads()
            for layer in reversed(full.layers[:-1]):
                grad = layer.backward(grad)
            assert grad.size == x.size  # the input gradient, in the layers' layout
            full_opt.step()
        for layer, full_layer in zip(stack.layers, full.layers):
            for name in layer.params:
                np.testing.assert_array_equal(layer.grads[name], full_layer.grads[name])
        for ours, theirs in ((opt._m, full_opt._m), (opt._v, full_opt._v)):
            for layer_state, full_state in zip(ours, theirs):
                for name in layer_state:
                    np.testing.assert_array_equal(layer_state[name], full_state[name])
        for (label, arr), (_, full_arr) in zip(stack.state_arrays(), full.state_arrays()):
            np.testing.assert_array_equal(arr, full_arr, err_msg=label)

    def test_non_finite_parameter_gradient_raises(self, rng):
        stack = build_cnn(2, 16, seed=0)
        x, y = rng.normal(size=(3, 2, 16)), np.array([0, 1, 2])
        _, dlogits = cross_entropy_from_logits(stack.logits(x, train=True), y, 0.05)
        dlogits[0, 0] = np.nan
        stack.zero_grads()
        with pytest.raises(NumericError):
            stack.backprop_logits(dlogits)

    def test_empty_batch_rejected(self):
        stack = build_mlp(4)
        with pytest.raises(ConfigError):
            train_step(stack, np.zeros((0, 4)), np.array([], dtype=int),
                       AdamW(stack))

    def test_learns_linearly_separable_toy(self):
        rng = np.random.default_rng(0)
        n = 60
        x = np.concatenate([rng.normal(1.5, 0.3, size=(n, 4)),
                            rng.normal(-1.5, 0.3, size=(n, 4))])
        y = np.array([0] * n + [1] * n)
        mrng = np.random.default_rng(1)
        stack = LayerStack([Dense(4, 2, mrng), Softmax()], (4,), seed=1)
        opt = AdamW(stack, lr=1e-2, weight_decay=0.0)
        for _ in range(200):
            train_step(stack, x, y, opt)
        assert (stack.predict(x) == y).mean() == 1.0


class TestDeterminism:
    def _train_once(self, tmp_path, tag):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(48, 2, 16))
        y = rng.integers(0, 6, size=48)
        vx = rng.normal(size=(12, 2, 16))
        vy = rng.integers(0, 6, size=12)
        stack = build_cnn(2, 16, seed=5)
        assert stack.dtype == np.float32
        fit(stack, x, y, vx, vy, FitSettings(max_epochs=3, batch_size=16, seed=5))
        path = tmp_path / f"{tag}.ckpt"
        digest = save_checkpoint(stack, path, {"tag": "determinism"})
        return path.read_bytes(), digest

    def test_identical_seeds_give_bit_identical_checkpoints(self, tmp_path):
        blob1, d1 = self._train_once(tmp_path, "a")
        blob2, d2 = self._train_once(tmp_path, "b")
        assert d1 == d2
        assert blob1 == blob2

    def test_dropout_training_is_seed_deterministic(self, tmp_path):
        def run(tag):
            rng = np.random.default_rng(2)
            x = rng.normal(size=(64, 10))
            y = rng.integers(0, 6, size=64)
            stack = build_mlp(10, seed=3)
            fit(stack, x, y, x[:16], y[:16],
                FitSettings(max_epochs=4, batch_size=16, seed=3))
            return save_checkpoint(stack, tmp_path / f"{tag}.ckpt", {})
        assert run("a") == run("b")


class TestCheckpoint:
    def test_round_trip_preserves_outputs(self, tmp_path, rng):
        """The float32 fcn-cnn: its header names the dtype, and it loads as
        float32, with bit-identical outputs, and saves back to the same
        bytes."""
        stack = build_cnn(3, 20, seed=8)
        stack.logits(rng.normal(size=(6, 3, 20)), train=True)  # move BN stats
        x = rng.normal(size=(4, 3, 20))
        expected_logits = stack.logits(x)
        path, again = tmp_path / "model.ckpt", tmp_path / "again.ckpt"
        save_checkpoint(stack, path, {"note": "round trip"})
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<Q", blob[12:20])
        assert json.loads(blob[20:20 + header_len])["dtype"] == "float32"
        loaded, metadata = load_checkpoint(path)
        assert metadata == {"note": "round trip"}
        assert loaded.arch == "fcn-cnn"
        assert loaded.dtype == np.float32
        np.testing.assert_array_equal(loaded.logits(x), expected_logits)
        save_checkpoint(loaded, again, metadata)
        assert again.read_bytes() == blob
        # a header without the key is read as float64
        rewrite_checkpoint_header(path, path, lambda h: h.pop("dtype"))
        assert load_checkpoint(path)[0].dtype == np.float64

    def test_resave_is_byte_identical(self, tmp_path):
        stack = build_mlp(7, seed=1)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(stack, p1, {"k": 1})
        loaded, meta = load_checkpoint(p1)
        save_checkpoint(loaded, p2, meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_corrupt_file(self, tmp_path):
        from aeroshm.errors import DataError
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(DataError):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["layers", "input_shape", "arrays", "arch", "seed",
                                     "metadata"])
    def test_header_missing_key_rejected(self, tmp_path, key):
        from aeroshm.errors import DataError
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_mlp(5, seed=0), path, {})
        rewrite_checkpoint_header(path, path, lambda h: h.pop(key))
        with pytest.raises(DataError, match=key):
            load_checkpoint(path)

    @pytest.mark.parametrize("layer", [
        {"kind": "conv1d", "in_channels": 3, "filters": 4},  # no kernel_size
        {"kind": "dense", "in_dim": 5, "out_dim": 128, "width": 2},  # unknown key
        {"kind": "attention"},
        ["dense", 5, 128],
    ])
    def test_header_malformed_layer_rejected(self, tmp_path, layer):
        from aeroshm.errors import DataError
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_mlp(5, seed=0), path, {})

        def edit(header):
            header["layers"][1] = layer
        rewrite_checkpoint_header(path, path, edit)
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_header_without_softmax_head_rejected(self, tmp_path):
        from aeroshm.errors import DataError
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_mlp(5, seed=0), path, {})
        rewrite_checkpoint_header(path, path, lambda h: h["layers"].pop())
        with pytest.raises(DataError, match="malformed .* must end in a softmax layer"):
            load_checkpoint(path)

    @pytest.mark.parametrize("entry,word", [
        (None, "lists array '0.buffer.mean' twice"),
        ({"label": "99.param.junk", "shape": [5]},
         "lists array '99.param.junk', which the stack does not hold"),
    ], ids=["repeated-label", "label-the-stack-lacks"])
    def test_array_table_must_list_each_stack_label_once(self, tmp_path, entry, word):
        """One more array entry, with its values appended, so that the file's
        length still matches its table."""
        from aeroshm.errors import DataError
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_mlp(5, seed=0), path, {})

        def add_entry(header):
            header["arrays"].append(entry or header["arrays"][0])
        rewrite_checkpoint_header(path, path, add_entry)
        with open(path, "ab") as fh:
            fh.write(np.full(5, 7.0, dtype="<f8").tobytes())
        with pytest.raises(DataError, match=word):
            load_checkpoint(path)


class TestFloat32:
    """build_cnn's fcn-cnn computes in float32; the tests above that hold
    float64 oracles run it cast to float64 (conftest.float64_cnn)."""

    def test_builders_dtypes(self):
        assert build_cnn(3, 16).dtype == np.float32
        assert build_mlp(5).dtype == np.float64

    def test_train_step_and_path_gradients_stay_float32(self, monkeypatch):
        """Every layer call of a train step and of an IG path takes and gives
        float32, and the gradients, parameters, buffers and AdamW state
        stay float32, though the batch comes in as float64."""
        seen = []

        def watch(cls, name):
            method = getattr(cls, name)

            def wrapped(layer, arr, *args, **kwargs):
                out = method(layer, arr, *args, **kwargs)
                seen.append((layer.kind, name, arr.dtype, getattr(out, "dtype", None)))
                return out
            monkeypatch.setattr(cls, name, wrapped)
        for cls in {type(layer) for layer in build_cnn(3, 16).layers}:
            for name in ("forward", "backward", "param_grads"):
                watch(cls, name)

        rng = np.random.default_rng(6)
        stack = build_cnn(3, 16, seed=2)
        opt = AdamW(stack)
        train_step(stack, rng.normal(size=(8, 3, 16)), np.arange(8) % 6, opt)
        stack.path_gradients(*rng.normal(size=(2, 3, 16)), 3 * B, 1, target="prob")

        called = {(kind, name) for kind, name, *_ in seen}
        assert called >= {("conv1d", "param_grads")} | {
            (kind, way) for kind in ("conv1d", "batchnorm", "relu", "global-avg-pool",
                                     "dense") for way in ("forward", "backward")}
        # None by identity: a dtype compares equal to None as to float64
        leaks = [call for call in seen
                 if any(dtype is not None and dtype != np.float32 for dtype in call[2:])]
        assert leaks == []
        stores = [store for layer in stack.layers
                  for store in (layer.params, layer.grads, layer.buffers)]
        stores += opt._m + opt._v
        assert all(arr.dtype == np.float32 for store in stores for arr in store.values())

    def test_gradients_agree_with_float64(self):
        """Parameter and input gradients of the float32 stack against those
        of the float64 one it was cast from, relative to each array's (or
        each layer's) largest float64 value: the parameter gradients of a
        train step, the input gradients of class_gradients and
        path_gradients. Measured on these inputs: at most 1.3e-6 for the
        parameter gradients and 2.1e-7 for the input gradients, against a
        float32 epsilon of 1.2e-7; the bound is 1e-5. A conv bias that a
        train-mode BatchNorm follows has a zero gradient (float64 gives
        about 1e-17), so it is held to its layer's scale."""
        tol = 1e-5
        rng = np.random.default_rng(0)
        f64 = warm_batchnorm(float64_cnn(3, 16, seed=4), rng)
        f32 = build_cnn(3, 16, seed=4)
        f32.load_state(f64.copy_state())
        x, y = rng.normal(size=(8, 3, 16)), rng.integers(0, 6, size=8)
        for stack in (f64, f32):
            _, dlogits = cross_entropy_from_logits(stack.logits(x, train=True), y, 0.05)
            stack.zero_grads()
            stack.backprop_logits(dlogits)
        for l64, l32 in zip(f64.layers, f32.layers):
            scale = max((np.abs(g).max() for g in l64.grads.values()), default=0.0)
            for name, g in l64.grads.items():
                assert np.abs(l32.grads[name] - g).max() <= tol * scale, name

        x, baseline = rng.normal(size=(2, 3, 16))
        for target in ("logit", "prob"):
            _, g64 = f64.class_gradients(np.stack([x, baseline]), 2, target)
            _, g32 = f32.class_gradients(np.stack([x, baseline]), 2, target)
            assert relative_error(g32, g64) <= tol
            *_, p64 = f64.path_gradients(x, baseline, 3 * B, 2, target)
            *_, p32 = f32.path_gradients(x, baseline, 3 * B, 2, target)
            assert relative_error(p32, p64) <= tol
