"""Stack-level engine tests: forward contracts, gradient oracles, training
steps, determinism, and the checkpoint container."""

import numpy as np
import pytest

from conftest import (
    fd_input_gradient,
    gradient_match_fraction,
    random_small_model,
    rewrite_checkpoint_header,
)

from aeroshm.errors import ConfigError, NumericError, ShapeError
from aeroshm.models import build_cnn, build_mlp
from aeroshm.net import stack as stack_module
from aeroshm.net import (
    AdamW,
    Conv1d,
    Dense,
    FitSettings,
    LayerStack,
    ReLU,
    Softmax,
    cross_entropy_from_logits,
    fit,
    load_checkpoint,
    save_checkpoint,
    smoothed_targets,
    train_step,
)


class TestForward:
    def test_zero_input_gives_valid_distribution(self):
        stack = build_cnn(4, 16, seed=3)
        probs = stack.forward(np.zeros((4, 16)))
        assert probs.shape == (6,)
        assert abs(probs.sum() - 1.0) <= 1e-9
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_zero_final_dense_gives_uniform_output(self, rng):
        stack = build_cnn(3, 16, seed=0)
        dense = stack.layers[-2]
        dense.params["weight"][...] = 0.0
        dense.params["bias"][...] = 0.0
        probs = stack.forward(rng.normal(size=(3, 16)))
        np.testing.assert_allclose(probs, np.full(6, 1.0 / 6.0), atol=1e-12)

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
        np.testing.assert_allclose(conv.forward(x)[0, 0],
                                   [-0.25, 1.25, -1.25, 2.25], atol=1e-15)

    def test_dropout_only_active_in_train_mode(self):
        stack = build_mlp(12, seed=9)
        x = np.random.default_rng(0).normal(size=(4, 12))
        p1 = stack.forward(x)
        p2 = stack.forward(x)
        np.testing.assert_array_equal(p1, p2)  # infer mode deterministic
        t1 = stack.logits(x, train=True)
        t2 = stack.logits(x, train=True)
        assert not np.array_equal(t1, t2)  # fresh dropout masks

    def test_shape_mismatch_raises(self):
        stack = build_cnn(4, 16)
        with pytest.raises(ShapeError):
            stack.forward(np.zeros((5, 16)))

    def test_non_finite_activation_raises(self):
        stack = build_cnn(2, 16)
        with pytest.raises(NumericError):
            stack.forward(np.full((2, 16), np.inf))


class TestBackward:
    def test_dense_softmax_matches_analytic_jacobian(self, rng):
        # F(x) = softmax(W x + b); dF_k/dx = W (p_k e_k - p_k p)
        mrng = np.random.default_rng(11)
        stack = LayerStack([Dense(5, 3, mrng), Softmax()], (5,), seed=11)
        x = rng.normal(size=(5,))
        w = stack.layers[0].params["weight"]
        p = stack.forward(x)
        for k in range(3):
            seed = -p[k] * p
            seed[k] += p[k]
            expected = w @ seed
            _, grad = stack.class_gradients(x, k, target="prob")
            np.testing.assert_allclose(grad, expected, atol=1e-12)

    def test_logit_gradient_of_linear_layer_is_weight_column(self, rng):
        mrng = np.random.default_rng(4)
        stack = LayerStack([Dense(6, 4, mrng), Softmax()], (6,), seed=4)
        x = rng.normal(size=(6,))
        for k in range(4):
            _, grad = stack.class_gradients(x, k, target="logit")
            np.testing.assert_allclose(grad, stack.layers[0].params["weight"][:, k],
                                       atol=1e-12)

    def test_relu_dead_region_blocks_gradient(self):
        mrng = np.random.default_rng(2)
        stack = LayerStack([Dense(3, 3, mrng), ReLU(), Dense(3, 2, mrng), Softmax()],
                           (3,), seed=2)
        first = stack.layers[0]
        first.params["weight"][...] = np.eye(3)
        first.params["bias"][...] = [0.0, 0.0, -10.0]  # unit 2 strictly negative
        x = np.array([0.5, 0.5, 0.5])
        _, grad = stack.class_gradients(x, 0, target="logit")
        assert grad[2] == 0.0

    @pytest.mark.parametrize("target", ["logit", "prob"])
    def test_matches_finite_differences_on_random_models(self, target):
        rng = np.random.default_rng(77)
        for _ in range(8):
            stack, x = random_small_model(rng)
            k = int(rng.integers(0, stack.n_classes))
            _, analytic = stack.class_gradients(x, k, target=target)
            numeric = fd_input_gradient(stack, x, k, target=target, h=1e-4)
            assert gradient_match_fraction(analytic, numeric) >= 0.95

    def test_batched_rows_are_independent(self, rng):
        stack = build_cnn(3, 16, seed=1)
        xs = rng.normal(size=(4, 3, 16))
        _, batch_grads = stack.class_gradients(xs, 1)
        for i in range(4):
            _, single = stack.class_gradients(xs[i], 1)
            np.testing.assert_allclose(batch_grads[i], single, atol=1e-12)


B = stack_module.INFER_BLOCK_ROWS


def warmed_model(arch):
    """A model whose BatchNorm running statistics are not the identity."""
    rng = np.random.default_rng(31)
    if arch == "fcn-cnn":
        stack, shape = build_cnn(3, 16, seed=4), (3, 16)
    else:
        stack, shape = build_mlp(5, seed=4), (5,)
    stack.forward(rng.normal(size=(8,) + shape), train=True)
    return stack, shape


def infer_outputs(stack, x):
    out = [stack.logits(x), stack.forward(x), stack.predict(x)]
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
    @pytest.mark.parametrize("arch", ["fcn-cnn", "mean-mlp"])
    def test_blocked_passes_equal_one_whole_batch_pass(self, arch, n, monkeypatch):
        stack, shape = warmed_model(arch)
        x = np.random.default_rng(n).normal(size=(n,) + shape)
        blocked = infer_outputs(stack, x)
        monkeypatch.setattr(stack_module, "INFER_BLOCK_ROWS", 10 * n)
        whole = infer_outputs(stack, x)
        for i, (a, b) in enumerate(zip(blocked, whole)):
            if arch == "mean-mlp" and i >= 4 and i % 2 == 0:
                # input gradients of the dense layers, `dout @ W.T`: OpenBLAS
                # picks its dgemm kernel by matrix size, so another block
                # size may round differently
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)
            else:
                np.testing.assert_array_equal(a, b, err_msg=f"output {i}")

    def test_lone_last_row_joins_the_previous_block(self):
        stack, shape = warmed_model("fcn-cnn")
        x = np.random.default_rng(0).normal(size=(2 * B + 2,) + shape)
        stack.logits(x[:2 * B + 1])
        stack.backprop_logits(np.ones((B + 1, stack.n_classes)))  # the cached block
        stack.logits(x)
        with pytest.raises(ShapeError):
            stack.backprop_logits(np.ones((B + 1, stack.n_classes)))
        stack.backprop_logits(np.ones((2, stack.n_classes)))

    @pytest.mark.parametrize("arch", ["fcn-cnn", "mean-mlp"])
    def test_backprop_refuses_gradient_of_other_rows(self, arch):
        stack, shape = warmed_model(arch)
        rng = np.random.default_rng(2)
        stack.logits(rng.normal(size=(2 * B + 1,) + shape))
        with pytest.raises(ShapeError):  # the caches hold the last block only
            stack.backprop_logits(np.ones((2 * B + 1, stack.n_classes)),
                                  need_param_grads=False)
        stack.logits(rng.normal(size=(1,) + shape))
        with pytest.raises(ShapeError):
            stack.backprop_logits(np.ones((5, stack.n_classes)), need_param_grads=False)

    def test_backprop_before_any_pass_raises(self):
        stack, _ = warmed_model("mean-mlp")
        fresh = type(stack)(stack.layers, stack.input_shape)
        with pytest.raises(ShapeError):
            fresh.backprop_logits(np.ones((1, stack.n_classes)))

    def test_failed_pass_leaves_no_cache_to_backprop(self):
        stack, shape = warmed_model("fcn-cnn")
        x = np.ones((2,) + shape)
        stack.logits(x)
        stack.layers[0].params["weight"][...] = 1e308  # conv output overflows
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            stack.logits(x)
        with pytest.raises(ShapeError):
            stack.backprop_logits(np.ones((2, stack.n_classes)))

    def test_train_pass_is_not_blocked(self, rng):
        stack, shape = warmed_model("fcn-cnn")
        x = rng.normal(size=(2 * B + 1,) + shape)
        stack.logits(x, train=True)
        grad = stack.backprop_logits(np.ones((2 * B + 1, stack.n_classes)))
        assert grad.shape == x.shape


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
        stack = build_cnn(3, 20, seed=8)
        stack.forward(rng.normal(size=(6, 3, 20)), train=True)  # move BN stats
        x = rng.normal(size=(4, 3, 20))
        expected = stack.forward(x)
        path = tmp_path / "model.ckpt"
        save_checkpoint(stack, path, {"note": "round trip"})
        loaded, metadata = load_checkpoint(path)
        assert metadata == {"note": "round trip"}
        assert loaded.arch == "fcn-cnn"
        np.testing.assert_array_equal(loaded.forward(x), expected)

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

    @pytest.mark.parametrize("key", ["layers", "input_shape", "arrays"])
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
