"""Architecture builders: exact structure, frozen parameter counts, purity."""

import numpy as np
import pytest

from aeroshm.errors import ConfigError
from aeroshm.harness import ExperimentConfig, prepare_data
from aeroshm.models import build_architecture, build_cnn, build_mlp
from aeroshm.net import FitSettings, fit
from aeroshm.preprocessing import channel_means, trim_run, window_run, zscore
from aeroshm.surrogate import PROFILES, generate_campaign

# Regression values computed once from the layer formulas:
#   conv:  filters * (in_channels * kernel) + filters
#   bn:    2 * channels
#   dense: in_dim * out_dim + out_dim
CNN_PARAM_COUNT_37x150 = 302342
MLP_PARAM_COUNT_37 = 30662
# The mean-mlp's inputs from float32 windows against the same computation
# on float64 windows, on the 60 s AoA-0 static campaign at seed 5 with 8
# windows per run: measured at most 3.2e-6, on inputs up to 3.2 in
# magnitude (3.7e-6 with 89 windows, 1.3e-6 on the dynamics profile).
MLP_INPUT_FLOAT32_BOUND = 1e-5


def parameter_count(stack):
    """The number of trained values: every parameter array, no buffer."""
    return sum(arr.size for label, arr in stack.state_arrays() if ".param." in label)


def closed_form_cnn_params(channels, blocks=((128, 8), (256, 5), (128, 3)),
                           classes=6):
    total = 0
    c = channels
    for filters, k in blocks:
        total += filters * c * k + filters  # conv weight + bias
        total += 2 * filters  # batchnorm gamma + beta
        c = filters
    total += c * classes + classes  # dense head
    return total


def closed_form_mlp_params(input_dim, widths=(128, 128, 64), classes=6):
    total = 0
    d = input_dim
    for w in widths:
        total += d * w + w
        total += 2 * w
        d = w
    total += d * classes + classes
    return total


class TestCnn:
    def test_block_structure(self):
        stack = build_cnn(37, 150)
        kinds = [layer.kind for layer in stack.layers]
        assert kinds == ["standardize"] + ["conv1d", "batchnorm", "relu"] * 3 + [
            "global-avg-pool", "dense", "softmax"]
        assert stack.layers[0].channels == 37
        convs = [l for l in stack.layers if l.kind == "conv1d"]
        assert [(c.filters, c.kernel_size) for c in convs] == [(128, 8), (256, 5), (128, 3)]
        dense = stack.layers[-2]
        assert (dense.in_dim, dense.out_dim) == (128, 6)

    def test_parameter_count_frozen_and_closed_form(self):
        stack = build_cnn(37, 150)
        assert parameter_count(stack) == CNN_PARAM_COUNT_37x150
        assert parameter_count(stack) == closed_form_cnn_params(37)

    def test_accepts_standard_input(self):
        stack = build_cnn(37, 150)
        assert stack.logits(np.zeros((1, 37, 150))).shape == (1, 6)

    def test_temporal_length_preserved_through_blocks(self, rng):
        stack = build_cnn(5, 150)
        x = rng.normal(size=(2, 5, 150))
        out = x.transpose(0, 2, 1)  # the layers run on (batch, time, channels)
        for layer in stack.layers:
            out = layer.forward(out)
            if layer.kind in ("conv1d", "batchnorm", "relu"):
                assert out.shape[1] == 150
            if layer.kind == "global-avg-pool":
                assert layer._cache == 150  # pool averaged all 150 positions
                break

    def test_toy_dimensions_build_and_train(self, rng):
        from aeroshm.net import AdamW, train_step
        stack = build_cnn(2, 16)
        opt = AdamW(stack)
        loss = train_step(stack, rng.normal(size=(4, 2, 16)),
                          np.array([0, 1, 2, 3]), opt)
        assert np.isfinite(loss)

    def test_rejects_input_shorter_than_kernel(self):
        with pytest.raises(ConfigError):
            build_cnn(37, 7)
        with pytest.raises(ConfigError):
            build_cnn(0, 150)

    def test_builder_is_pure(self):
        s1 = build_cnn(37, 150, seed=42)
        s2 = build_cnn(37, 150, seed=42)
        assert s1.layer_configs() == s2.layer_configs()
        for (l1, a1), (l2, a2) in zip(s1.state_arrays(), s2.state_arrays()):
            assert l1 == l2
            np.testing.assert_array_equal(a1, a2)


class TestMlp:
    def test_structure(self):
        stack = build_mlp(37)
        kinds = [layer.kind for layer in stack.layers]
        assert kinds == [
            "standardize", "dropout",
            "dense", "batchnorm", "relu", "dropout",
            "dense", "batchnorm", "relu", "dropout",
            "dense", "batchnorm", "relu",
            "dense", "softmax",
        ]
        widths = [(l.in_dim, l.out_dim) for l in stack.layers if l.kind == "dense"]
        assert widths == [(37, 128), (128, 128), (128, 64), (64, 6)]
        rates = [l.rate for l in stack.layers if l.kind == "dropout"]
        assert rates == [0.2, 0.4, 0.4]
        assert stack.layers[0].channels == 37

    def test_parameter_count_frozen_and_closed_form(self):
        stack = build_mlp(37)
        assert parameter_count(stack) == MLP_PARAM_COUNT_37
        assert parameter_count(stack) == closed_form_mlp_params(37)

    def test_degenerate_input_dim(self):
        stack = build_mlp(1)
        probs = stack.layers[-1].forward(stack.logits(np.array([[0.3]])))
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_infer_forward_deterministic(self, rng):
        stack = build_mlp(37, seed=2)
        x = rng.normal(size=(8, 37))
        np.testing.assert_array_equal(stack.logits(x), stack.logits(x))

    def test_rejects_bad_dim(self):
        with pytest.raises(ConfigError):
            build_mlp(0)


class TestRegistry:
    def test_build_by_name(self):
        cnn = build_architecture("fcn-cnn", (37, 150))
        mlp = build_architecture("mean-mlp", (37,))
        assert cnn.arch == "fcn-cnn"
        assert mlp.arch == "mean-mlp"

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            build_architecture("transformer", (37, 150))

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            build_architecture("fcn-cnn", (37,))


@pytest.fixture(scope="module")
def static_campaign():
    return generate_campaign(PROFILES["static-dominant"](), seed=5, aoa_deg=0.0,
                             duration_s=60.0)


def float64_windows(campaign, window_count):
    """The campaign's windows z-scored in float64 and kept in float64."""
    runs = sorted(campaign.runs, key=lambda r: r.key())
    return zscore(np.concatenate([window_run(trim_run(run), 150, window_count)
                                  for run in runs]))


class TestFloat32Windows:
    def test_fcn_cnn_fit_equals_fit_on_float64_windows(self, static_campaign):
        """The fcn-cnn casts its input to float32, so training on the
        float32 windows gives the bits of training on float64 ones."""
        data = prepare_data(static_campaign, ExperimentConfig(window_count=2, seed=5))
        wide = float64_windows(static_campaign, 2)
        assert data.inputs.dtype == np.float32
        np.testing.assert_array_equal(data.inputs, wide.astype(np.float32))
        train, val = data.split["train"], data.split["validation"]
        fits = []
        for inputs in (data.inputs, wide):
            stack = build_cnn(37, 150, seed=5)
            result = fit(stack, inputs[train], data.labels[train], inputs[val],
                         data.labels[val], FitSettings(max_epochs=2, batch_size=32, seed=5))
            fits.append((result.history, stack.copy_state()))
        (history, state), (wide_history, wide_state) = fits
        assert len(history) == 2 and history == wide_history
        assert state.keys() == wide_state.keys()
        for name, array in state.items():
            np.testing.assert_array_equal(array, wide_state[name])

    def test_mean_mlp_inputs_stay_within_bound_of_float64_windows(self, static_campaign):
        """What the first dense layer reads, the channel means standardised
        by the model's first layer with statistics fitted on the training
        slice."""
        config = ExperimentConfig(arch="mean-mlp", window_count=8, seed=5)
        data = prepare_data(static_campaign, config)
        assert data.samples.values.dtype == np.float32
        assert data.inputs.dtype == np.float64
        standardised = []
        for means in (data.inputs, channel_means(float64_windows(static_campaign, 8))):
            stack = build_mlp(37, seed=5)
            stack.fit_standardize(means[data.split["train"]])
            assert [layer.kind for layer in stack.layers[:3]] == [
                "standardize", "dropout", "dense"]  # dropout passes on in infer mode
            standardised.append(stack.layers[0].forward(means))
        assert np.abs(standardised[0] - standardised[1]).max() <= MLP_INPUT_FLOAT32_BOUND
