"""The harness's scoring and baseline ablation, called directly on small
prepared data."""

import numpy as np
import pytest

from aeroshm import harness
from aeroshm.baselines import reduce_dataset
from aeroshm.data import SampleSet, SensorLayout
from aeroshm.errors import ConfigError
from aeroshm.harness import ExperimentConfig, PreparedData
from aeroshm.models import build_cnn, build_mlp
from aeroshm.net import LayerStack
from aeroshm.preprocessing import SplitAssignment

CHANNELS, STEPS, N_SAMPLES = 3, 16, 12


def prepared(arch: str, n_test: int) -> tuple[LayerStack, PreparedData, ExperimentConfig]:
    """A warmed small stack of `arch` and prepared data of N_SAMPLES
    windows whose test slice holds n_test of them."""
    rng = np.random.default_rng(n_test)
    samples = SampleSet(
        values=rng.normal(size=(N_SAMPLES, CHANNELS, STEPS)).astype(np.float32),
        labels=rng.integers(0, harness.N_CLASSES, N_SAMPLES),
        test_series=np.ones(N_SAMPLES, dtype=np.int64),
        run_index=np.arange(N_SAMPLES), window_index=np.zeros(N_SAMPLES, dtype=np.int64))
    order = [int(i) for i in rng.permutation(N_SAMPLES)]
    split = SplitAssignment(split_index=1, seed=0, train=order[n_test:], validation=[],
                            test=order[:n_test], held_out_run=1)
    inputs, mean_stats = harness.model_inputs(samples, arch, None, fit_rows=split.train)
    if arch == "fcn-cnn":
        stack = build_cnn(CHANNELS, STEPS, n_classes=harness.N_CLASSES, seed=4)
    else:
        stack = build_mlp(CHANNELS, n_classes=harness.N_CLASSES, seed=4)
    # warm the BatchNorm running statistics, so that infer mode is nontrivial
    stack.forward(inputs[split.train], train=True)
    data = PreparedData(samples=samples, split=split, inputs=inputs,
                        mean_stats=mean_stats, layout=SensorLayout())
    return stack, data, ExperimentConfig(arch=arch, window_steps=STEPS)


def record_passes(monkeypatch) -> list[tuple[str, np.ndarray]]:
    """(method, batch) of every LayerStack.predict and constant_logits
    call from now on."""
    calls = []
    for name in ("predict", "constant_logits"):
        method = getattr(LayerStack, name)
        monkeypatch.setattr(
            LayerStack, name,
            lambda self, x, _name=name, _method=method:
            calls.append((_name, np.asarray(x))) or _method(self, x))
    return calls


def test_balanced_scores_counts_every_pair():
    rng = np.random.default_rng(5)
    y_true, y_pred = rng.integers(0, 4, 200), rng.integers(0, 4, 200)
    balanced, recalls, confusion = harness.balanced_scores(y_true, y_pred, n_classes=5)
    expected = np.zeros((5, 5), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        expected[t, p] += 1
    np.testing.assert_array_equal(confusion, expected)
    assert confusion.dtype == np.int64
    counts = expected.sum(axis=1)
    np.testing.assert_array_equal(recalls[:4], np.diag(expected)[:4] / counts[:4])
    assert recalls[4] == 0.0
    assert balanced == recalls[:4].mean()


class TestAblateOnBaselines:
    @pytest.mark.parametrize("n_test", [1, 2, 9])
    @pytest.mark.parametrize("arch", ["fcn-cnn", "mean-mlp"])
    def test_reports_equal_evaluate_on_reduced_inputs(self, arch, n_test):
        stack, data, config = prepared(arch, n_test)
        reports = harness.ablate_on_baselines(stack, data, config, hashes={"dataset": "d"})
        assert list(reports) == ["apb", "tvb", "mvb"]
        idx = data.split.test
        for kind, report in reports.items():
            reduced = reduce_dataset(data.samples[idx], kind)
            inputs, _ = harness.model_inputs(reduced, arch, data.mean_stats)
            expected = harness.evaluate(stack, inputs, reduced.labels, config)
            assert report.kind == f"ablate-{kind}"
            assert report.n_samples == n_test
            assert report.balanced_accuracy == expected.balanced_accuracy
            assert report.per_class_recall == expected.per_class_recall
            assert report.confusion == expected.confusion
            assert report.extras == {"slice": "test", "baseline": kind}
            assert report.hashes == {"dataset": "d"}

    @pytest.mark.parametrize("n_test", [1, 2, 9])
    @pytest.mark.parametrize("arch", ["fcn-cnn", "mean-mlp"])
    def test_apb_predicts_at_most_two_rows(self, arch, n_test, monkeypatch):
        stack, data, config = prepared(arch, n_test)
        calls = record_passes(monkeypatch)
        harness.ablate_on_baselines(stack, data, config, kinds=["apb"])
        ((method, batch),) = calls
        assert len(batch) == min(n_test, 2)
        if arch == "fcn-cnn":  # the zero window, given by its levels
            assert method == "constant_logits"
            zero = np.zeros((1, CHANNELS), dtype=np.float32)
        else:
            assert method == "predict"
            zero = harness.model_inputs(reduce_dataset(data.samples[:1], "apb"), arch,
                                        data.mean_stats)[0]
        np.testing.assert_array_equal(batch, np.repeat(zero, len(batch), axis=0))

    def test_bad_name_fails_before_any_pass(self, monkeypatch):
        stack, data, config = prepared("fcn-cnn", 9)
        calls = record_passes(monkeypatch)
        with pytest.raises(ConfigError, match="frequency"):
            harness.ablate_on_baselines(stack, data, config, kinds=["apb", "frequency"])
        assert calls == []

    def test_repeated_kind_runs_once(self, monkeypatch):
        stack, data, config = prepared("fcn-cnn", 9)
        calls = record_passes(monkeypatch)
        reports = harness.ablate_on_baselines(stack, data, config,
                                              kinds=["mvb", "apb", "tvb", "APB", "mvb", "tvb"])
        assert list(reports) == ["mvb", "apb", "tvb"]
        assert [(method, len(batch)) for method, batch in calls] == [
            ("constant_logits", 9), ("constant_logits", 2), ("predict", 9)]
