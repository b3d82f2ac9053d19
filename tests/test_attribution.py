"""Integrated-gradients engine: exactness, completeness, aggregation,
statistics, and exports."""

import csv
import json

import numpy as np
import pytest
from conftest import (
    float64_cnn,
    relative_error,
    unfolded_integrated_gradients,
    warm_batchnorm,
)

from aeroshm.attribution import (
    AttributionMap,
    channel_sum,
    export_map_csv,
    export_stats_csv,
    integrated_gradients,
    population_stats,
    relative_completeness_gap,
    top_channels,
)
from aeroshm.baselines import make_baseline
from aeroshm.errors import ConfigError, DataError
from aeroshm.models import build_cnn


class LinearModel:
    """F_k(x) = sum(w_k * x): constant gradients, zero completeness gap at
    any step count. Duck-types the model protocol used by the engine."""

    def __init__(self, weights):
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]

    def predict(self, batch):
        return np.array([np.argmax([(w * x).sum() for w in self.weights]) for x in batch])

    def path_gradients(self, x, baseline, steps, class_index, target="logit"):
        w = self.weights[class_index]
        return float((w * x).sum()), float((w * baseline).sum()), steps * w


class CountingLinearModel(LinearModel):
    """LinearModel that keeps the endpoints of every path_gradients call."""

    def __init__(self, weights):
        super().__init__(weights)
        self.calls = []

    def path_gradients(self, x, baseline, steps, class_index, **kwargs):
        self.calls.append((np.array(x), np.array(baseline), steps))
        return super().path_gradients(x, baseline, steps, class_index, **kwargs)


def chunked_reference(model, x, kind, steps, target_class, target, chunk=64):
    """The map and F(x) - F(x') computed the way the engine once did: the
    path points in chunks of `chunk` rows, the two endpoints in a separate
    call."""
    baseline = make_baseline(x, kind)
    diff = x - baseline
    gammas = (np.arange(steps) + 0.5) / steps
    grad_sum = np.zeros_like(x)
    for start in range(0, steps, chunk):
        points = baseline[None] + gammas[start:start + chunk, None, None] * diff[None]
        grad_sum += model.class_gradients(points, target_class, target=target)[1].sum(axis=0)
    values, _ = model.class_gradients(np.stack([x, baseline]), target_class, target=target)
    return diff * (grad_sum / steps), float(values[0] - values[1])


@pytest.fixture(scope="module")
def toy_cnn():
    """A small trained-ish CNN (random weights, warmed batchnorm), in
    float64."""
    stack = float64_cnn(6, 24, seed=13)
    rng = np.random.default_rng(0)
    stack.logits(rng.normal(size=(32, 6, 24)), train=True)
    return stack


@pytest.fixture(scope="module")
def paper_cnn():
    """The fcn-cnn at the paper's 37x150 input, with nontrivial BatchNorm
    maps, and one input, in float64."""
    rng = np.random.default_rng(21)
    stack = warm_batchnorm(float64_cnn(37, 150, seed=0), rng, rows=32)
    return stack, rng.normal(size=(37, 150))


class TestIntegratedGradients:
    def test_sample_equal_to_baseline_gives_zero_map(self, toy_cnn, rng):
        # integer values with exactly-zero channel sums: float arithmetic is
        # exact, so the sample IS its own temporal-variations baseline
        x = rng.integers(-3, 4, size=(6, 24)).astype(np.float64)
        x[:, -1] -= x.sum(axis=1)
        np.testing.assert_array_equal(make_baseline(x, "tvb"), x)
        amap = integrated_gradients(toy_cnn, x, "tvb", steps=20)
        np.testing.assert_array_equal(amap.scores, np.zeros((6, 24)))
        assert amap.completeness_gap < 1e-12

    @pytest.mark.parametrize("kind", ["apb", "tvb", "mvb"])
    @pytest.mark.parametrize("steps", [1, 7, 200])
    def test_linear_model_exact(self, rng, kind, steps):
        w0 = rng.normal(size=(5, 12))
        w1 = rng.normal(size=(5, 12))
        model = LinearModel([w0, w1])
        x = rng.normal(size=(5, 12))
        amap = integrated_gradients(model, x, kind, steps=steps, target_class=0)
        expected = w0 * (x - make_baseline(x, kind))
        np.testing.assert_allclose(amap.scores, expected, atol=1e-10)
        assert amap.completeness_gap <= 1e-10

    def test_default_target_is_prediction(self, toy_cnn, rng):
        x = rng.normal(size=(6, 24))
        amap = integrated_gradients(toy_cnn, x, "apb", steps=20)
        assert amap.target_class == int(np.argmax(toy_cnn.logits(x[None])[0]))

    def test_completeness_gap_shrinks_with_steps(self, toy_cnn, rng):
        x = rng.normal(size=(6, 24))
        gap_small = integrated_gradients(toy_cnn, x, "apb", steps=5).completeness_gap
        gap_large = integrated_gradients(toy_cnn, x, "apb", steps=600).completeness_gap
        assert gap_large <= gap_small

    def test_one_model_call_with_the_endpoints_first(self, rng):
        model = CountingLinearModel([rng.normal(size=(5, 12)), rng.normal(size=(5, 12))])
        x = rng.normal(size=(5, 12))
        integrated_gradients(model, x, "mvb", steps=7, target_class=1)
        ((x_seen, baseline_seen, steps),) = model.calls
        np.testing.assert_array_equal(x_seen, x)
        np.testing.assert_array_equal(baseline_seen, make_baseline(x, "mvb"))
        assert steps == 7

    @pytest.mark.parametrize("target", ["logit", "prob"])
    def test_matches_chunked_reference(self, toy_cnn, rng, target):
        x = rng.normal(size=(6, 24))
        amap = integrated_gradients(toy_cnn, x, "apb", steps=200, target_class=2,
                                    target=target)
        scores, output_delta = chunked_reference(toy_cnn, x, "apb", 200, 2, target)
        assert np.abs(amap.scores - scores).max() <= 1e-12 * np.abs(scores).max()
        assert amap.output_delta == output_delta

    @pytest.mark.parametrize("kind", ["apb", "tvb", "mvb"])
    def test_paper_shape_matches_unfolded_formula(self, paper_cnn, kind):
        stack, x = paper_cnn
        amap = integrated_gradients(stack, x, kind, steps=200, target_class=2)
        scores, output_delta = unfolded_integrated_gradients(
            stack, x, make_baseline(x, kind), 200, 2)
        assert relative_error(amap.scores, scores) <= 1e-12
        assert abs(amap.output_delta - output_delta) <= 1e-15

    def test_baselines_give_distinct_maps(self, toy_cnn, rng):
        x = rng.normal(size=(6, 24))
        maps = {k: integrated_gradients(toy_cnn, x, k, steps=50, target_class=1)
                for k in ("apb", "tvb", "mvb")}
        assert not np.allclose(maps["apb"].scores, maps["tvb"].scores)
        assert not np.allclose(maps["tvb"].scores, maps["mvb"].scores)
        assert not np.allclose(maps["apb"].scores, maps["mvb"].scores)

    def test_logit_and_prob_targets_differ_and_are_recorded(self, toy_cnn, rng):
        x = rng.normal(size=(6, 24))
        a = integrated_gradients(toy_cnn, x, "apb", steps=50, target="logit")
        b = integrated_gradients(toy_cnn, x, "apb", steps=50, target="prob")
        assert a.target_kind == "logit" and b.target_kind == "prob"
        assert not np.allclose(a.scores, b.scores)

    def test_step_bounds(self, toy_cnn, rng):
        x = rng.normal(size=(6, 24))
        with pytest.raises(ConfigError):
            integrated_gradients(toy_cnn, x, "apb", steps=0)
        with pytest.raises(ConfigError):
            integrated_gradients(toy_cnn, x, "apb", steps=5001)


class TestChannelSum:
    def test_zero_map(self, toy_cnn, rng):
        x = rng.integers(-3, 4, size=(6, 24)).astype(np.float64)
        x[:, -1] -= x.sum(axis=1)  # exact TVB fixed point
        amap = integrated_gradients(toy_cnn, x, "tvb", steps=5)
        np.testing.assert_array_equal(channel_sum(amap), np.zeros(6))

    def test_single_entry(self, toy_cnn, rng):
        amap = integrated_gradients(toy_cnn, rng.normal(size=(6, 24)), "apb", steps=5)
        amap.scores = np.zeros((6, 24))
        amap.scores[3, 7] = 0.5
        vec = channel_sum(amap)
        expected = np.zeros(6)
        expected[3] = 0.5
        np.testing.assert_array_equal(vec, expected)

    def test_matches_double_loop(self, toy_cnn, rng):
        amap = integrated_gradients(toy_cnn, rng.normal(size=(6, 24)), "apb", steps=10)
        vec = channel_sum(amap)
        brute = np.zeros(6)
        for c in range(6):
            for t in range(24):
                brute[c] += amap.scores[c, t]
        np.testing.assert_allclose(vec, brute, atol=1e-12)
        assert abs(vec.sum() - amap.scores.sum()) < 1e-12


class TestTopChannels:
    def test_magnitude_order(self):
        c = np.zeros(37)
        c[14], c[15], c[16] = 2.0, -1.5, 1.0
        assert top_channels(c, k=3) == [14, 15, 16]

    def test_tie_breaks_to_lower_id(self):
        c = np.ones(8)
        assert top_channels(c, k=8) == list(range(8))

    def test_planted_recovery(self, rng):
        c = rng.normal(scale=0.01, size=37)
        c[[5, 20, 33]] = [3.0, -2.5, 2.0]
        assert set(top_channels(c, k=3)) == {5, 20, 33}

    def test_k_bound(self):
        with pytest.raises(ConfigError):
            top_channels(np.zeros(5), k=6)


class TestPopulationStats:
    def test_single_vector(self, rng):
        v = rng.normal(size=37)
        stats = population_stats([v])
        np.testing.assert_array_equal(stats.mean, v)
        np.testing.assert_array_equal(stats.median, v)

    def test_two_vectors_mean(self):
        stats = population_stats([np.zeros(4), np.ones(4)])
        np.testing.assert_allclose(stats.mean, 0.5)
        np.testing.assert_array_equal(stats.minimum, np.zeros(4))
        np.testing.assert_array_equal(stats.maximum, np.ones(4))

    def test_planted_dominant_channels(self, rng):
        population = rng.normal(scale=0.05, size=(200, 37))
        population[:, 14] += 1.0
        population[:, 15] -= 0.8
        population[:, 16] += 0.6
        stats = population_stats(population)
        assert set(top_channels(np.abs(stats.mean), k=3)) == {14, 15, 16}

    def test_empty_population_rejected(self):
        with pytest.raises(DataError):
            population_stats(np.empty((0, 37)))


class TestRelativeCompletenessGap:
    @staticmethod
    def maps(gaps_and_deltas):
        return [AttributionMap(scores=np.zeros((1, 1)), baseline_kind="apb", steps=1,
                               target_class=0, target_kind="logit",
                               completeness_gap=gap, output_delta=delta)
                for gap, delta in gaps_and_deltas]

    def test_largest_ratio_over_checkable_maps(self):
        worst, unchecked = relative_completeness_gap(
            self.maps([(0.01, 1.0), (0.1, -0.5), (0.5, 5e-5), (0.0, 1e-4)]))
        assert worst == 0.2  # 0.1 / |-0.5|; the 5e-5 map is below the floor
        assert unchecked == 1

    def test_all_below_floor_is_unchecked(self):
        assert relative_completeness_gap(self.maps([(1e-6, 0.0), (1e-6, -9e-5)])) == (None, 2)


class TestExports:
    def test_map_csv_and_sidecar(self, toy_cnn, rng, tmp_path):
        from aeroshm.data import SensorLayout
        x = rng.normal(size=(37, 150))
        stack = build_cnn(37, 150, seed=0)
        amap = integrated_gradients(stack, x, "apb", steps=4,
                                    sample_id=(1, 2, 3))
        path = tmp_path / "map.csv"
        export_map_csv(amap, path, layout=SensorLayout())
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["channel", "sensor_id"]
        assert len(rows) == 38  # header + 37 channels
        assert rows[1][1] == "0"  # first working sensor id
        values = np.array([[float(v) for v in row[2:]] for row in rows[1:]])
        np.testing.assert_allclose(values, amap.scores, rtol=1e-12)
        sidecar = json.loads((tmp_path / "map.csv.json").read_text())
        assert sidecar["baseline"] == "apb"
        assert sidecar["steps"] == 4
        assert sidecar["sample_id"] == [1, 2, 3]

    def test_stats_csv_with_raw(self, rng, tmp_path):
        stats = population_stats(rng.normal(size=(10, 37)),
                                 sample_ids=[f"s{i}" for i in range(10)])
        path = tmp_path / "stats.csv"
        export_stats_csv(stats, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 38
        with open(tmp_path / "stats_raw.csv") as fh:
            raw_rows = list(csv.reader(fh))
        assert len(raw_rows) == 11
        assert raw_rows[1][0] == "s0"
