"""Baseline construction algebra and dataset reduction."""

import numpy as np
import pytest

from aeroshm.baselines import BaselineKind, make_baseline, reduce_dataset
from aeroshm.data import SampleSet
from aeroshm.errors import ConfigError


class TestMakeBaseline:
    def test_apb_is_zero_regardless_of_input(self, rng):
        x = rng.normal(size=(5, 20))
        np.testing.assert_array_equal(make_baseline(x, "apb"), np.zeros((5, 20)))
        np.testing.assert_array_equal(make_baseline(x * 100, BaselineKind.APB),
                                      np.zeros((5, 20)))

    def test_channel_arithmetic(self):
        x = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(make_baseline(x, "tvb"), [[-1.0, 0.0, 1.0]])
        np.testing.assert_allclose(make_baseline(x, "mvb"), [[2.0, 2.0, 2.0]])

    def test_decomposition_identity(self, rng):
        for _ in range(1000):
            x = rng.normal(size=(8, 12)) * rng.uniform(0.1, 10)
            total = make_baseline(x, "tvb") + make_baseline(x, "mvb")
            np.testing.assert_allclose(total, x, atol=1e-12)

    def test_idempotence(self, rng):
        x = rng.normal(size=(6, 30))
        tvb = make_baseline(x, "tvb")
        mvb = make_baseline(x, "mvb")
        np.testing.assert_allclose(make_baseline(tvb, "tvb"), tvb, atol=1e-15)
        np.testing.assert_allclose(make_baseline(mvb, "mvb"), mvb, atol=1e-15)

    def test_tvb_zeroes_channel_means(self, rng):
        x = rng.normal(loc=3.0, size=(7, 40))
        tvb = make_baseline(x, "tvb")
        np.testing.assert_allclose(tvb.mean(axis=1), 0.0, atol=1e-12)

    def test_mvb_channels_constant(self, rng):
        x = rng.normal(size=(7, 40))
        mvb = make_baseline(x, "mvb")
        np.testing.assert_allclose(mvb.std(axis=1), 0.0, atol=1e-15)
        np.testing.assert_allclose(mvb[:, 0], x.mean(axis=1), atol=1e-15)

    def test_unknown_kind_rejected(self, rng):
        with pytest.raises(ConfigError):
            make_baseline(rng.normal(size=(2, 3)), "frequency")


class TestReduceDataset:
    def _samples(self, rng, n=6):
        i = np.arange(n)
        return SampleSet(values=rng.normal(size=(n, 4, 10)), labels=i % 3,
                         test_series=np.ones(n, dtype=np.int64), run_index=1 + i % 3,
                         window_index=i)

    def test_labels_and_provenance_preserved(self, rng):
        samples = self._samples(rng)
        reduced = reduce_dataset(samples, "tvb")
        assert len(reduced) == len(samples)
        assert reduced.labels.tolist() == samples.labels.tolist()
        assert [reduced.provenance(i) for i in range(len(reduced))] == \
            [samples.provenance(i) for i in range(len(samples))]

    def test_apb_reduction_makes_all_samples_identical(self, rng):
        reduced = reduce_dataset(self._samples(rng), "apb")
        np.testing.assert_array_equal(reduced.values, np.zeros((6, 4, 10)))

    def test_mvb_reduction_preserves_mean_vectors(self, rng):
        samples = self._samples(rng)
        reduced = reduce_dataset(samples, "mvb")
        np.testing.assert_allclose(reduced.values.mean(axis=2),
                                   samples.values.mean(axis=2), atol=1e-15)
        np.testing.assert_allclose(reduced.values.std(axis=2), 0.0, atol=1e-15)

    def test_tvb_reduction_zeroes_every_channel_mean(self, rng):
        reduced = reduce_dataset(self._samples(rng), "tvb")
        np.testing.assert_allclose(reduced.values.mean(axis=2), 0.0, atol=1e-12)

    def test_originals_untouched(self, rng):
        for kind in ("apb", "tvb", "mvb"):
            samples = self._samples(rng)
            before = samples.values.copy()
            reduced = reduce_dataset(samples, kind)
            np.testing.assert_array_equal(samples.values, before)
            assert not np.shares_memory(reduced.values, samples.values)
            for i in range(len(samples)):  # the same as reducing one sample at a time
                np.testing.assert_array_equal(reduced.values[i],
                                              make_baseline(samples.values[i], kind))
