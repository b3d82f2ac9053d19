"""Trim/window/normalize/channel-mean/split behavior, including the exact
full-grid sample counts."""

import re
import threading

import numpy as np
import pytest

from aeroshm.data import Campaign, RawRun, SampleSet
from aeroshm.errors import ConfigError, DataError
from aeroshm.harness import model_inputs
from aeroshm.models import build_mlp
from aeroshm.preprocessing import (
    ZSCORE_BLOCK,
    assign_splits,
    build_samples,
    channel_means,
    trim_run,
    window_run,
    zscore,
)


def make_run(duration_s, test_series=1, damage_class=0, run_index=1,
             n_channels=4, seed=0):
    n = int(round(duration_s * 100.0))
    values = np.random.default_rng(seed).normal(size=(n_channels, n))
    return RawRun(values=values, test_series=test_series,
                  damage_class=damage_class, run_index=run_index,
                  aoa_deg=0.0, excitation_hz=1.0, wind_speed=12.0)


def fake_samples(rows, values=None):
    """A SampleSet of (test_series, damage_class, run_index, window_index)
    rows; values default to one zero per sample."""
    ts, labels, runs, windows = (np.array(col, dtype=np.int64) for col in zip(*rows))
    if values is None:
        values = np.zeros((len(rows), 1, 1))
    return SampleSet(values=np.asarray(values, dtype=np.float64), labels=labels,
                     test_series=ts, run_index=runs, window_index=windows)


def numbered_samples(values):
    """Samples of class 0 from run 1 of series 1, numbered in order."""
    return fake_samples([(1, 0, 1, i) for i in range(len(values))], values)


def full_grid_samples(n_series=4, n_classes=6, n_runs=3, n_windows=89):
    return fake_samples([(ts, d, r, w)
                         for ts in range(1, n_series + 1)
                         for d in range(n_classes)
                         for r in range(1, n_runs + 1)
                         for w in range(n_windows)])


class TestTrim:
    def test_150s_run_keeps_interior_100s(self):
        run = make_run(150.0)
        trimmed = trim_run(run)
        assert trimmed.n_steps == 10000
        np.testing.assert_array_equal(trimmed.values, run.values[:, 4000:14000])

    def test_50s_run_errors(self):
        with pytest.raises(DataError):
            trim_run(make_run(50.0))

    def test_160s_run_keeps_110s(self):
        trimmed = trim_run(make_run(160.0))
        assert trimmed.n_steps == 11000


class TestWindow:
    def test_standard_protocol_stride(self):
        run = trim_run(make_run(150.0))
        windows = window_run(run, 150, 89)
        assert windows.shape == (89, 4, 150)
        # stride = floor((10000 - 150) / 88) = 111; last start = 88 * 111
        for w in (0, 1, 47, 88):
            np.testing.assert_array_equal(windows[w], run.values[:, w * 111:w * 111 + 150])
        np.testing.assert_array_equal(windows[88], run.values[:, 9768:9918])
        # the windows are a read-only view of the run, not copies
        assert np.shares_memory(windows, run.values)
        assert not windows.flags.writeable

    def test_single_full_length_window(self):
        run = make_run(1.5)
        windows = window_run(run, 150, 1)
        assert windows.shape == (1, 4, 150)
        np.testing.assert_array_equal(windows[0], run.values)

    def test_exact_tiling(self):
        run = make_run(3.0)
        windows = window_run(run, 150, 2)
        np.testing.assert_array_equal(windows[0], run.values[:, :150])
        np.testing.assert_array_equal(windows[1], run.values[:, 150:300])

    def test_too_short_errors(self):
        with pytest.raises(DataError):
            window_run(make_run(1.0), 150, 1)
        with pytest.raises(DataError):  # 151 steps cannot host 3 distinct windows
            window_run(make_run(1.51), 150, 3)


class TestZScore:
    def test_joint_scope_moments(self, rng):
        values = rng.normal(loc=5.0, scale=2.0, size=(4, 100))
        z = zscore(values)
        assert abs(z.mean()) < 1e-12
        assert abs(z.std() - 1.0) < 1e-12

    def test_constant_sample_maps_to_zeros(self):
        z = zscore(np.full((3, 10), 7.0))
        np.testing.assert_array_equal(z, np.zeros((3, 10)))

    def test_idempotent(self, rng):
        values = rng.normal(size=(4, 50))
        z1 = zscore(values)
        np.testing.assert_allclose(zscore(z1), z1, atol=1e-12)

    def test_joint_scope_preserves_channel_ratios(self):
        values = np.array([[1.0, 1.0], [3.0, 3.0]])
        z = zscore(values)
        assert z[1, 0] > z[0, 0]  # inter-channel ordering survives

    def test_stack_matches_each_block_bit_for_bit(self, rng):
        stack = rng.normal(loc=2.0, size=(5, 4, 30))
        stack[2] = 7.0  # a zero-variance block
        expected = np.stack([zscore(block) for block in stack])
        np.testing.assert_array_equal(zscore(stack), expected)
        zscore(stack, out=stack)  # in place
        np.testing.assert_array_equal(stack, expected)
        np.testing.assert_array_equal(expected[2], 0.0)

    @pytest.mark.parametrize("scale", [1e-9, 1e-3, 1.0, 1e4, 1e9])
    @pytest.mark.parametrize("offset", [0.0, 3.0, -2e3, 1e6])
    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    def test_matches_the_numpy_std_formula_bit_for_bit(self, rng, scale, offset, layout):
        stack = (rng.normal(size=(6, 37, 150)) + offset) * scale
        if layout == "strided":  # as window_run's views are
            stack = stack.transpose(1, 0, 2).copy().transpose(1, 0, 2)
        joint = np.stack([(w - w.mean()) / w.std() for w in stack])
        np.testing.assert_array_equal(zscore(stack), joint)

    def test_variance_that_underflows_maps_to_zeros(self):
        # the squares of the centred values underflow, so the std is 0
        np.testing.assert_array_equal(zscore(np.array([[1e-200, -1e-200]])), 0.0)


class TestMeanVector:
    """The mean-mlp's inputs: the channel means, raw. The model standardises
    them in its first layer (tests/test_layers.py::TestStandardize)."""

    def test_time_constant_sample(self):
        samples = numbered_samples([np.full((3, 10), v) for v in (1.0, 2.0, 3.0)])
        np.testing.assert_array_equal(model_inputs(samples, "mean-mlp"),
                                      [[1.0] * 3, [2.0] * 3, [3.0] * 3])
        np.testing.assert_array_equal(model_inputs(samples[0], "mean-mlp"), [1.0] * 3)

    def test_mvb_collapse_preserves_mean_vector(self, rng):
        from aeroshm.baselines import reduce_dataset
        samples = numbered_samples(rng.normal(size=(1, 5, 20)))
        collapsed = reduce_dataset(samples, "mvb")
        np.testing.assert_allclose(model_inputs(samples, "mean-mlp"),
                                   model_inputs(collapsed, "mean-mlp"), atol=1e-12)

    def test_training_set_normalizes_to_zero_mean(self, rng):
        samples = numbered_samples(rng.normal(loc=3.0, size=(20, 4, 30)))
        vectors = model_inputs(samples, "mean-mlp")
        stack = build_mlp(4)
        stack.fit_standardize(vectors)
        standardised = stack.layers[0].forward(vectors)
        assert standardised.shape == (20, 4)
        np.testing.assert_allclose(standardised.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(standardised.std(axis=0), 1.0)

    def test_inputs_are_the_raw_channel_means(self, rng):
        samples = numbered_samples(rng.normal(loc=5.0, size=(3, 4, 30)))
        np.testing.assert_array_equal(model_inputs(samples, "mean-mlp"),
                                      channel_means(samples.values))
        assert model_inputs(samples, "fcn-cnn") is samples.values

    def test_means_of_float32_windows_accumulate_in_float64(self, rng):
        values = rng.normal(size=(5, 3, 150)).astype(np.float32)
        means = channel_means(values)
        assert means.dtype == np.float64
        np.testing.assert_array_equal(means, values.astype(np.float64).mean(axis=-1))


class TestSplits:
    def test_full_grid_counts(self):
        samples = full_grid_samples()
        split = assign_splits(samples, split_index=1, seed=0)
        assert {name: len(idx) for name, idx in split.items()} == \
            {"train": 3204, "validation": 1068, "test": 2136}

    def test_rotation_convention(self):
        samples = full_grid_samples(n_series=1, n_windows=4)
        for split_index, held in ((1, 3), (2, 1), (3, 2)):
            split = assign_splits(samples, split_index, seed=0)
            test_runs = set(samples.run_index[split["test"]].tolist())
            train_runs = set(samples.run_index[split["train"]].tolist())
            assert test_runs == {held}
            assert held not in train_runs

    def test_test_pairs_disjoint_from_train_validation(self):
        samples = full_grid_samples()
        split = assign_splits(samples, 2, seed=5)
        def pairs(idx):
            return set(zip(samples.test_series[idx].tolist(),
                           samples.run_index[idx].tolist()))
        test_pairs = pairs(split["test"])
        other_pairs = pairs(split["train"] + split["validation"])
        assert test_pairs.isdisjoint(other_pairs)

    def test_class_balance_per_split(self):
        samples = full_grid_samples()
        split = assign_splits(samples, 1, seed=3)
        for indices, per_class in ((split["train"], 534), (split["validation"], 178),
                                   (split["test"], 356)):
            counts = np.bincount(samples.labels[indices], minlength=6)
            assert set(counts.tolist()) == {per_class}

    def test_no_overlap_and_complete(self):
        samples = full_grid_samples()
        split = assign_splits(samples, 1, seed=0)
        all_idx = split["train"] + split["validation"] + split["test"]
        assert len(all_idx) == len(samples)
        assert len(set(all_idx)) == len(samples)

    def test_deterministic_given_seed(self):
        samples = full_grid_samples()
        s1 = assign_splits(samples, 1, seed=9)
        s2 = assign_splits(samples, 1, seed=9)
        assert s1 == s2
        s3 = assign_splits(samples, 1, seed=10)
        assert s1["validation"] != s3["validation"]

    def test_validation_draw_is_pinned(self):
        # the seeded draws per (class, test-series) cell, in their fixed
        # order; a change here changes every trained checkpoint
        samples = full_grid_samples(n_series=2, n_classes=2, n_windows=4)
        assert assign_splits(samples, 1, seed=7)["validation"] == [6, 7, 13, 19, 24, 26, 39, 40]
        assert assign_splits(samples, 2, seed=7)["validation"] == [5, 6, 19, 21, 31, 35, 41, 47]

    def test_single_boundary_condition(self):
        samples = fake_samples([(1, 0, r, w) for r in (1, 2, 3) for w in range(10)])
        split = assign_splits(samples, 1, seed=0)
        assert set(samples.run_index[split["test"]].tolist()) == {3}
        assert len(split["test"]) == 10
        assert len(split["train"]) + len(split["validation"]) == 20

    def test_missing_run_rejected(self):
        samples = fake_samples([(1, 0, r, w) for r in (1, 2) for w in range(5)])
        with pytest.raises(DataError):
            assign_splits(samples, 1, seed=0)


class TestBuildSamples:
    def test_windows_all_normalized(self):
        # 53 s run -> 3 s after trimming -> three exact 100-step tiles
        runs = [make_run(53.0, run_index=r, seed=r) for r in (1, 2, 3)]
        campaign = Campaign(runs=runs)
        samples = build_samples(campaign, window_steps=100, window_count=3)
        assert len(samples) == 9
        assert samples.values.shape == (9, 4, 100)
        assert samples.run_index.tolist() == [1, 1, 1, 2, 2, 2, 3, 3, 3]
        assert samples.window_index.tolist() == [0, 1, 2] * 3
        assert samples.values.dtype == np.float32
        for i, s in enumerate(samples):
            # each window is its run's tile, z-scored on its own in float64
            # and stored rounded to float32
            run, w = divmod(i, 3)
            window = zscore(trim_run(runs[run]).values[:, 100 * w:100 * (w + 1)])
            assert abs(window.mean()) < 1e-12
            assert abs(window.std() - 1.0) < 1e-9
            np.testing.assert_array_equal(s.values, window.astype(np.float32))

    def test_bits_match_a_sequential_reference(self):
        runs = [make_run(56.0, test_series=ts, damage_class=c, run_index=r, seed=ts * 9 + r)
                for ts in (2, 1) for c in (0, 1) for r in (1, 2, 3)]
        runs[4].values = np.full_like(runs[4].values, 0.25)  # zero variance
        runs[7].values[2] = -1.5  # one flat channel
        samples = build_samples(Campaign(runs=runs), window_steps=150, window_count=5)
        expected, columns = [], []
        for run in sorted(runs, key=lambda r: r.key()):
            for w, window in enumerate(window_run(trim_run(run), 150, 5)):
                w_copy = window.copy()
                mean, std = w_copy.mean(), w_copy.std()
                with np.errstate(invalid="ignore"):
                    expected.append(np.where(std == 0.0, 0.0, (w_copy - mean) / std))
                columns.append((run.damage_class, run.test_series, run.run_index, w))
        assert samples.values.dtype == np.float32
        np.testing.assert_array_equal(samples.values, np.stack(expected).astype(np.float32))
        assert samples.values.flags.c_contiguous
        labels, series, run_index, window_index = (np.array(c) for c in zip(*columns))
        for got, want in ((samples.labels, labels), (samples.test_series, series),
                          (samples.run_index, run_index), (samples.window_index, window_index)):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
        flat = np.flatnonzero((run_index == 2) & (labels == 1) & (series == 2))
        np.testing.assert_array_equal(samples.values[flat], 0.0)

    def test_windows_span_several_zscore_blocks(self):
        # two full scratch blocks and a partial one per run
        count = 2 * ZSCORE_BLOCK + 3
        runs = [make_run(56.0, run_index=r, seed=r) for r in (1, 2, 3)]
        runs[1].values[:] = -0.5  # zero variance
        samples = build_samples(Campaign(runs=runs), window_steps=150, window_count=count)
        views = np.concatenate([window_run(trim_run(run), 150, count) for run in runs])
        expected = zscore(views)
        np.testing.assert_array_equal(samples.values, expected.astype(np.float32))
        np.testing.assert_array_equal(samples.values[count:2 * count], 0.0)

    def test_pool_threads_end_with_the_call(self, monkeypatch):
        campaign = Campaign(runs=[make_run(53.0, run_index=r, seed=r) for r in (1, 2, 3)])
        before = threading.active_count()
        build_samples(campaign, window_steps=100, window_count=3)
        assert threading.active_count() == before

        def fails(values, out):
            raise FloatingPointError("z-score failed")

        monkeypatch.setattr("aeroshm.preprocessing.zscore", fails)
        with pytest.raises(FloatingPointError, match="z-score failed"):
            build_samples(campaign, window_steps=100, window_count=3)
        assert threading.active_count() == before

    def test_first_short_run_in_key_order_reported(self):
        runs = [make_run(60.0, run_index=3), make_run(50.0, run_index=2),
                make_run(45.0, run_index=1)]
        with pytest.raises(DataError, match=r"run \(1, 0, 1\) too short"):
            build_samples(Campaign(runs=runs), window_steps=100, window_count=3)
        with pytest.raises(DataError, match="no runs"):
            build_samples(Campaign(runs=[]))

    @pytest.mark.parametrize("damage_class", [7, -1])
    def test_first_run_with_a_class_outside_0_to_5_named(self, damage_class):
        runs = [make_run(53.0, damage_class=c, run_index=r, seed=r)
                for c in (damage_class, 0) for r in (3, 2)]
        message = (f"run (1, {damage_class}, 2) field damage_class must be in 0..5, "
                   f"got {damage_class}")
        with pytest.raises(DataError, match=re.escape(message)):
            build_samples(Campaign(runs=runs), window_steps=100, window_count=3)
