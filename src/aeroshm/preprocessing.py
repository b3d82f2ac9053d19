"""Raw recordings to model-ready samples: trim, window, normalize, mean
vectors, and the non-random train/validation/test splits.

Pipeline: the first 40 s and last 10 s of every run are discarded, 89
overlapping 1.5 s windows are cut from the remainder at a uniform stride,
and each window is z-scored. The windows of a campaign are held in one
columnar SampleSet: a (samples, channels, steps) float32 array plus label
and provenance arrays. Splits hold one of the three runs per boundary
condition (test series x damage class) out for testing; a 25% validation
slice is carved out of the training pool, stratified by class and
boundary condition.

Dtypes: runs and `window_run`'s views of them are float64. Each window is
z-scored in float64 and stored rounded to float32, once. The fcn-cnn
computes in float32, so its inputs are the values it would round a
float64 window to; the mean-mlp's channel means are taken in float64
(`channel_means`) from the float32 windows. At paper scale the windows
(6,408 x 37 x 150 values) are the largest array of data preparation, so
float32 halves what sets its peak memory.

`build_samples` cuts every run's window views in run-key order on the
calling thread, so a run too short to window fails first in that order.
It then fills one preallocated float32 array on a thread pool
(`map_runs`), one run per task: a worker copies ZSCORE_BLOCK windows at a
time into a float64 scratch it reuses, z-scores them there while they are
in cache, and stores them rounded. Copies, reductions and ufuncs release
the GIL, so on two cores two runs are filled at once, and each window
gets the same bits as it would sequentially.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import Campaign, RawRun, SampleSet, map_runs
from .errors import ConfigError, DataError

TRIM_HEAD_S = 40.0
TRIM_TAIL_S = 10.0
WINDOW_STEPS = 150
WINDOW_COUNT = 89
# windows a build_samples task z-scores at a time: 8 x 37 x 150 float64
# values are 355 KB, a scratch that stays in cache and is reused
ZSCORE_BLOCK = 8
# which run index each split holds out for testing
HELD_OUT_RUN = {1: 3, 2: 1, 3: 2}


def trim_run(run: RawRun) -> RawRun:
    """Drop the first 40 s and last 10 s of a run."""
    head = int(round(TRIM_HEAD_S * run.sample_rate))
    tail = int(round(TRIM_TAIL_S * run.sample_rate))
    if run.n_steps <= head + tail:
        raise DataError(
            f"run {run.key()} too short to trim: {run.duration_s:.1f} s "
            f"<= {TRIM_HEAD_S + TRIM_TAIL_S:.0f} s"
        )
    return replace(run, values=run.values[:, head:run.n_steps - tail])


def window_run(run: RawRun, window_steps: int = WINDOW_STEPS,
               window_count: int = WINDOW_COUNT) -> SampleSet:
    """Cut uniformly strided windows from a trimmed run.

    Stride is floor((N - W) / (count - 1)); leftover steps at the tail are
    discarded. Windows are ordered by start time and all carry the run's
    damage class as label. Their values are a read-only strided view of
    the run, not a copy, so they keep the run's float64.
    """
    n = run.n_steps
    if window_steps < 1 or window_count < 1:
        raise ConfigError("window_steps and window_count must be positive")
    if n < window_steps:
        raise DataError(
            f"run {run.key()} has {n} steps, shorter than one {window_steps}-step window")
    stride = 1
    if window_count > 1:
        if n - window_steps < window_count - 1:
            raise DataError(
                f"run {run.key()}: {n} steps cannot host {window_count} distinct "
                f"{window_steps}-step windows")
        stride = (n - window_steps) // (window_count - 1)
    # (channels, starts, steps) -> (windows, channels, steps)
    windows = sliding_window_view(run.values, window_steps, axis=1)[:, ::stride]
    values = windows[:, :window_count].transpose(1, 0, 2)

    def column(value):
        return np.full(window_count, value, dtype=np.int64)

    return SampleSet(values=values, labels=column(run.damage_class),
                     test_series=column(run.test_series),
                     run_index=column(run.run_index),
                     window_index=np.arange(window_count, dtype=np.int64))


def zscore(values: np.ndarray, scope: str = "joint",
           out: np.ndarray | None = None) -> np.ndarray:
    """Z-score each (channels, steps) block of a (..., channels, steps) array.

    scope "joint" uses a single mean/std per block, preserving the
    relative magnitudes between channels; "per-channel" normalizes each
    channel independently. Zero-variance input maps to all zeros. The
    result goes to `out` (which may be `values` itself) or a new array.

    The mean and std are bit-identical to np.mean and np.std of each
    block (joint) or channel on its own: the same pairwise sums over the
    same elements in C order. np.std centres its input in a temporary of
    its own; here the centred values are written to `out` once and the
    std is taken from their squares.
    """
    if scope not in ("joint", "per-channel"):
        raise ConfigError(f"unknown z-score scope {scope!r}")
    # the axes each mean and std reduce over, flattened into the last:
    # mean(axis=(-2, -1)) sums a strided block in another order
    reduced = 2 if scope == "joint" else 1
    lead = values.shape[:values.ndim - reduced]
    flat = values.reshape(*lead, -1)
    mean = flat.mean(axis=-1).reshape(*lead, *(1,) * reduced)
    out = np.subtract(values, mean, out=out)
    sum_sq = np.square(out).reshape(flat.shape).sum(axis=-1)
    std = np.sqrt(sum_sq / flat.shape[-1]).reshape(mean.shape)
    flat_std = std == 0.0
    out /= np.where(flat_std, 1.0, std)
    if flat_std.any():
        out[np.broadcast_to(flat_std, out.shape)] = 0.0
    return out


def channel_means(values: np.ndarray) -> np.ndarray:
    """Temporal mean of every channel of (..., channels, steps) values,
    accumulated in float64 whatever their dtype."""
    return values.mean(axis=-1, dtype=np.float64)


@dataclass
class MeanVectorStats:
    """Training-set mean/std of the per-channel mean vectors."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, vectors: np.ndarray) -> "MeanVectorStats":
        """Fit on the (n, channels) per-channel temporal means of the
        training samples."""
        if len(vectors) == 0:
            raise DataError("cannot fit mean-vector statistics on an empty set")
        std = vectors.std(axis=0)
        std[std == 0.0] = 1.0
        return cls(mean=vectors.mean(axis=0), std=std)

    def standardize(self, vectors: np.ndarray) -> np.ndarray:
        """(..., channels) mean vectors z-scored against these statistics."""
        n_channels = vectors.shape[-1]
        if self.mean.shape != (n_channels,) or self.std.shape != (n_channels,):
            raise DataError(f"mean-vector statistics hold {self.mean.size} means and "
                            f"{self.std.size} stds for {n_channels} channels")
        return (vectors - self.mean) / self.std


@dataclass
class SplitAssignment:
    """Index lists into a SampleSet, plus how they were derived."""

    split_index: int
    seed: int
    train: list[int]
    validation: list[int]
    test: list[int]
    held_out_run: int

    def sizes(self) -> tuple[int, int, int]:
        return (len(self.train), len(self.validation), len(self.test))


def build_samples(campaign: Campaign, window_steps: int = WINDOW_STEPS,
                  window_count: int = WINDOW_COUNT,
                  zscore_scope: str = "joint") -> SampleSet:
    """Trim, window, and normalize every run of a campaign, in run-key
    order. The windows are z-scored in float64 and returned in float32."""
    runs = sorted(campaign.runs, key=lambda r: r.key())
    if not runs:
        raise DataError("campaign has no runs to window")
    views = [window_run(trim_run(run), window_steps, window_count).values for run in runs]
    values = np.empty((len(runs) * window_count, *views[0].shape[1:]), dtype=np.float32)

    def fill(i: int) -> None:
        scratch = np.empty((min(ZSCORE_BLOCK, window_count), *views[i].shape[1:]))
        for start in range(0, window_count, ZSCORE_BLOCK):
            view = views[i][start:start + ZSCORE_BLOCK]
            block = scratch[:len(view)]
            block[...] = view
            zscore(block, scope=zscore_scope, out=block)
            first = i * window_count + start
            values[first:first + len(view)] = block

    map_runs(fill, range(len(runs)))

    def column(name: str) -> np.ndarray:
        return np.repeat(np.array([getattr(run, name) for run in runs], dtype=np.int64),
                         window_count)

    return SampleSet(values=values, labels=column("damage_class"),
                     test_series=column("test_series"), run_index=column("run_index"),
                     window_index=np.tile(np.arange(window_count, dtype=np.int64), len(runs)))


def assign_splits(samples: SampleSet, split_index: int, seed: int = 0,
                  val_fraction: float = 0.25) -> SplitAssignment:
    """Per boundary condition, hold one run index out for testing and carve
    a stratified validation slice from the remaining two.

    The rotation convention is fixed: split 1 holds out run 3, split 2 run
    1, split 3 run 2. Validation indices are drawn per (class, test-series)
    cell with a seeded RNG; quotas are distributed largest-remainder so
    every class contributes equally on the full balanced grid.
    """
    if split_index not in HELD_OUT_RUN:
        raise ConfigError(f"split_index must be 1, 2 or 3, got {split_index}")
    if len(samples) == 0:
        raise DataError("empty sample list")
    if not 0.0 <= val_fraction < 1.0:
        raise ConfigError(f"val_fraction must be in [0, 1), got {val_fraction}")

    labels, series, runs = samples.labels, samples.test_series, samples.run_index
    for ts, label in sorted(set(zip(series.tolist(), labels.tolist()))):
        have = set(runs[(series == ts) & (labels == label)].tolist())
        if have != {1, 2, 3}:
            raise DataError(
                f"boundary condition ts={ts} class={label} has runs "
                f"{sorted(have)}, need exactly (1, 2, 3)")

    held_out = HELD_OUT_RUN[split_index]
    pool = np.flatnonzero(runs != held_out)
    # (class, test series) -> ascending sample indices of the training pool
    cells = {key: pool[(labels[pool] == key[0]) & (series[pool] == key[1])]
             for key in sorted(set(zip(labels[pool].tolist(), series[pool].tolist())))}
    classes = sorted({label for label, _ in cells})
    class_quota = _largest_remainder(
        [sum(len(v) for k, v in cells.items() if k[0] == c) for c in classes],
        round(val_fraction * len(pool)))
    rng = np.random.default_rng(np.random.SeedSequence((seed, split_index)))

    val_idx = []
    for c, quota in zip(classes, class_quota):
        cell_keys = [k for k in cells if k[0] == c]
        cell_quota = _largest_remainder([len(cells[k]) for k in cell_keys], quota)
        for key, q in zip(cell_keys, cell_quota):
            members = cells[key]
            val_idx.append(members[rng.choice(len(members), size=q, replace=False)])
    validation = np.sort(np.concatenate(val_idx))
    return SplitAssignment(
        split_index=split_index, seed=seed,
        train=np.setdiff1d(pool, validation).tolist(), validation=validation.tolist(),
        test=np.flatnonzero(runs == held_out).tolist(), held_out_run=held_out,
    )


def _largest_remainder(sizes: list[int], total: int) -> list[int]:
    """Split `total` proportionally to `sizes` with integer parts summing
    exactly to total; ties go to earlier entries."""
    pool = sum(sizes)
    if pool == 0:
        return [0] * len(sizes)
    exact = [total * s / pool for s in sizes]
    base = [int(np.floor(e)) for e in exact]
    leftover = total - sum(base)
    order = sorted(range(len(sizes)), key=lambda i: (-(exact[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return base
