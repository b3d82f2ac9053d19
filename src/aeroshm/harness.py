"""Experiment orchestration: train, evaluate, ablate, retrain, attribute.

Every command produces a Report that embeds the full experiment
configuration and the input fingerprints, so re-running with identical
config and seeds reproduces the numbers bit-exactly. Config keys that
earlier versions wrote and that are gone (RETIRED_CONFIG_KEYS) still load
from a config file or a checkpoint where they hold a value that means
what the code now does, and are refused where they hold any other.

The mean-mlp's training-set input statistics live in its leading
standardize layer; `load_model` reads an older checkpoint's metadata key
`mean_stats` once as that layer.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .attribution import (
    MAX_STEPS,
    AttributionMap,
    channel_sum,
    export_map_csv,
    export_stats_csv,
    integrated_gradients,
    population_stats,
    relative_completeness_gap,
    top_channels,
)
from .baselines import BaselineKind, constant_levels, reduce_dataset
from .data import N_DAMAGE_CLASSES, Campaign, SampleSet, SensorLayout
from .errors import ConfigError, DataError
from .models import ARCHITECTURES, architecture, build_architecture
from .net import FitSettings, LayerStack, Standardize, fit, load_checkpoint, save_checkpoint
from .net.stack import GRADIENT_TARGETS
from .preprocessing import HELD_OUT_RUN, assign_splits, build_samples
from .records import from_json, json_object, read_json

N_CLASSES = N_DAMAGE_CLASSES
# Config keys that earlier versions wrote into configs and checkpoints,
# each mapped to the one value it may still hold (None: any value).
# ExperimentConfig.from_dict drops them and refuses any other value:
# the IG chunk size no longer means anything, and every window is now
# z-scored jointly over its channels and steps.
RETIRED_CONFIG_KEYS = {"ig_chunk": None, "zscore_scope": "joint"}
# the slices of PreparedData: the three of `assign_splits`, and every sample
SLICES = ("train", "validation", "test", "all")


@dataclass
class ExperimentConfig(FitSettings):
    """Every knob of one experiment; serialized into reports and
    checkpoints. The training-loop settings are FitSettings' fields.
    Building one checks every field, the enumerated ones (arch, baseline,
    ig_target, split_index) against the values their owning modules accept."""

    arch: str = "fcn-cnn"
    aoa_deg: float = 0.0
    split_index: int = 1
    window_steps: int = 150
    window_count: int = 89
    val_fraction: float = 0.25
    baseline: str = "apb"
    ig_steps: int = 200
    ig_target: str = "logit"
    ig_max_samples: int | None = None

    def __post_init__(self):
        counts = ["batch_size", "max_epochs", "window_steps", "window_count", "ig_steps"]
        if self.ig_max_samples is not None:
            counts.append("ig_max_samples")
        for name in counts:
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        if self.ig_steps > MAX_STEPS:
            raise ConfigError(f"ig_steps must be at most {MAX_STEPS}, got {self.ig_steps!r}")
        for name in ("seed", "plateau_patience", "early_stop_patience", "log_every"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must be an integer >= 0, got {value!r}")
        if self.split_index not in HELD_OUT_RUN:
            raise ConfigError(f"split_index must be one of {', '.join(map(str, HELD_OUT_RUN))}, "
                              f"got {self.split_index!r}")
        if not 0 <= self.val_fraction < 1:
            raise ConfigError(f"val_fraction must be in [0, 1), got {self.val_fraction!r}")
        architecture(self.arch)
        BaselineKind.parse(self.baseline)
        if self.ig_target not in GRADIENT_TARGETS:
            raise ConfigError(f"ig_target must be one of {', '.join(GRADIENT_TARGETS)}, "
                              f"got {self.ig_target!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d, overrides: dict | None = None) -> "ExperimentConfig":
        """The config of a JSON object plus overrides: fields left out keep
        their defaults and retired keys are dropped, where they hold the
        value RETIRED_CONFIG_KEYS allows."""
        d = {**asdict(cls()), **json_object(d, ConfigError, "config"), **(overrides or {})}
        for key, allowed in RETIRED_CONFIG_KEYS.items():
            value = d.pop(key, allowed)
            if allowed is not None and value != allowed:
                raise ConfigError(f"{key} is retired and may only hold {allowed!r}, "
                                  f"got {value!r}")
        return from_json(cls, d, ConfigError, "config")

    @classmethod
    def from_file(cls, path: Path, overrides: dict | None = None) -> "ExperimentConfig":
        return cls.from_dict(read_json(Path(path), ConfigError, "config"), overrides)


@dataclass
class Report:
    kind: str
    balanced_accuracy: float | None
    per_class_recall: list[float] | None
    confusion: list[list[int]] | None
    n_samples: int
    config: dict
    wall_clock_s: float
    hashes: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def save(self, path: Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))
        path.with_suffix(".txt").write_text(self.text_summary())

    def text_summary(self) -> str:
        lines = [f"report: {self.kind}", f"samples: {self.n_samples}",
                 f"wall clock: {self.wall_clock_s:.1f} s"]
        if self.balanced_accuracy is not None:
            lines.append(f"balanced accuracy: {self.balanced_accuracy:.4f}")
        if self.per_class_recall is not None:
            recalls = "  ".join(f"{r:.3f}" for r in self.per_class_recall)
            lines.append(f"per-class recall: {recalls}")
        if self.confusion is not None:
            lines.append("confusion matrix (rows = true class):")
            for row in self.confusion:
                lines.append("  " + " ".join(f"{v:5d}" for v in row))
        for key, value in sorted(self.hashes.items()):
            lines.append(f"{key}: {value}")
        for key, value in sorted(self.extras.items()):
            if isinstance(value, (int, float, str, bool)) or value is None:
                lines.append(f"{key}: {value}")
        return "\n".join(lines) + "\n"


def render_report_text(path: Path) -> str:
    """Human-readable summary of a saved JSON report."""
    path = Path(path)
    d = read_json(path, DataError, "report")
    return from_json(Report, d, DataError, f"report {path}").text_summary()


def balanced_scores(y_true: np.ndarray, y_pred: np.ndarray,
                    n_classes: int = N_CLASSES):
    """Balanced accuracy (mean per-class recall) and the confusion matrix."""
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (y_true, y_pred), 1)
    class_counts = confusion.sum(axis=1)
    present = class_counts > 0
    recalls = np.zeros(n_classes)
    recalls[present] = confusion[np.arange(n_classes), np.arange(n_classes)][present] \
        / class_counts[present]
    balanced = float(recalls[present].mean())
    return balanced, recalls, confusion


@dataclass
class PreparedData:
    """Windowed, normalized samples with the index lists of their split,
    keyed by slice name, and per-architecture model inputs."""

    samples: SampleSet
    split: dict[str, list[int]]
    inputs: np.ndarray  # model inputs, aligned with samples
    layout: SensorLayout

    @property
    def labels(self) -> np.ndarray:
        return self.samples.labels

    def slice(self, name: str):
        """The inputs, labels and sample indices of one of SLICES."""
        if name not in SLICES:
            raise ConfigError(f"unknown slice {name!r}")
        idx = list(range(len(self.samples))) if name == "all" else self.split[name]
        if not idx:
            raise DataError(f"slice {name!r} is empty")
        return self.inputs[idx], self.labels[idx], idx


def model_inputs(samples: SampleSet, arch: str) -> np.ndarray:
    """The architecture's inputs: samples.values itself for the fcn-cnn,
    the channel means, taken once, for the mean-mlp."""
    return architecture(arch).features(samples.values)


def prepare_data(campaign: Campaign, config: ExperimentConfig,
                 baseline_reduce: str | None = None) -> PreparedData:
    """Window + normalize a campaign, assign splits, and build model
    inputs. baseline_reduce optionally replaces every sample by its
    baseline before input construction (retraining protocols)."""
    subset = campaign.subset_aoa(config.aoa_deg)
    samples = build_samples(subset, config.window_steps, config.window_count)
    split = assign_splits(samples, config.split_index, seed=config.seed,
                          val_fraction=config.val_fraction)
    if baseline_reduce is not None:
        samples = reduce_dataset(samples, baseline_reduce)
    return PreparedData(samples=samples, split=split,
                        inputs=model_inputs(samples, config.arch), layout=campaign.layout)


@dataclass
class TrainingRecord:
    """The metadata of a checkpoint that train_classifier saved: the run
    that trained the stack and what evaluating it needs."""

    config: dict  # the ExperimentConfig's to_dict()
    dataset_fingerprint: str | None
    baseline_reduce: str | None
    best_epoch: int
    best_val_loss: float
    epochs_run: int

    def check(self, what: str) -> None:
        """Reject a baseline_reduce that names no baseline kind, which
        the field type lets through."""
        kinds = [kind.value for kind in BaselineKind]
        if self.baseline_reduce not in (None, *kinds):
            raise DataError(f"{what} field baseline_reduce must be one of "
                            f"{', '.join(kinds)} or null, got {self.baseline_reduce!r}")


def train_classifier(config: ExperimentConfig, campaign: Campaign,
                     baseline_reduce: str | None = None,
                     checkpoint_path: Path | None = None) -> Report:
    """Train the configured architecture on a campaign and evaluate the
    held-out test slice. Saves a checkpoint when a path is given, and
    makes its directory before the fit."""
    t0 = time.perf_counter()
    data = prepare_data(campaign, config, baseline_reduce=baseline_reduce)
    train_x, train_y, _ = data.slice("train")
    val_x, val_y, _ = data.slice("validation")
    stack = build_architecture(config.arch, data.inputs.shape[1:],
                               n_classes=N_CLASSES, seed=config.seed)
    if checkpoint_path is not None:
        # a path that cannot take the checkpoint fails now, not after the fit
        Path(checkpoint_path).parent.mkdir(parents=True, exist_ok=True)
    result = fit(stack, train_x, train_y, val_x, val_y, config)

    test_x, test_y, _ = data.slice("test")
    preds = stack.predict(test_x)
    record = TrainingRecord(
        config=config.to_dict(), dataset_fingerprint=campaign.fingerprint(),
        baseline_reduce=baseline_reduce, best_epoch=result.best_epoch,
        best_val_loss=result.best_val_loss, epochs_run=result.epochs_run)
    hashes = {"dataset": record.dataset_fingerprint}
    if checkpoint_path is not None:
        hashes["checkpoint"] = save_checkpoint(stack, checkpoint_path, asdict(record))
    report = _scored(test_y, preds, config, "test", hashes, t0,
                     kind="train" if baseline_reduce is None else f"retrain-{baseline_reduce}")
    report.extras.update(
        best_epoch=result.best_epoch, best_val_loss=result.best_val_loss,
        epochs_run=result.epochs_run, stopped_early=result.stopped_early,
        val_accuracy=result.history[result.best_epoch]["val_accuracy"]
        if result.history else None,
        history=result.history)
    return report


@dataclass
class _MeanStats:
    """The metadata key `mean_stats` of checkpoints older than Standardize."""

    mean: np.ndarray
    std: np.ndarray


def _load_mean_stats(stack: LayerStack, raw, what: str) -> None:
    """Put an older checkpoint's non-null `mean_stats`, one finite mean and
    positive finite std per input channel, at the head of its stack."""
    if raw is None:
        return
    stats = from_json(_MeanStats, raw, DataError, what, "mean_stats")
    if any(layer.kind == "standardize" for layer in stack.layers):
        raise DataError(f"{what} field mean_stats must be null in a checkpoint "
                        "with a standardize layer")
    channels = stack.input_shape[0]
    if stats.mean.shape != (channels,) or stats.std.shape != (channels,):
        raise DataError(f"{what} field mean_stats holds {stats.mean.size} means and "
                        f"{stats.std.size} stds for {channels} channels")
    layer = Standardize(channels)
    layer.buffers.update(mean=stats.mean.astype(stack.dtype),
                         std=stats.std.astype(stack.dtype))
    fault = layer.fault()
    if fault:
        raise DataError(f"{what} field mean_stats.{fault}")
    stack.layers.insert(0, layer)


def load_model(checkpoint_path: Path, campaign: Campaign, overrides: dict | None = None):
    """The stack of a checkpoint that train_classifier saved, with its
    run's prepared data and config on a campaign and the report hashes:
    `dataset`, the campaign's fingerprint, and `trained_on`, the training
    dataset's where the checkpoint records it. A campaign other than the
    training one is allowed (say, another AoA) but warned about."""
    stack, metadata = load_checkpoint(checkpoint_path)
    what = f"checkpoint metadata of {checkpoint_path}"
    _load_mean_stats(stack, metadata.pop("mean_stats", None), what)
    record = from_json(TrainingRecord, {"dataset_fingerprint": None, **metadata},
                       DataError, what)
    record.check(what)
    try:
        config = ExperimentConfig.from_dict(record.config)
    except ConfigError as exc:
        raise DataError(f"{what}: {exc}") from exc
    config = ExperimentConfig.from_dict(config.to_dict(), overrides)
    hashes = {"dataset": campaign.fingerprint()}
    if record.dataset_fingerprint is not None:
        hashes["trained_on"] = record.dataset_fingerprint
        if record.dataset_fingerprint != hashes["dataset"]:
            print(f"warning: checkpoint was trained on dataset {hashes['trained_on']}, "
                  f"this dataset is {hashes['dataset']}", file=sys.stderr)
    data = prepare_data(campaign, config, baseline_reduce=record.baseline_reduce)
    return stack, data, config, hashes


def _scored(labels: np.ndarray, preds: np.ndarray, config: ExperimentConfig,
            slice_name: str, hashes: dict | None, t0: float,
            kind: str = "evaluate") -> Report:
    """The report of predictions on a slice, timed from t0."""
    balanced, recalls, confusion = balanced_scores(labels, preds)
    return Report(
        kind=kind, balanced_accuracy=balanced,
        per_class_recall=recalls.tolist(), confusion=confusion.tolist(),
        n_samples=len(labels), config=config.to_dict(),
        wall_clock_s=time.perf_counter() - t0,
        hashes=dict(hashes or {}), extras={"slice": slice_name},
    )


def evaluate(stack: LayerStack, inputs: np.ndarray, labels: np.ndarray,
             config: ExperimentConfig, slice_name: str = "test",
             hashes: dict | None = None) -> Report:
    """Deterministic infer-mode evaluation of a trained stack."""
    t0 = time.perf_counter()
    if len(labels) == 0:
        raise DataError("cannot evaluate an empty slice")
    return _scored(labels, stack.predict(inputs), config, slice_name, hashes, t0)


def ablate_on_baselines(stack: LayerStack, data: PreparedData,
                        config: ExperimentConfig,
                        kinds=tuple(BaselineKind),
                        slice_name: str = "test",
                        hashes: dict | None = None) -> dict[str, Report]:
    """Evaluate an unmodified trained stack on baseline-reduced inputs,
    one report per kind. Every kind is parsed before the first pass, and
    a repeated kind runs once, where it first appears.

    APB does not depend on the sample: it reduces every one to the same
    zero window, and so to the same model input. Its class is predicted
    on min(n, 2) such rows and repeated for all n labels; two rows, where
    the slice has them, so that the dense layers do not run as the
    matrix-vector products of a one-row pass. LayerStack's infer passes
    give each row the logits a whole-slice pass gives it, so the report
    is the one the whole slice would give.

    APB and MVB windows are constant in time. A (channels, time) model
    scores them with `LayerStack.constant_logits` on their levels per
    channel (`baselines.constant_levels`), which runs the layers before
    the pool on a receptive-field-wide window and gives the logits of the
    whole windows bit for bit. The mean-mlp scores the reduced samples'
    inputs, and TVB, which varies in time, runs the whole reduced slice
    on either architecture."""
    kinds = list(dict.fromkeys(BaselineKind.parse(kind).value for kind in kinds))
    _, labels, idx = data.slice(slice_name)
    samples = data.samples[idx]
    windows = architecture(config.arch).input_rank == 2
    reports = {}
    for kind in kinds:
        t0 = time.perf_counter()
        apb = kind == BaselineKind.APB
        part = samples[:2] if apb else samples
        if windows and kind != BaselineKind.TVB:
            preds = stack.constant_logits(constant_levels(part.values, kind)).argmax(axis=-1)
        else:
            preds = stack.predict(model_inputs(reduce_dataset(part, kind), config.arch))
        if apb:
            preds = np.full(len(labels), preds[0])
        report = _scored(labels, preds, config, slice_name, hashes, t0,
                         kind=f"ablate-{kind}")
        report.extras["baseline"] = kind
        reports[kind] = report
    return reports


def retrain_on_baseline(config: ExperimentConfig, campaign: Campaign,
                        kind: str, checkpoint_path: Path | None = None) -> Report:
    """Retrain from scratch on baseline-reduced data: the CNN on
    temporal-variation samples, the MLP on mean-value vectors."""
    kind = BaselineKind.parse(kind).value
    arch = {spec.retrain_baseline: name for name, spec in ARCHITECTURES.items()}.get(kind)
    if arch is None:  # the ambient baseline
        raise ConfigError(
            f"cannot retrain on the {kind} baseline: every reduced sample is "
            "all zeros, so training a classifier on them is not possible")
    cfg = ExperimentConfig.from_dict(config.to_dict(), {"arch": arch, "baseline": kind})
    return train_classifier(cfg, campaign, baseline_reduce=kind,
                            checkpoint_path=checkpoint_path)


def attribute_campaign(stack: LayerStack, data: PreparedData,
                       config: ExperimentConfig, slice_name: str = "validation",
                       export_dir: Path | None = None,
                       hashes: dict | None = None) -> Report:
    """Integrated-gradients maps for correctly classified samples of a
    slice, channel sums, and population statistics.

    ig_max_samples caps the attributed population with a seeded draw (the
    cap is recorded in the report). export_dir, when given, is made
    before the first map.
    """
    if architecture(config.arch).input_rank != 2:
        raise ConfigError("attribution runs on the (channels, time) CNN input")
    t0 = time.perf_counter()
    inputs, labels, idx = data.slice(slice_name)
    preds = stack.predict(inputs)
    correct = np.flatnonzero(preds == labels)
    if correct.size == 0:
        raise DataError(f"no correctly classified samples in slice {slice_name!r}")
    chosen = correct
    if config.ig_max_samples is not None and correct.size > config.ig_max_samples:
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, 977)))
        chosen = np.sort(rng.choice(correct, size=config.ig_max_samples, replace=False))

    kind = BaselineKind.parse(config.baseline)
    if export_dir is not None:
        # a path that cannot take the exports fails now, not after the maps
        export_dir = Path(export_dir)
        export_dir.mkdir(parents=True, exist_ok=True)
    maps: list[AttributionMap] = []
    vectors = np.empty((chosen.size, inputs.shape[1]))
    sample_ids = []
    for row, j in enumerate(chosen):
        sample_id = data.samples.provenance(idx[j])
        amap = integrated_gradients(
            stack, inputs[j], kind, steps=config.ig_steps,
            target_class=int(preds[j]), target=config.ig_target, sample_id=sample_id)
        maps.append(amap)
        vectors[row] = channel_sum(amap)
        sample_ids.append(sample_id)

    stats = population_stats(vectors, sample_ids=sample_ids)
    gaps = np.array([m.completeness_gap for m in maps])
    max_relative_gap, n_gap_unchecked = relative_completeness_gap(maps)
    overall_top = top_channels(np.abs(stats.mean), k=5)
    report = Report(
        kind=f"attribute-{kind.value}", balanced_accuracy=None,
        per_class_recall=None, confusion=None,
        n_samples=int(chosen.size), config=config.to_dict(),
        wall_clock_s=time.perf_counter() - t0, hashes=dict(hashes or {}),
        extras={
            "slice": slice_name,
            "baseline": kind.value,
            "steps": config.ig_steps,
            "target": config.ig_target,
            "n_slice_samples": int(len(labels)),
            "n_correct": int(correct.size),
            "n_attributed": int(chosen.size),
            "mean_completeness_gap": float(gaps.mean()),
            "max_completeness_gap": float(gaps.max()),
            "max_relative_completeness_gap": max_relative_gap,
            "n_gap_unchecked": n_gap_unchecked,
            "top_channels_by_mean_abs": overall_top,
        },
    )
    if export_dir is not None:
        export_stats_csv(stats, export_dir / f"channel_stats_{kind.value}.csv",
                         layout=data.layout)
        for amap in maps[:min(len(maps), 8)]:  # a few example maps
            ts, run, win = amap.sample_id
            export_map_csv(
                amap, export_dir / f"map_{kind.value}_ts{ts}_r{run}_w{win}.csv",
                layout=data.layout)
        report.save(export_dir / f"attribution_{kind.value}.json")
    return report
