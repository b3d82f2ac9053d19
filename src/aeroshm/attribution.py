"""Integrated-gradients attribution engine.

For an input x, a baseline x', and a scalar model output F (the target
class's pre-softmax logit by default, or its probability), the attribution
of element (c, t) is

    IG[c, t] = (x[c, t] - x'[c, t]) * integral_0^1 dF/dx[c, t] at x' + g (x - x') dg

approximated by a midpoint Riemann sum with L steps (g_k = (k - 1/2) / L).
The completeness gap |sum(IG) - (F(x) - F(x'))| is recorded on every map;
it vanishes as L grows and is exactly zero for linear models at any L.

Channel aggregation sums a map over time to a per-channel vector; the
population statistics over many such vectors are what violin plots of
channel importance are drawn from.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import BaselineKind, make_baseline
from .data import SensorLayout
from .errors import ConfigError, DataError

MAX_STEPS = 5000
# The completeness gap is judged relative to |F(x) - F(x')|. Measured gaps
# stay near 1e-6 whatever that difference is, so below this floor the
# ratio reads noise, not the integral, and the map is left unchecked.
GAP_CHECK_FLOOR = 1e-4
# A relative gap above this calls for more steps (Sundararajan et al. 2017).
GAP_WARN_RATIO = 0.05


@dataclass
class AttributionMap:
    scores: np.ndarray  # same shape as the sample
    baseline_kind: BaselineKind
    steps: int
    target_class: int
    target_kind: str  # "logit" or "prob"
    completeness_gap: float
    output_delta: float  # F(x) - F(x')
    sample_id: tuple | None = None


@dataclass
class AttributionStats:
    """Per-channel distribution summary over a population of channel-sum
    vectors, plus the raw vectors for external violin plotting."""

    mean: np.ndarray
    median: np.ndarray
    q25: np.ndarray
    q75: np.ndarray
    minimum: np.ndarray
    maximum: np.ndarray
    raw: np.ndarray  # (population, channels)
    sample_ids: list = field(default_factory=list)

    @property
    def n_samples(self) -> int:
        return self.raw.shape[0]


def integrated_gradients(model, values: np.ndarray, baseline_kind,
                         steps: int = 200, target_class: int | None = None,
                         target: str = "logit", chunk_size: int = 64,
                         sample_id: tuple | None = None) -> AttributionMap:
    """Attribution map for one sample.

    model must expose forward(x) -> probabilities and
    class_gradients(batch, class_index, target=...) -> (values, grads);
    a trained LayerStack does. target_class defaults to the model's
    prediction on x.
    """
    if not 1 <= steps <= MAX_STEPS:
        raise ConfigError(f"steps must be in [1, {MAX_STEPS}], got {steps}")
    kind = BaselineKind.parse(baseline_kind)
    x = np.asarray(values, dtype=np.float64)
    baseline = make_baseline(x, kind)
    if target_class is None:
        target_class = int(np.argmax(model.forward(x)))

    diff = x - baseline
    gammas = (np.arange(steps) + 0.5) / steps  # midpoint rule
    grad_sum = np.zeros_like(x)
    for start in range(0, steps, chunk_size):
        g = gammas[start:start + chunk_size]
        points = baseline[None] + g.reshape((-1,) + (1,) * x.ndim) * diff[None]
        _, grads = model.class_gradients(points, target_class, target=target)
        grad_sum += grads.sum(axis=0)
    scores = diff * (grad_sum / steps)

    endpoint_values, _ = model.class_gradients(
        np.stack([x, baseline]), target_class, target=target)
    output_delta = float(endpoint_values[0] - endpoint_values[1])
    gap = abs(float(scores.sum()) - output_delta)
    return AttributionMap(
        scores=scores, baseline_kind=kind, steps=steps,
        target_class=target_class, target_kind=target,
        completeness_gap=gap, output_delta=output_delta, sample_id=sample_id,
    )


def relative_completeness_gap(maps: list[AttributionMap]) -> tuple[float | None, int]:
    """The largest completeness gap relative to |F(x) - F(x')| over the maps
    where that difference reaches GAP_CHECK_FLOOR (None if none does), and
    the number of maps below the floor."""
    deltas = np.array([abs(m.output_delta) for m in maps])
    gaps = np.array([m.completeness_gap for m in maps])
    checked = deltas >= GAP_CHECK_FLOOR
    worst = float((gaps[checked] / deltas[checked]).max()) if checked.any() else None
    return worst, int((~checked).sum())


def channel_sum(attribution: AttributionMap) -> np.ndarray:
    """Sum of attributions over time: one value per channel."""
    return attribution.scores.sum(axis=1)


def top_channels(vector: np.ndarray, k: int = 3) -> list[int]:
    """Channel indices ranked by |value| descending; ties break toward the
    lower channel index."""
    vector = np.asarray(vector)
    if k > vector.size:
        raise ConfigError(f"k={k} exceeds the {vector.size} channels")
    order = sorted(range(vector.size), key=lambda i: (-abs(vector[i]), i))
    return order[:k]


def population_stats(vectors, sample_ids=None) -> AttributionStats:
    """Distribution summaries of channel-sum vectors across a population."""
    raw = np.asarray(vectors, dtype=np.float64)
    if raw.ndim == 1:
        raw = raw[None]
    if raw.size == 0:
        raise DataError("empty attribution population")
    return AttributionStats(
        mean=raw.mean(axis=0),
        median=np.median(raw, axis=0),
        q25=np.quantile(raw, 0.25, axis=0),
        q75=np.quantile(raw, 0.75, axis=0),
        minimum=raw.min(axis=0),
        maximum=raw.max(axis=0),
        raw=raw,
        sample_ids=list(sample_ids) if sample_ids is not None else [],
    )


def convergence_study(model, values: np.ndarray, baseline_kind,
                      steps_list: list[int], target_class: int | None = None,
                      target: str = "logit", chunk_size: int = 64) -> list[dict]:
    """Completeness gap and map drift per step count.

    The map at the largest step count serves as the reference; each row
    reports (steps, completeness_gap, max |IG - IG_ref|).
    """
    if not steps_list:
        raise ConfigError("steps_list must be non-empty")
    steps_sorted = sorted(set(int(s) for s in steps_list))
    maps = {}
    if target_class is None:
        target_class = int(np.argmax(model.forward(np.asarray(values))))
    for steps in steps_sorted:
        maps[steps] = integrated_gradients(
            model, values, baseline_kind, steps=steps,
            target_class=target_class, target=target, chunk_size=chunk_size)
    reference = maps[steps_sorted[-1]].scores
    return [
        {
            "steps": steps,
            "completeness_gap": maps[steps].completeness_gap,
            "max_abs_diff_vs_reference": float(
                np.abs(maps[steps].scores - reference).max()),
        }
        for steps in steps_sorted
    ]


# -- exports ---------------------------------------------------------------


def export_map_csv(attribution: AttributionMap, path: Path,
                   layout: SensorLayout | None = None) -> None:
    """Map as CSV (rows = channels, first columns channel index + physical
    sensor id) plus a JSON sidecar with the map's provenance."""
    layout = layout or SensorLayout()
    path = Path(path)
    n_channels, n_steps = attribution.scores.shape
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["channel", "sensor_id"] + [f"t{t}" for t in range(n_steps)])
        for c in range(n_channels):
            sensor = layout.id_of_channel(c) if c < layout.n_channels else c
            writer.writerow([c, sensor] + [f"{v:.17g}" for v in attribution.scores[c]])
    sidecar = {
        "baseline": attribution.baseline_kind.value,
        "steps": attribution.steps,
        "target_class": attribution.target_class,
        "target_kind": attribution.target_kind,
        "completeness_gap": attribution.completeness_gap,
        "output_delta": attribution.output_delta,
        "sample_id": list(attribution.sample_id) if attribution.sample_id else None,
    }
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True))


def export_stats_csv(stats: AttributionStats, path: Path,
                     layout: SensorLayout | None = None) -> None:
    """Per-channel summary CSV plus a raw-values CSV for violin plotting."""
    layout = layout or SensorLayout()
    path = Path(path)
    n_channels = stats.mean.size
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["channel", "sensor_id", "mean", "median",
                         "q25", "q75", "min", "max"])
        for c in range(n_channels):
            sensor = layout.id_of_channel(c) if c < layout.n_channels else c
            writer.writerow([c, sensor] + [
                f"{series[c]:.17g}" for series in
                (stats.mean, stats.median, stats.q25, stats.q75,
                 stats.minimum, stats.maximum)])
    raw_path = path.with_name(path.stem + "_raw" + path.suffix)
    with open(raw_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample"] + [f"c{c}" for c in range(n_channels)])
        for i, row in enumerate(stats.raw):
            sid = stats.sample_ids[i] if i < len(stats.sample_ids) else i
            writer.writerow([sid] + [f"{v:.17g}" for v in row])
