"""Attribution baselines: three ways to remove a signal property.

APB (ambient pressure): all zeros — no loading, no vibration.
TVB (temporal variations): per-channel mean removed — only the dynamics
    survive, inter-channel magnitude relationships are erased.
MVB (mean value): each channel frozen at its temporal mean — only the
    inter-channel magnitudes survive, dynamics are erased.

For every float64 sample x the decomposition x = TVB(x) + MVB(x) holds
exactly. Baselines operate on z-scored samples, the model's actual input
space.

APB and MVB are both constant in time: each holds every channel at one
level over all steps (zero, or the channel's mean), which
`constant_levels` gives without building the windows. TVB varies in
time. `harness.ablate_on_baselines` takes a pass per kind:

- APB alone does not depend on the sample, so a model gives every
  APB-reduced sample the same class. The ablation scores at most two
  zero rows and repeats their class for the whole slice.
- MVB is scored on every sample.
- On the fcn-cnn, APB and MVB both go through
  `LayerStack.constant_logits` on their levels, a pass over a window as
  wide as the convolutions' receptive field. The mean-mlp predicts on
  the reduced samples' inputs.
- TVB reduces and predicts every sample, with a full pass on either
  architecture.

Dtypes: a baseline keeps its input's dtype when that is float32 or
float64, so a float32 SampleSet reduces to a float32 one; other inputs
become float64. The channel means are taken in float64 either way, and a
float32 baseline is rounded from them once.
"""

from __future__ import annotations

from dataclasses import replace
from enum import Enum

import numpy as np

from .data import SampleSet
from .errors import ConfigError


class BaselineKind(str, Enum):
    APB = "apb"
    TVB = "tvb"
    MVB = "mvb"

    @classmethod
    def parse(cls, name: "str | BaselineKind") -> "BaselineKind":
        if isinstance(name, cls):
            return name
        try:
            return cls(name.lower())
        except ValueError:
            raise ConfigError(
                f"unknown baseline {name!r}; expected one of "
                f"{', '.join(k.value for k in cls)}") from None


def _floating(values) -> np.ndarray:
    """values as an array of its own dtype if float32 or float64, else
    of float64."""
    values = np.asarray(values)
    return values if values.dtype in (np.float32, np.float64) else values.astype(np.float64)


def constant_levels(values: np.ndarray, kind: "str | BaselineKind") -> np.ndarray:
    """The per-channel level a time-constant baseline (APB or MVB) holds
    over every step of each (channels, steps) sample: shape
    values.shape[:-1], in the baseline's dtype."""
    kind = BaselineKind.parse(kind)
    values = _floating(values)
    if kind is BaselineKind.APB:
        return np.zeros(values.shape[:-1], dtype=values.dtype)
    if kind is BaselineKind.MVB:
        return values.mean(axis=-1, dtype=np.float64).astype(values.dtype)
    raise ConfigError(f"the {kind.value} baseline is not constant in time")


def make_baseline(values: np.ndarray, kind: "str | BaselineKind") -> np.ndarray:
    """Baseline with the same shape as the input: one (channels, steps)
    sample or a stack of them along leading axes."""
    kind = BaselineKind.parse(kind)
    values = _floating(values)
    if kind is not BaselineKind.TVB:
        return np.broadcast_to(constant_levels(values, kind)[..., None], values.shape).copy()
    # TVB: the difference is taken in float64 and rounded once into out
    channel_means = values.mean(axis=-1, keepdims=True, dtype=np.float64)
    return np.subtract(values, channel_means, out=np.empty_like(values),
                       casting="same_kind")


def reduce_dataset(samples: SampleSet, kind: "str | BaselineKind") -> SampleSet:
    """Baseline-reduce every sample into a new SampleSet of the same
    dtype; labels, provenance and ordering are preserved, so split
    assignments remain valid."""
    return replace(samples, values=make_baseline(samples.values, kind))
