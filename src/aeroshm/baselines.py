"""Attribution baselines: three ways to remove a signal property.

APB (ambient pressure): all zeros — no loading, no vibration.
TVB (temporal variations): per-channel mean removed — only the dynamics
    survive, inter-channel magnitude relationships are erased.
MVB (mean value): each channel frozen at its temporal mean — only the
    inter-channel magnitudes survive, dynamics are erased.

For every float64 sample x the decomposition x = TVB(x) + MVB(x) holds
exactly. Baselines operate on z-scored samples, the model's actual input
space.

APB alone does not depend on the sample: it maps every sample to the same
zero window, so a model gives every APB-reduced sample the same class.
`harness.ablate_on_baselines` uses that: it predicts the APB class on at
most two zero rows and repeats it for the whole slice, where TVB and MVB
reduce and predict every sample.

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


def make_baseline(values: np.ndarray, kind: "str | BaselineKind") -> np.ndarray:
    """Baseline with the same shape as the input: one (channels, steps)
    sample or a stack of them along leading axes."""
    kind = BaselineKind.parse(kind)
    values = np.asarray(values)
    if values.dtype not in (np.float32, np.float64):
        values = values.astype(np.float64)
    if kind is BaselineKind.APB:
        return np.zeros_like(values)
    channel_means = values.mean(axis=-1, keepdims=True, dtype=np.float64)
    if kind is BaselineKind.MVB:
        return np.broadcast_to(channel_means.astype(values.dtype), values.shape).copy()
    # TVB: the difference is taken in float64 and rounded once into out
    return np.subtract(values, channel_means, out=np.empty_like(values),
                       casting="same_kind")


def reduce_dataset(samples: SampleSet, kind: "str | BaselineKind") -> SampleSet:
    """Baseline-reduce every sample into a new SampleSet of the same
    dtype; labels, provenance and ordering are preserved, so split
    assignments remain valid."""
    return replace(samples, values=make_baseline(samples.values, kind))
