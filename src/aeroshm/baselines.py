"""Attribution baselines: three ways to remove a signal property.

APB (ambient pressure): all zeros — no loading, no vibration.
TVB (temporal variations): per-channel mean removed — only the dynamics
    survive, inter-channel magnitude relationships are erased.
MVB (mean value): each channel frozen at its temporal mean — only the
    inter-channel magnitudes survive, dynamics are erased.

For every sample x the decomposition x = TVB(x) + MVB(x) holds exactly.
Baselines operate on z-scored samples, the model's actual input space.
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
    values = np.asarray(values, dtype=np.float64)
    if kind is BaselineKind.APB:
        return np.zeros_like(values)
    channel_means = values.mean(axis=-1, keepdims=True)
    if kind is BaselineKind.MVB:
        return np.broadcast_to(channel_means, values.shape).copy()
    return values - channel_means  # TVB


def reduce_dataset(samples: SampleSet, kind: "str | BaselineKind") -> SampleSet:
    """Baseline-reduce every sample into a new SampleSet; labels,
    provenance and ordering are preserved, so split assignments remain
    valid."""
    return replace(samples, values=make_baseline(samples.values, kind))
