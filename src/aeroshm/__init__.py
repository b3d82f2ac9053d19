"""Damage classification from multivariate surface-pressure time series,
with integrated-gradients attribution, baseline ablation/retraining
protocols, spectral shedding scans, and a physics-inspired surrogate data
generator."""

__version__ = "0.1.0"

from .baselines import BaselineKind, make_baseline, reduce_dataset
from .data import Campaign, RawRun, SampleSet, SensorLayout
from .errors import AeroshmError, ConfigError, DataError, NumericError, ShapeError
from .models import build_cnn, build_mlp
from .net import LayerStack, load_checkpoint, save_checkpoint

__all__ = [
    "AeroshmError",
    "BaselineKind",
    "Campaign",
    "ConfigError",
    "DataError",
    "LayerStack",
    "NumericError",
    "RawRun",
    "SampleSet",
    "SensorLayout",
    "ShapeError",
    "build_cnn",
    "build_mlp",
    "load_checkpoint",
    "make_baseline",
    "reduce_dataset",
    "save_checkpoint",
    "__version__",
]
