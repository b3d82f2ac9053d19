"""Short-time Fourier analysis and a scan for vortex shedding.

STFT_PRESETS names the analysis resolutions, "wide" (the default) and
"fine". The scan looks for persistent narrow-band energy at candidate
shedding frequencies, such as the Strouhal predictions f = St * V / c: a
band is "detected" when its mean magnitude stays at least THRESHOLD_DB
above the local noise floor for MIN_CONSECUTIVE consecutive frames. The
known structural excitation band is reported separately so it can never
be mistaken for shedding.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import RawRun, SensorLayout
from .errors import ConfigError, DataError

# The detection rule, band mean >= 7 dB over the local floor for >= 4
# consecutive frames, was calibrated on noise-only simulations: with the
# overlapping Hann frames of the wide preset it yields no false detections
# over hundreds of 150 s noise runs, while genuine tones sit well above 20 dB.
THRESHOLD_DB = 7.0
MIN_CONSECUTIVE = 4


@dataclass(frozen=True)
class StftSpec:
    """Analysis resolution: frequency resolution is 1 / window_seconds."""

    window_seconds: float
    hop_seconds: float
    freq_min: float
    freq_max: float

    @property
    def freq_resolution(self) -> float:
        return 1.0 / self.window_seconds


STFT_PRESETS = {
    # 0.5-50 Hz at 0.5 Hz resolution, 1.0 s time step
    "wide": StftSpec(window_seconds=2.0, hop_seconds=1.0, freq_min=0.5, freq_max=50.0),
    # 10-35 Hz at 1.0 Hz resolution, 0.5 s time step
    "fine": StftSpec(window_seconds=1.0, hop_seconds=0.5, freq_min=10.0, freq_max=35.0),
}


@dataclass
class StftResult:
    freqs: np.ndarray  # (n_bins,)
    times: np.ndarray  # (n_frames,) frame centers in seconds
    magnitude: np.ndarray  # (n_bins, n_frames) amplitude units of the input
    spec: StftSpec


def stft(signal: np.ndarray, spec: StftSpec | None = None,
         sample_rate: float = 100.0) -> StftResult:
    """Hann-windowed short-time Fourier magnitudes for the requested band.

    Magnitudes are amplitude-normalized (2 |X| / sum(window), halved for
    DC/Nyquist), so a unit-amplitude sinusoid peaks near 1.
    """
    spec = spec or STFT_PRESETS["wide"]
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise ConfigError(f"stft expects a single channel, got shape {signal.shape}")
    n_window = int(round(spec.window_seconds * sample_rate))
    n_hop = int(round(spec.hop_seconds * sample_rate))
    if n_window < 2 or n_hop < 1:
        raise ConfigError("window and hop must be at least one sample")
    if signal.size < n_window:
        raise DataError(
            f"signal of {signal.size} samples shorter than one "
            f"{n_window}-sample window")
    window = np.hanning(n_window)
    starts = np.arange(0, signal.size - n_window + 1, n_hop)
    frames = np.stack([signal[s:s + n_window] * window for s in starts])
    spectrum = np.fft.rfft(frames, axis=1)
    scale = np.full(spectrum.shape[1], 2.0 / window.sum())
    scale[0] = 1.0 / window.sum()
    if n_window % 2 == 0:
        scale[-1] = 1.0 / window.sum()
    magnitude = np.abs(spectrum) * scale
    freqs = np.fft.rfftfreq(n_window, d=1.0 / sample_rate)
    keep = (freqs >= spec.freq_min) & (freqs <= spec.freq_max)
    if not keep.any():
        raise ConfigError(
            f"band [{spec.freq_min}, {spec.freq_max}] Hz holds no FFT bins")
    times = (starts + n_window / 2.0) / sample_rate
    return StftResult(freqs=freqs[keep], times=times,
                      magnitude=magnitude[:, keep].T, spec=spec)


@dataclass
class BandDetection:
    frequency_hz: float
    detected: bool
    peak_band_db: float  # best sustained band level over the noise floor
    mean_band_magnitude: float
    frames_over_threshold: int


@dataclass
class SheddingReport:
    sensor_id: int
    candidates: list[BandDetection]
    excitation: BandDetection | None
    stft: StftResult  # the scanned magnitudes, not part of to_dict

    def detected_any(self) -> bool:
        return any(c.detected for c in self.candidates)

    def to_dict(self) -> dict:
        return {
            "sensor_id": self.sensor_id,
            "threshold_db": THRESHOLD_DB,
            "min_consecutive_frames": MIN_CONSECUTIVE,
            "window_seconds": self.stft.spec.window_seconds,
            "hop_seconds": self.stft.spec.hop_seconds,
            "candidates": [asdict(c) for c in self.candidates],
            "excitation": asdict(self.excitation) if self.excitation else None,
        }


def _band_detection(result: StftResult, frequency: float) -> BandDetection:
    df = result.spec.freq_resolution
    band = np.abs(result.freqs - frequency) <= df + 1e-9
    # local noise floor: median magnitude in the surrounding 2..8 bin annulus
    annulus = (~band) & (np.abs(result.freqs - frequency) <= 8 * df + 1e-9)
    if not annulus.any():
        annulus = ~band
    band_mean = result.magnitude[band].mean(axis=0)  # per frame
    floor = np.median(result.magnitude[annulus], axis=0)
    floor = np.maximum(floor, 1e-30)
    level_db = 20.0 * np.log10(np.maximum(band_mean, 1e-30) / floor)
    # the level each run of MIN_CONSECUTIVE frames sustains: its lowest
    lows = (sliding_window_view(level_db, MIN_CONSECUTIVE).min(axis=1)
            if len(level_db) >= MIN_CONSECUTIVE else level_db[:0])
    sustained = lows[lows >= THRESHOLD_DB]
    detected = sustained.size > 0
    return BandDetection(
        frequency_hz=float(frequency), detected=detected,
        peak_band_db=float(sustained.max() if detected else level_db.max()),
        mean_band_magnitude=float(band_mean.mean()),
        frames_over_threshold=int((level_db >= THRESHOLD_DB).sum()),
    )


def shedding_scan(run: RawRun, sensor_id: int, candidates_hz: list[float],
                  spec: StftSpec | None = None,
                  layout=None) -> SheddingReport:
    """Scan one sensor's signal for persistent bands at candidate
    frequencies; the run's excitation frequency is reported separately."""
    spec = spec or STFT_PRESETS["wide"]
    layout = layout or SensorLayout()
    if sensor_id not in layout.working_ids:
        raise DataError(f"unknown or dead sensor id {sensor_id}")
    if not candidates_hz:
        raise ConfigError("no candidate frequency to scan")
    nyquist = run.sample_rate / 2.0
    for f in candidates_hz:
        if f <= 0.0:
            raise ConfigError(f"candidate frequency must be > 0 Hz, got {f}")
        if f > nyquist:
            raise ConfigError(
                f"candidate {f} Hz exceeds the Nyquist frequency {nyquist} Hz")
        if not spec.freq_min <= f <= spec.freq_max:
            raise ConfigError(
                f"candidate {f} Hz outside the analysis band "
                f"[{spec.freq_min}, {spec.freq_max}] Hz")
    channel = layout.channel_of_id(sensor_id)
    result = stft(run.values[channel], spec, sample_rate=run.sample_rate)
    detections = [_band_detection(result, f) for f in candidates_hz]
    excitation = None
    if spec.freq_min <= run.excitation_hz <= spec.freq_max:
        excitation = _band_detection(result, run.excitation_hz)
    return SheddingReport(sensor_id=sensor_id, candidates=detections,
                          excitation=excitation, stft=result)
