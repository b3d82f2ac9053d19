"""The Strouhal candidates, STFT behavior, and shedding-band detection."""

import numpy as np
import pytest

from aeroshm.cli import build_parser
from aeroshm.data import RawRun
from aeroshm.errors import ConfigError, DataError
from aeroshm.spectra import STFT_PRESETS, StftResult, _band_detection, shedding_scan, stft
from aeroshm.surrogate import GRID_TEST_SERIES

FS = 100.0


def tone(freq, duration=150.0, amplitude=1.0, fs=FS):
    t = np.arange(int(duration * fs)) / fs
    return amplitude * np.sin(2.0 * np.pi * freq * t)


def make_run(values, excitation_hz=1.9):
    return RawRun(values=values, test_series=4, damage_class=0, run_index=1,
                  aoa_deg=0.0, excitation_hz=excitation_hz, wind_speed=24.0)


class TestStrouhal:
    def test_cli_candidates_are_the_grid_shedding_frequencies(self):
        """`aeroshm spectra` scans f = St * V / c by default, St = 0.2 on
        the 0.16 m chord, at each wind speed of the generator's grid."""
        args = build_parser().parse_args(["spectra", "--data", "d", "--test-series", "1",
                                          "--damage-class", "0", "--sensor", "1"])
        speeds = sorted({series.wind_speed for series in GRID_TEST_SERIES})
        candidates = [float(c) for c in args.candidates.split(",")]
        assert candidates == pytest.approx([0.2 * v / 0.16 for v in speeds], abs=1e-12)


class TestStft:
    def test_presets_match_stated_resolutions(self):
        wide, fine = STFT_PRESETS["wide"], STFT_PRESETS["fine"]
        assert wide.freq_resolution == pytest.approx(0.5)
        assert wide.hop_seconds == 1.0
        assert fine.freq_resolution == pytest.approx(1.0)
        assert fine.hop_seconds == 0.5

    def test_pure_tone_single_dominant_bin(self):
        result = stft(tone(1.9, duration=30.0), STFT_PRESETS["wide"])
        avg = result.magnitude.mean(axis=1)
        dominant = result.freqs[np.argmax(avg)]
        assert abs(dominant - 1.9) <= result.spec.freq_resolution
        # the peak is well above every out-of-band bin
        off_band = avg[np.abs(result.freqs - 1.9) > 2 * result.spec.freq_resolution]
        assert avg.max() > 20 * off_band.max()

    def test_amplitude_normalization(self):
        result = stft(tone(10.0, duration=30.0, amplitude=2.5), STFT_PRESETS["wide"])
        peak = result.magnitude.max()
        assert abs(peak - 2.5) < 0.15

    def test_two_tones_both_visible(self):
        sig = tone(1.9, 40.0) + tone(15.0, 40.0)
        result = stft(sig, STFT_PRESETS["wide"])
        avg = result.magnitude.mean(axis=1)
        for f in (1.9, 15.0):
            band = avg[np.abs(result.freqs - f) <= 0.5]
            assert band.max() > 0.5

    def test_signal_too_short(self):
        with pytest.raises(DataError):
            stft(np.zeros(100), STFT_PRESETS["wide"])  # needs 200 samples

    def test_band_restriction(self):
        result = stft(tone(5.0, 10.0), STFT_PRESETS["fine"])
        assert result.freqs.min() >= 10.0
        assert result.freqs.max() <= 35.0

    def test_parseval_energy_tracking(self, rng):
        # stationary signal: per-frame band power recovers the signal
        # variance within the windowing tolerance
        sig = rng.normal(scale=1.3, size=6000)
        n_window = 200
        window = np.hanning(n_window)
        starts = np.arange(0, sig.size - n_window + 1, 100)
        stft_energy = 0.0
        time_energy = 0.0
        for s in starts:
            frame = sig[s:s + n_window] * window
            spectrum = np.fft.rfft(frame)
            weights = np.full(spectrum.size, 2.0)
            weights[0] = 1.0
            weights[-1] = 1.0
            stft_energy += (weights * np.abs(spectrum) ** 2).sum() / n_window
            time_energy += (frame ** 2).sum()
        assert abs(stft_energy / time_energy - 1.0) < 0.10


class TestSheddingScan:
    def _noise_run(self, seed=0, duration=150.0):
        rng = np.random.default_rng(seed)
        values = rng.normal(scale=0.012, size=(37, int(duration * FS)))
        return make_run(values)

    def test_white_noise_not_detected(self):
        report = shedding_scan(self._noise_run(), 16, [15.0, 30.0])
        assert not report.detected_any()

    def test_injected_tone_detected(self):
        run = self._noise_run(seed=1)
        channel = 15  # sensor id 16
        run.values[channel] += tone(15.0, duration=150.0, amplitude=0.1)
        report = shedding_scan(run, 16, [15.0, 30.0])
        by_freq = {c.frequency_hz: c for c in report.candidates}
        assert by_freq[15.0].detected
        assert not by_freq[30.0].detected

    def test_detection_monotone_in_amplitude(self):
        levels = []
        for amp in (0.01, 0.05, 0.25):
            run = self._noise_run(seed=2)
            run.values[15] += tone(15.0, duration=150.0, amplitude=amp)
            report = shedding_scan(run, 16, [15.0])
            levels.append(report.candidates[0].peak_band_db)
        assert levels[0] < levels[1] < levels[2]

    def test_excitation_band_reported_separately(self):
        run = self._noise_run(seed=3)
        run.values[15] += tone(1.9, duration=150.0, amplitude=0.08)
        report = shedding_scan(run, 16, [15.0, 30.0])
        assert report.excitation is not None
        assert report.excitation.frequency_hz == 1.9
        assert report.excitation.detected
        assert not report.detected_any()

    def test_candidate_above_nyquist_rejected(self):
        with pytest.raises(ConfigError):
            shedding_scan(self._noise_run(), 16, [60.0])

    def test_empty_candidate_list_rejected(self):
        with pytest.raises(ConfigError, match="no candidate"):
            shedding_scan(self._noise_run(), 16, [])

    def test_unknown_sensor_rejected(self):
        with pytest.raises(DataError):
            shedding_scan(self._noise_run(), 21, [15.0])  # dead sensor id

    @pytest.mark.parametrize("levels,detected,peak_db", [
        ([0, 20, 40, 60, 0, 0, 0, 0], False, 60.0),
        ([0, 60, 40, 80, 60, 0, 100, 0], True, 40.0),
        ([20, 60, 80, 60, 40, 0, 100, 0], True, 40.0),
        ([20, 60, 40], False, 60.0),
    ], ids=["3-frame-run", "4-frame-run", "5-frame-run", "3-frames-in-all"])
    def test_detection_needs_min_consecutive_frames_over_threshold(self, levels, detected,
                                                                   peak_db):
        """Hand-built band levels in dB over a floor of 1: a band is
        detected when MIN_CONSECUTIVE (4) frames in a row reach
        THRESHOLD_DB (7 dB), and its peak is the best level such a run
        sustains; otherwise the peak is its highest frame."""
        freqs = np.arange(40) * 0.5  # the wide preset's 0.5 Hz bins
        magnitude = np.ones((freqs.size, len(levels)))
        magnitude[np.abs(freqs - 5.0) <= 0.5] = 10.0 ** (np.array(levels) / 20.0)
        result = StftResult(freqs=freqs, times=np.arange(len(levels)) + 1.0,
                            magnitude=magnitude, spec=STFT_PRESETS["wide"])
        band = _band_detection(result, 5.0)
        assert band.detected is detected
        assert band.peak_band_db == peak_db
        assert band.frames_over_threshold == sum(level >= 7 for level in levels)

    def test_report_carries_the_scanned_stft(self):
        run = self._noise_run(duration=30.0)
        report = shedding_scan(run, 16, [15.0], spec=STFT_PRESETS["fine"])
        alone = stft(run.values[15], STFT_PRESETS["fine"])
        assert report.stft.spec == alone.spec
        for name in ("freqs", "times", "magnitude"):
            assert getattr(report.stft, name).tobytes() == getattr(alone, name).tobytes()
        assert "stft" not in report.to_dict()

    def test_report_serializes(self):
        report = shedding_scan(self._noise_run(), 16, [15.0])
        d = report.to_dict()
        assert d["sensor_id"] == 16
        assert d["candidates"][0]["frequency_hz"] == 15.0
        assert isinstance(d["candidates"][0]["detected"], bool)
