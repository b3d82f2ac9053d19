"""Surrogate generator: planted structure, determinism, campaign grid,
and export/ingest round trips."""

import json
from dataclasses import replace

import numpy as np
import pytest

from aeroshm.data import export_csv_run, ingest_csv_run, load_campaign, save_campaign
from aeroshm.errors import ConfigError, DataError, NumericError
from aeroshm.spectra import StftSpec, stft
from aeroshm.surrogate import (
    GeneratorConfig,
    SectionParams,
    generate_campaign,
    heave_amplitude,
    planted_channels,
    pressure_profiles,
    simulate_motion,
    simulate_run,
)

SHORT = 55.0  # seconds; enough to trim and window in downstream tests


@pytest.fixture(scope="module")
def config():
    return GeneratorConfig.static_dominant()


class TestSimulateRun:
    def test_undamaged_quiet_run_is_constant_base_profile(self, config):
        run = simulate_run(config, 1, 0, 1, seed=0, duration_s=20.0,
                           with_noise=False, with_excitation=False)
        base, _ = pressure_profiles(config.pressure, config.layout(), 0.0)
        np.testing.assert_allclose(
            run.values, np.broadcast_to(base[:, None], run.values.shape), atol=1e-12)

    def test_monotone_severity_across_crack_classes(self, config):
        amps, shifts = [], []
        base, _ = pressure_profiles(config.pressure, config.layout(), 0.0)
        for d in range(5):
            trace = simulate_motion(config.section, config.damage(d), 60.0,
                                    excitation_hz=1.9)
            amps.append(heave_amplitude(trace))
            run = simulate_run(config, 3, d, 1, seed=0, duration_s=60.0,
                               with_noise=False)
            shifts.append(abs(run.values[14:17].mean() - base[14:17].mean()))
        assert all(a2 > a1 for a1, a2 in zip(amps, amps[1:]))
        assert all(s2 > s1 for s1, s2 in zip(shifts, shifts[1:]))

    def test_added_mass_class_exceeds_undamaged_and_differs_from_cracks(self, config):
        base, _ = pressure_profiles(config.pressure, config.layout(), 0.0)
        features = {}
        for d in range(6):
            trace = simulate_motion(config.section, config.damage(d), 60.0,
                                    excitation_hz=1.9)
            run = simulate_run(config, 3, d, 1, seed=0, duration_s=60.0,
                               with_noise=False)
            features[d] = (heave_amplitude(trace),
                           abs(run.values[14:17].mean() - base[14:17].mean()))
        # same seed: strictly larger amplitude and leading-edge mean shift
        assert features[5][0] > features[0][0]
        assert features[5][1] > features[0][1]
        # signature differs from every crack class in at least one dimension
        for d in range(5):
            rel = [abs(features[5][i] - features[d][i])
                   / max(abs(features[d][i]), 1e-12) for i in (0, 1)]
            assert max(rel) > 0.05, f"added-mass class too close to crack {d}"

    def test_oscillation_peak_at_excitation_frequency(self, config):
        for ts, f_h in ((1, 1.0), (3, 1.9)):
            run = simulate_run(config, ts, 2, 1, seed=3, duration_s=60.0)
            sig = run.values[15] - run.values[15].mean()
            result = stft(sig, StftSpec.wide())
            dominant = result.freqs[np.argmax(result.magnitude.mean(axis=1))]
            assert abs(dominant - f_h) <= result.spec.freq_resolution

    def test_deterministic(self, config):
        r1 = simulate_run(config, 2, 3, 1, seed=11, duration_s=SHORT)
        r2 = simulate_run(config, 2, 3, 1, seed=11, duration_s=SHORT)
        np.testing.assert_array_equal(r1.values, r2.values)

    def test_decays_to_equilibrium_without_forcing(self, config):
        trace = simulate_motion(
            config.section, config.damage(3), 30.0, excitation=False,
            initial_deviation=np.array([0.05, 0.02, 0.0, 0.0]))
        assert abs(trace.heave[-1]) < 1e-4
        assert abs(trace.twist[-1]) < 1e-4
        assert abs(trace.heave[0]) == 0.05  # started away from equilibrium
        assert trace.equilibrium_heave == config.damage(3).heave_offset_m

    def test_unstable_parameters_reported(self, config):
        bad = replace(config.section, heave_damping=-1.0)
        with pytest.raises((NumericError, ConfigError)):
            simulate_motion(bad, config.damage(0), 5.0)

    def test_metadata_carried(self, config):
        run = simulate_run(config, 6, 4, 2, seed=5, duration_s=20.0)
        assert (run.test_series, run.damage_class, run.run_index) == (6, 4, 2)
        assert run.aoa_deg == 8.0
        assert run.excitation_hz == 1.0
        assert run.wind_speed == 24.0
        assert run.n_channels == 37


class TestPlantedGroundTruth:
    def test_sensitivity_peaks_at_leading_edge_channels(self, config):
        assert set(planted_channels(config)) == {14, 15, 16}

    def test_planted_channels_map_to_leading_edge_ids(self, config):
        layout = config.layout()
        for c in planted_channels(config):
            sensor = layout.id_of_channel(c)
            x, side = layout.chord_position(sensor)
            assert side == "suction"
            assert x < 0.30  # near the leading edge

    def test_dynamics_profile_reverses_information_balance(self):
        static = GeneratorConfig.static_dominant()
        dynamic = GeneratorConfig.dynamics_dominant()

        def class_spread(cfg):
            shifts, amps = [], []
            for d in range(5):
                damage = cfg.damage(d)
                shifts.append(abs(damage.twist_offset_deg))
                trace = simulate_motion(cfg.section, damage, 40.0,
                                        excitation_hz=1.9)
                amps.append(heave_amplitude(trace))
            return max(shifts), max(amps) / max(amps[0], 1e-12)

        static_shift, static_amp_ratio = class_spread(static)
        dyn_shift, dyn_amp_ratio = class_spread(dynamic)
        assert static_shift > 10 * dyn_shift  # statics dominate
        assert dyn_amp_ratio > 2 * static_amp_ratio  # dynamics dominate


class TestCampaign:
    def test_full_grid_counts(self, config):
        campaign = generate_campaign(config, seed=0, duration_s=SHORT)
        assert len(campaign) == 144
        keys = {r.key() for r in campaign.runs}
        assert len(keys) == 144

    def test_aoa_subset(self, config):
        campaign = generate_campaign(config, seed=0, aoa_deg=0.0, duration_s=SHORT)
        assert len(campaign) == 72
        assert all(r.aoa_deg == 0.0 for r in campaign.runs)

    def test_same_seed_bit_identical(self, config):
        c1 = generate_campaign(config, seed=4, aoa_deg=0.0, duration_s=20.0)
        c2 = generate_campaign(config, seed=4, aoa_deg=0.0, duration_s=20.0)
        assert c1.fingerprint() == c2.fingerprint()
        c3 = generate_campaign(config, seed=5, aoa_deg=0.0, duration_s=20.0)
        assert c1.fingerprint() != c3.fingerprint()

    def test_runs_of_same_condition_differ(self, config):
        campaign = generate_campaign(config, seed=0, aoa_deg=0.0, duration_s=20.0)
        r1 = campaign.run(1, 0, 1)
        r2 = campaign.run(1, 0, 2)
        assert not np.array_equal(r1.values, r2.values)

    def test_generator_config_recorded(self, config, tmp_path):
        campaign = generate_campaign(config, seed=0, aoa_deg=0.0, duration_s=20.0)
        save_campaign(campaign, tmp_path / "data")
        stored = json.loads((tmp_path / "data" / "generator_config.json").read_text())
        assert stored["profile"] == "static-dominant"
        reloaded = GeneratorConfig.from_dict(stored)
        assert reloaded.damage_table == config.damage_table

    def test_unknown_series_or_class(self, config):
        with pytest.raises(ConfigError):
            simulate_run(config, 9, 0, 1, seed=0, duration_s=10.0)
        with pytest.raises(ConfigError):
            simulate_run(config, 1, 6, 1, seed=0, duration_s=10.0)


class TestDatasetRoundTrip:
    def test_directory_round_trip_bit_identical(self, config, tmp_path):
        campaign = generate_campaign(config, seed=1, aoa_deg=0.0, duration_s=20.0)
        save_campaign(campaign, tmp_path / "ds")
        loaded = load_campaign(tmp_path / "ds")
        assert loaded.fingerprint() == campaign.fingerprint()

    def test_csv_round_trip_bit_identical(self, config, tmp_path):
        run = simulate_run(config, 1, 2, 3, seed=2, duration_s=10.0)
        export_csv_run(run, tmp_path / "run.csv", tmp_path / "meta.json")
        back = ingest_csv_run(tmp_path / "run.csv", tmp_path / "meta.json")
        np.testing.assert_array_equal(back.values, run.values)
        assert back.key() == run.key()

    def test_missing_sensor_column_named(self, config, tmp_path):
        run = simulate_run(config, 1, 0, 1, seed=0, duration_s=5.0)
        export_csv_run(run, tmp_path / "run.csv", tmp_path / "meta.json")
        lines = (tmp_path / "run.csv").read_text().splitlines()
        header = lines[0].split(",")
        drop = header.index("16")
        rows = [",".join(v for i, v in enumerate(line.split(",")) if i != drop)
                for line in lines]
        (tmp_path / "short.csv").write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError, match="16"):
            ingest_csv_run(tmp_path / "short.csv", tmp_path / "meta.json")

    def test_nan_value_located(self, config, tmp_path):
        run = simulate_run(config, 1, 0, 1, seed=0, duration_s=5.0)
        run.values[4, 17] = np.nan
        export_csv_run(run, tmp_path / "run.csv", tmp_path / "meta.json")
        with pytest.raises(DataError, match="non-finite"):
            ingest_csv_run(tmp_path / "run.csv", tmp_path / "meta.json")

    @pytest.mark.parametrize("manifest", [{}, {"runs": "all"}, {"runs": [{"n_steps": 5}]}, []])
    def test_manifest_without_runs_or_dirs_rejected(self, tmp_path, manifest):
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="runs"):
            load_campaign(tmp_path)

    @staticmethod
    def check_both_loaders_reject(config, tmp_path, edit, word):
        """Pass a saved run's meta.json and an exported CSV sidecar through
        edit(meta); load_campaign and ingest_csv_run must each raise a
        DataError that names word."""
        campaign = generate_campaign(config, seed=1, aoa_deg=0.0, duration_s=5.0)
        save_campaign(campaign, tmp_path / "ds")
        export_csv_run(campaign.runs[0], tmp_path / "run.csv", tmp_path / "meta.json")
        for meta_path in (tmp_path / "meta.json",
                          next((tmp_path / "ds" / "runs").iterdir()) / "meta.json"):
            meta = json.loads(meta_path.read_text())
            edit(meta)
            meta_path.write_text(json.dumps(meta))
        with pytest.raises(DataError, match=word):
            ingest_csv_run(tmp_path / "run.csv", tmp_path / "meta.json")
        with pytest.raises(DataError, match=word):
            load_campaign(tmp_path / "ds")

    def test_missing_metadata_key_named(self, config, tmp_path):
        self.check_both_loaders_reject(config, tmp_path, lambda meta: meta.pop("wind_speed"),
                                       "wind_speed")

    @pytest.mark.parametrize("key,value", [
        ("test_series", True), ("n_channels", None), ("n_steps", 7),
    ], ids=["wrong-type", "null-count", "count-off-the-signals"])
    def test_bad_metadata_value_named(self, config, tmp_path, key, value):
        self.check_both_loaders_reject(config, tmp_path,
                                       lambda meta: meta.update({key: value}), key)
