"""Surrogate generator: planted structure, determinism, campaign grid,
export/ingest round trips, and the thread pool campaign I/O runs on."""

import hashlib
import itertools
import json
import os
import re
import shutil
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import export_csv_run
from scipy.linalg import expm

from aeroshm.data import (
    Campaign,
    ingest_csv_run,
    load_campaign,
    load_run,
    map_runs,
    save_campaign,
    save_run,
)
from aeroshm.errors import ConfigError, DataError, NumericError
from aeroshm.spectra import STFT_PRESETS, stft
from aeroshm.surrogate import (
    MOTION_BLOCK_STEPS,
    PROFILES,
    GeneratorConfig,
    SectionParams,
    generate_campaign,
    planted_channels,
    pressure_profiles,
    simulate_motion,
    simulate_run,
    _THETA13,
    _draw_noise,
    _expm,
    _structural_matrix,
)

SHORT = 55.0  # seconds; enough to trim and window in downstream tests


def heave_amplitude(trace):
    """Steady-state heave oscillation amplitude of a 100 Hz motion trace:
    sqrt(2) x the std of its excited portion, after the 15 s quiet start
    and a 5 s settling margin."""
    return float(np.sqrt(2.0) * trace.heave[(15 + 5) * 100:].std())


@pytest.fixture(scope="module")
def config():
    return PROFILES["static-dominant"]()


def record_draws(monkeypatch, fail=(), delay=0.0):
    """Patch the noise draw to record each call's run key, the thread it
    ran on and whether it ended; each draw first sleeps `delay` seconds,
    and the draws of the keys in `fail` raise."""
    draws = []

    def recorded(config, test_series, damage_class, run_index, *rest):
        draw = SimpleNamespace(key=(test_series, damage_class, run_index),
                               thread=threading.current_thread(), ended=False)
        draws.append(draw)
        try:
            time.sleep(delay)
            if draw.key in fail:
                raise DataError(f"draw {draw.key}")
            return _draw_noise(config, test_series, damage_class, run_index, *rest)
        finally:
            draw.ended = True

    monkeypatch.setattr("aeroshm.surrogate._draw_noise", recorded)
    return draws


class TestSimulateRun:
    def test_undamaged_quiet_run_is_constant_base_profile(self, config):
        # a run that ends with its quiet lead-in: the motor never starts
        run = simulate_run(config, 1, 0, 1, seed=0, duration_s=config.quiet_s,
                           with_noise=False)
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
            result = stft(sig, STFT_PRESETS["wide"])
            dominant = result.freqs[np.argmax(result.magnitude.mean(axis=1))]
            assert abs(dominant - f_h) <= result.spec.freq_resolution

    def test_deterministic(self, config):
        r1 = simulate_run(config, 2, 3, 1, seed=11, duration_s=SHORT)
        r2 = simulate_run(config, 2, 3, 1, seed=11, duration_s=SHORT)
        np.testing.assert_array_equal(r1.values, r2.values)

    def test_decays_to_equilibrium_without_forcing(self, config):
        trace = simulate_motion(
            config.section, config.damage(3), 30.0, quiet_s=30.0,
            initial_deviation=np.array([0.05, 0.02, 0.0, 0.0]))
        assert abs(trace.heave[-1]) < 1e-4
        assert abs(trace.twist[-1]) < 1e-4
        assert abs(trace.heave[0]) == 0.05  # started away from equilibrium
        assert trace.equilibrium_heave == config.damage(3).heave_offset_m

    def test_unstable_parameters_reported(self, config):
        bad = replace(config.section, heave_damping=-1.0)
        with pytest.raises((NumericError, ConfigError)):
            simulate_motion(bad, config.damage(0), 5.0)

    @pytest.mark.parametrize("duration", [-5.0, float("nan"), float("inf")])
    def test_bad_duration_override_rejected(self, config, duration):
        with pytest.raises(ConfigError, match="duration_s"):
            simulate_run(config, 1, 0, 1, seed=0, duration_s=duration)
        with pytest.raises(ConfigError, match="duration_s"):
            generate_campaign(config, seed=0, aoa_deg=0.0, duration_s=duration)
        with pytest.raises(ConfigError, match="duration_s"):
            simulate_motion(config.section, config.damage(0), duration)

    @pytest.mark.parametrize("field,value,edit", [
        ("section.heave_damping", float("nan"),
         lambda c, v: replace(c, section=replace(c.section, heave_damping=v))),
        ("damage_table[2].twist_offset_deg", float("nan"),
         lambda c, v: replace(c, damage_table=[replace(d, twist_offset_deg=v)
                                               if d.index == 2 else d
                                               for d in c.damage_table])),
        ("pressure.noise_std", float("inf"),
         lambda c, v: replace(c, pressure=replace(c.pressure, noise_std=v))),
        ("test_series[5].aoa_deg", float("-inf"),
         lambda c, v: replace(c, test_series=[replace(row, aoa_deg=v)
                                              if row.test_series == 6 else row
                                              for row in c.test_series])),
        ("force_jitter", float("nan"), lambda c, v: replace(c, force_jitter=v)),
    ], ids=["section", "damage-row", "pressure", "test-series", "top-level"])
    def test_non_finite_config_value_rejected_by_name(self, config, field, value, edit):
        bad = edit(config, value)
        message = f"^{re.escape(f'{field} must be finite, got {value}')}$"
        with pytest.raises(ConfigError, match=message):
            bad.validate()
        with pytest.raises(ConfigError, match=message):
            simulate_run(bad, 1, 0, 1, seed=0, duration_s=SHORT)
        with pytest.raises(ConfigError, match=message):
            generate_campaign(bad, seed=0, aoa_deg=0.0, duration_s=SHORT)

    @pytest.mark.parametrize("with_noise", [True, False])
    def test_duration_too_long_to_allocate_rejected(self, config, with_noise):
        # numpy refuses the shape before allocating anything
        with pytest.raises(ConfigError, match=r"duration_s 1e\+300 s is too long"):
            simulate_run(config, 1, 0, 1, seed=0, duration_s=1e300, with_noise=with_noise)

    def test_noise_worker_joined_on_return(self, config, monkeypatch):
        draws = record_draws(monkeypatch)
        before = threading.active_count()
        simulate_run(config, 1, 0, 1, seed=0, duration_s=20.0)
        assert len(draws) == 1 and draws[0].ended and not draws[0].thread.is_alive()
        assert draws[0].thread is not threading.current_thread()
        assert threading.active_count() == before
        simulate_run(config, 1, 0, 1, seed=0, duration_s=20.0, with_noise=False)
        assert len(draws) == 1  # no noise, no draw

    def test_noise_worker_joined_when_the_motion_raises(self, config, monkeypatch):
        draws = record_draws(monkeypatch)

        def unstable(*args, **kwargs):
            raise NumericError("unstable section model")

        monkeypatch.setattr("aeroshm.surrogate.simulate_motion", unstable)
        before = threading.active_count()
        with pytest.raises(NumericError, match="unstable"):
            simulate_run(config, 1, 0, 1, seed=0)  # 150 s: the draw outlasts the motion
        assert len(draws) == 1 and draws[0].ended and not draws[0].thread.is_alive()
        assert threading.active_count() == before

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
        static = PROFILES["static-dominant"]()
        dynamic = PROFILES["dynamics-dominant"]()

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


def step_by_step_motion(section, damage, n, quiet_steps, excitation_hz, phase,
                        buffet_rng, initial_deviation):
    """The recurrence simulate_motion evaluates in blocks, one matrix-vector
    product per sample: the oracle for the blocked evaluation."""
    mass = section.mass + damage.added_mass
    a4 = np.zeros((4, 4))
    a4[0, 2] = a4[1, 3] = 1.0
    a4[2, 0] = -section.heave_stiffness * damage.stiffness_scale_heave / mass
    a4[3, 1] = -section.twist_stiffness * damage.stiffness_scale_twist / section.twist_inertia
    a4[2, 2] = -section.heave_damping / mass
    a4[3, 3] = -section.twist_damping / section.twist_inertia
    omega = 2.0 * np.pi * excitation_hz
    a6 = np.zeros((6, 6))
    a6[:4, :4] = a4
    a6[2, 4] = section.excitation_force / mass
    a6[3, 4] = section.excitation_force * section.excitation_arm / section.twist_inertia
    a6[4, 5], a6[5, 4] = omega, -omega
    dt = 0.01  # simulate_motion's default 100 Hz
    step_quiet, step_forced = expm(a4 * dt), expm(a6 * dt)
    kicks = np.zeros((n, 2))
    if buffet_rng is not None and section.buffet_force_std > 0.0:
        force = buffet_rng.normal(size=n) * section.buffet_force_std * np.sqrt(dt)
        kicks[:, 0] = force / mass
        kicks[:, 1] = force * section.excitation_arm / section.twist_inertia
    traj = np.empty((n, 4))
    z = np.zeros(6)
    if initial_deviation is not None:
        z[:4] = initial_deviation
    for k in range(n):
        if k == quiet_steps:
            z[4:] = np.sin(phase), np.cos(phase)
        traj[k] = z[:4]
        if k < quiet_steps:
            z[:4] = step_quiet @ z[:4]
        else:
            z = step_forced @ z
        z[2:4] += kicks[k]
    return traj


BLOCK = MOTION_BLOCK_STEPS
ORACLE_CASES = {  # id: (steps, quiet steps, options)
    "shorter-than-a-block": (BLOCK - 1, 10, {}),
    "one-block": (BLOCK, 10, {}),
    "block-plus-one": (BLOCK + 1, 10, {}),
    "two-blocks": (2 * BLOCK, 10, {}),
    "no-quiet-lead-in": (3 * BLOCK + 7, 0, {}),
    "no-excitation": (2 * BLOCK + 5, 2 * BLOCK + 5, {}),  # lead-in to the end
    "onset-inside-a-block": (4 * BLOCK + 11, BLOCK + 3, {}),
    "no-buffet-rng": (3 * BLOCK, 50, {"rng": False}),
    "zero-buffet": (3 * BLOCK, 50, {"buffet_force_std": 0.0}),
    "initial-deviation": (3 * BLOCK, 50, {"initial": [0.01, -0.02, 0.3, -0.5]}),
    "paper-run": (15000, 1500, {}),
}


class TestBlockedPropagation:
    @pytest.mark.parametrize("case", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
    def test_matches_the_step_by_step_recurrence(self, config, case):
        n, quiet_steps, options = case
        section = replace(config.section,
                          buffet_force_std=options.get("buffet_force_std", 0.2))
        damage = config.damage(3)
        initial = options.get("initial")
        rngs = [np.random.default_rng(17) if options.get("rng", True) else None
                for _ in range(2)]
        trace = simulate_motion(
            section, damage, n / 100.0, quiet_s=quiet_steps / 100.0,
            excitation_hz=1.9, excitation_phase=0.7, buffet_rng=rngs[0],
            initial_deviation=None if initial is None else np.array(initial))
        blocked = np.stack([trace.heave, trace.twist, trace.heave_rate, trace.twist_rate],
                           axis=1)
        expected = step_by_step_motion(
            section, damage, n, quiet_steps, 1.9, 0.7,
            rngs[1], initial)
        assert blocked.shape == expected.shape == (n, 4)
        for c in range(4):
            scale = np.abs(expected[:, c]).max()
            np.testing.assert_allclose(blocked[:, c], expected[:, c], rtol=0,
                                       atol=1e-12 * scale)
        if initial is not None:
            np.testing.assert_array_equal(blocked[0], initial)

    def test_rejects_a_negative_lead_in(self, config):
        with pytest.raises(ConfigError):
            simulate_motion(config.section, config.damage(0), 5.0, quiet_s=-1.0)


def step_generators(monkeypatch, sample_rate):
    """Every matrix simulate_run hands to the exponential over the grid of
    both profiles (all series and classes, runs 1 and 2, so with jittered
    sections), at the given sample rate: each is A * dt."""
    seen = []

    def recording(a):
        seen.append(a.copy())
        return _expm(a)

    monkeypatch.setattr("aeroshm.surrogate._expm", recording)
    for config in (profile() for profile in PROFILES.values()):
        config = replace(config, sample_rate=sample_rate, quiet_s=1.0, duration_s=2.0)
        for series in config.test_series:
            for damage in config.damage_table:
                for run_index in (1, 2):
                    simulate_run(config, series.test_series, damage.index, run_index, seed=3)
    assert len(seen) == 2 * 8 * 6 * 2 * 2
    return seen


def assert_close_to_scipy(matrices, rtol):
    # scipy first, then _expm: interleaved with numpy's BLAS calls, each
    # scipy call took some 7 ms instead of 20 us
    expected = [expm(a) for a in matrices]
    for a, want in zip(matrices, expected):
        np.testing.assert_allclose(_expm(a), want, rtol=0, atol=rtol * np.abs(want).max())


class TestExpm:
    """The Pade exponential against scipy.linalg.expm, within rtol of each
    result's largest entry. Measured worst: 5.5e-16 at the 100 Hz grid."""

    def test_every_step_matrix_of_the_grid(self, monkeypatch):
        assert_close_to_scipy(step_generators(monkeypatch, 100.0), rtol=1e-14)

    def test_norms_above_a_thousand_take_many_squarings(self, monkeypatch):
        # at 1 Hz ||A dt||_1 reaches 1222 and s is 3 or 4. The two differ by
        # up to 5.6e-14 here, since against a 50-digit reference (mpmath)
        # scipy errs by up to 4.9e-14 and _expm by 4.2e-14.
        matrices = step_generators(monkeypatch, 1.0)
        assert max(np.abs(a).sum(axis=0).max() for a in matrices) > 1e3
        assert_close_to_scipy(matrices, rtol=2e-13)

    def test_norm_below_theta_takes_no_squaring(self):
        a = _structural_matrix(2.0, 820.0, 2.6, 0.02, 24.0, 0.06) / 1000.0
        assert np.abs(a).sum(axis=0).max() < _THETA13
        assert_close_to_scipy([a], rtol=1e-14)

    @pytest.mark.parametrize("d", [4, 6])
    def test_zero_matrix_gives_the_identity_exactly(self, d):
        np.testing.assert_array_equal(_expm(np.zeros((d, d))), np.eye(d))


class TestSteadyState:
    """Physics, checked against neither implementation: without buffet, the
    settled response of each decoupled DOF to F sin(w t) is a sinusoid of
    amplitude (F / m) / sqrt((k / m - w^2)^2 + (c w / m)^2)."""

    @pytest.mark.parametrize("damage_class", [0, 5])
    @pytest.mark.parametrize("hz", [1.0, 1.9])
    def test_settled_amplitude_matches_the_analytic_one(self, config, damage_class, hz):
        section, damage = config.section, config.damage(damage_class)
        trace = simulate_motion(section, damage, 60.0, quiet_s=15.0, excitation_hz=hz,
                                excitation_phase=0.4, buffet_rng=None)
        settled = trace.time >= 45.0  # 30 s after onset: transients below 1e-8
        w = 2.0 * np.pi * hz
        t = trace.time[settled]
        basis = np.stack([np.sin(w * t), np.cos(w * t), np.ones_like(t)], axis=1)
        force = section.excitation_force
        mass = section.mass + damage.added_mass
        dofs = [  # (response, force / inertia, stiffness / inertia, damping / inertia)
            (trace.heave, force / mass,
             section.heave_stiffness * damage.stiffness_scale_heave / mass,
             section.heave_damping / mass),
            (trace.twist, force * section.excitation_arm / section.twist_inertia,
             section.twist_stiffness * damage.stiffness_scale_twist / section.twist_inertia,
             section.twist_damping / section.twist_inertia),
        ]
        for response, f, k, c in dofs:
            coef, *_ = np.linalg.lstsq(basis, response[settled], rcond=None)
            analytic = f / np.hypot(k - w ** 2, c * w)
            assert np.hypot(coef[0], coef[1]) == pytest.approx(analytic, rel=1e-6)
            assert abs(coef[2]) < 1e-6 * analytic


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

    # Campaign.fingerprint at commit 446ac72: any change to the noise or
    # motion arithmetic, or to the seeds and draw order, shows here. The
    # motion's products go through BLAS, so the pins hold for one numpy and
    # OpenBLAS build (numpy 2.4.6, OpenBLAS 0.3.31, x86_64)
    PINNED = {
        "static-aoa0-seed3": (
            PROFILES["static-dominant"], 0.0, 3, True,
            "2fa6ea5dfecef58dcf709192a224edd8f8ec49cbc9997c411352733d80d0d00f"),
        "dynamics-aoa8-seed11": (
            PROFILES["dynamics-dominant"], 8.0, 11, True,
            "934812e6e59905dcb177d8b0f8b9ac4e29096234a024cb242cef5b13df516d2e"),
        "static-aoa0-seed3-noiseless": (
            PROFILES["static-dominant"], 0.0, 3, False,
            "90a523d721d4031373b38f653c70ca825b27e73aa13e939be013e64c94ce2ea6"),
    }

    @pytest.mark.parametrize("case", PINNED.values(), ids=PINNED.keys())
    def test_fingerprint_pinned(self, case):
        profile, aoa, seed, with_noise, expected = case
        campaign = generate_campaign(profile(), seed=seed, aoa_deg=aoa, duration_s=30.0,
                                     with_noise=with_noise)
        assert campaign.fingerprint() == expected

    def test_heave_offset_reaches_no_pressure_channel(self, config):
        """The equilibrium sag is recorded, not simulated: scaling and
        shifting every class's heave_offset_m leaves the campaign's bits
        as they are."""
        one_series = replace(config, test_series=config.test_series[:1])
        sagged = replace(one_series, damage_table=[
            replace(d, heave_offset_m=50 * d.heave_offset_m - 0.3)
            for d in one_series.damage_table])
        stock = generate_campaign(one_series, seed=0, aoa_deg=0.0, duration_s=60.0)
        assert generate_campaign(sagged, seed=0, aoa_deg=0.0,
                                 duration_s=60.0).fingerprint() == stock.fingerprint()

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


class TestCampaignNoiseDraws:
    """generate_campaign queues every run's noise draw, ahead of the runs'
    motion, on a pool of its own."""

    SECONDS = 5.0
    GRID = [(ts, d, r) for ts in (1, 2, 3, 4) for d in range(6) for r in (1, 2, 3)]  # AoA 0

    @pytest.mark.parametrize("with_noise", [True, False], ids=["noisy", "noiseless"])
    @pytest.mark.parametrize("profile", PROFILES)
    def test_every_run_equals_simulate_run_alone(self, profile, with_noise):
        config = PROFILES[profile]()
        campaign = generate_campaign(config, seed=6, duration_s=self.SECONDS,
                                     with_noise=with_noise)
        assert len(campaign) == 144
        for run in campaign.runs:
            alone = simulate_run(config, *run.key(), seed=6, duration_s=self.SECONDS,
                                 with_noise=with_noise)
            assert alone.meta_dict() == run.meta_dict()
            assert alone.values.tobytes() == run.values.tobytes()

    def test_no_pool_thread_outlives_the_campaign(self, config, monkeypatch):
        draws = record_draws(monkeypatch)
        before = threading.active_count()
        campaign = generate_campaign(config, seed=0, aoa_deg=0.0, duration_s=self.SECONDS)
        assert sorted(d.key for d in draws) == [r.key() for r in campaign.runs] == self.GRID
        assert all(d.ended and not d.thread.is_alive() for d in draws)
        assert threading.active_count() == before
        generate_campaign(config, seed=0, aoa_deg=0.0, duration_s=self.SECONDS,
                          with_noise=False)
        assert len(draws) == len(self.GRID)  # no noise, no draw
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", ["motion", "draw"])
    @pytest.mark.parametrize("k", [0, 1, 40])
    def test_first_error_in_grid_order_raised_after_every_draw(self, config, monkeypatch,
                                                               failing, k):
        """Run k fails in its motion or its draw, and every later run's
        draw fails too: run k's error is the one raised, once every draw
        that started has ended."""
        fail = set(self.GRID[k + 1:])
        if failing == "draw":
            fail.add(self.GRID[k])
            expected = DataError, f"draw {self.GRID[k]}"
        else:
            calls = itertools.count()
            motion = simulate_motion

            def motion_failing_at_k(*args, **kwargs):
                if next(calls) == k:
                    raise NumericError(f"motion of run {k}")
                return motion(*args, **kwargs)

            monkeypatch.setattr("aeroshm.surrogate.simulate_motion", motion_failing_at_k)
            expected = NumericError, f"motion of run {k}"
        draws = record_draws(monkeypatch, fail=fail)
        before = threading.active_count()
        with pytest.raises(expected[0], match=f"^{re.escape(expected[1])}$"):
            generate_campaign(config, seed=0, aoa_deg=0.0, duration_s=self.SECONDS)
        assert self.GRID[k] in {d.key for d in draws}
        assert all(d.ended and not d.thread.is_alive() for d in draws)
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_every_draw_runs_on_a_pool_of_one_thread_per_cpu(self, config, monkeypatch,
                                                             cpus):
        """Every run's draw starts, no more draws run at once than the pool
        has threads, and the bits do not depend on the thread count."""
        stock = generate_campaign(config, seed=3, aoa_deg=0.0, duration_s=self.SECONDS)
        monkeypatch.setattr("aeroshm.data.usable_cpus", lambda: cpus)
        started, running, concurrency = [], set(), []
        lock = threading.Lock()

        def counted_draw(config, *key_and_rest):
            key = key_and_rest[:3]
            with lock:
                started.append(key)
                running.add(key)
                concurrency.append(len(running))
            try:
                return _draw_noise(config, *key_and_rest)
            finally:
                with lock:
                    running.remove(key)

        monkeypatch.setattr("aeroshm.surrogate._draw_noise", counted_draw)
        campaign = generate_campaign(config, seed=3, aoa_deg=0.0, duration_s=self.SECONDS)
        assert sorted(started) == self.GRID
        assert max(concurrency) <= cpus
        assert campaign.fingerprint() == stock.fingerprint()

    def test_queued_draws_cancelled_when_the_first_run_fails(self, config, monkeypatch):
        """Draws are slow and run 0's motion fails: the draws still queued
        never start, so no more start than the pool has threads, and the
        ones that did have ended with their threads before the error is
        raised."""
        monkeypatch.setattr("aeroshm.data.usable_cpus", lambda: 2)
        draws = record_draws(monkeypatch, delay=0.2)

        def unstable(*args, **kwargs):
            raise NumericError("unstable section model")

        monkeypatch.setattr("aeroshm.surrogate.simulate_motion", unstable)
        before = threading.active_count()
        with pytest.raises(NumericError, match="unstable"):
            generate_campaign(config, seed=0, aoa_deg=0.0, duration_s=self.SECONDS)
        assert len(draws) <= 2
        assert all(d.ended and not d.thread.is_alive() for d in draws)
        assert threading.active_count() == before


class TestDatasetRoundTrip:
    def test_directory_round_trip_bit_identical(self, config, tmp_path):
        campaign = generate_campaign(config, seed=1, aoa_deg=0.0, duration_s=20.0)
        save_campaign(campaign, tmp_path / "ds")
        loaded = load_campaign(tmp_path / "ds")
        assert loaded.fingerprint() == campaign.fingerprint()

    def test_run_io_matches_the_copying_formula(self, config, tmp_path):
        """The fingerprint hashes each run's array buffer and save_run writes
        it: both equal the tobytes() copy they replaced, bit for bit."""
        campaign = generate_campaign(config, seed=2, aoa_deg=0.0, duration_s=2.0)
        campaign.runs[1].values = np.asfortranarray(campaign.runs[1].values)
        h = hashlib.sha256()
        for r in sorted(campaign.runs, key=lambda r: r.key()):
            h.update(json.dumps(r.meta_dict(), sort_keys=True).encode())
            h.update(np.ascontiguousarray(r.values, dtype="<f8").tobytes())
        assert campaign.fingerprint() == h.hexdigest()
        for i, run in enumerate(campaign.runs[:2]):
            save_run(run, tmp_path / str(i))
            stored = (tmp_path / str(i) / "signals.bin").read_bytes()
            assert stored == np.ascontiguousarray(run.values, dtype="<f8").tobytes()
            back = load_run(tmp_path / str(i))
            np.testing.assert_array_equal(back.values, run.values)
            assert back.values.flags.writeable

    def test_first_corrupt_run_in_manifest_order_reported(self, config, tmp_path):
        campaign = generate_campaign(config, seed=1, aoa_deg=0.0, duration_s=2.0)
        save_campaign(campaign, tmp_path / "ds")
        dirs = [tmp_path / "ds" / e["dir"] for e in
                json.loads((tmp_path / "ds" / "manifest.json").read_text())["runs"]]
        for run_dir in (dirs[7], dirs[3]):
            with open(run_dir / "signals.bin", "ab") as fh:
                fh.write(b"\0" * 4)
        with pytest.raises(DataError) as first:
            load_run(dirs[3])
        with pytest.raises(DataError) as raised:
            load_campaign(tmp_path / "ds")
        assert str(raised.value) == str(first.value)

    def test_pool_threads_end_with_each_call(self, config, tmp_path):
        campaign = generate_campaign(config, seed=1, aoa_deg=0.0, duration_s=2.0)
        before = threading.active_count()
        save_campaign(campaign, tmp_path / "ds")
        assert threading.active_count() == before
        load_campaign(tmp_path / "ds")
        assert threading.active_count() == before
        (tmp_path / "ds" / "runs" / "ts1_d2_r2" / "signals.bin").unlink()
        with pytest.raises(DataError, match="missing signal file"):
            load_campaign(tmp_path / "ds")
        assert threading.active_count() == before
        # a file where a run's directory belongs
        (tmp_path / "bad" / "runs").mkdir(parents=True)
        (tmp_path / "bad" / "runs" / "ts1_d2_r2").write_text("")
        with pytest.raises(FileExistsError):
            save_campaign(campaign, tmp_path / "bad")
        assert threading.active_count() == before

    def test_partial_trailing_value_rejected(self, config, tmp_path):
        save_run(simulate_run(config, 1, 0, 1, seed=0, duration_s=1.0), tmp_path)
        with open(tmp_path / "signals.bin", "ab") as fh:
            fh.write(b"\0" * 4)
        with pytest.raises(DataError, match="bytes"):
            load_run(tmp_path)

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

    @pytest.mark.parametrize("edit,key", [
        (lambda meta: meta.update(test_series=True), "test_series"),
        (lambda meta: meta.update(n_channels=None), "n_channels"),
        (lambda meta: meta.update(n_steps=7), "n_steps"),
        # the product still equals the value count of the signals
        (lambda meta: meta.update(n_channels=-1,
                                  n_steps=-meta["n_channels"] * meta["n_steps"]),
         "n_channels"),
        (lambda meta: meta.update(damage_class=6), "damage_class"),
        (lambda meta: meta.update(damage_class=-1), "damage_class"),
        (lambda meta: meta.update(sample_rate=0.0), "sample_rate"),
        (lambda meta: meta.update(sample_rate=float("nan")), "sample_rate"),
        (lambda meta: meta.update(sample_rate=float("inf")), "sample_rate"),
    ], ids=["wrong-type", "null-count", "count-off-the-signals", "negative-counts",
            "damage-class-6", "negative-damage-class", "zero-sample-rate", "nan-sample-rate",
            "infinite-sample-rate"])
    def test_bad_metadata_value_named(self, config, tmp_path, edit, key):
        self.check_both_loaders_reject(config, tmp_path, edit, key)

    @pytest.mark.parametrize("change,message", [
        ({"damage_class": 7}, "run (1, 7, 2) field damage_class must be in 0..5, got 7"),
        ({"sample_rate": 0.0},
         "run (1, 0, 2) field sample_rate must be positive and finite, got 0.0"),
    ], ids=["damage-class-7", "zero-sample-rate"])
    def test_save_refuses_what_load_would_refuse(self, config, tmp_path, change, message):
        """Before it writes anything, naming the first bad run in key order."""
        runs = [simulate_run(config, 1, 0, r, seed=0, duration_s=2.0) for r in (3, 2, 1)]
        runs[:2] = [replace(run, **change) for run in runs[:2]]
        with pytest.raises(DataError, match=re.escape(message)):
            save_campaign(Campaign(runs=runs), tmp_path / "ds")
        assert not (tmp_path / "ds").exists()

    def test_save_refuses_a_repeated_run_key_before_writing(self, config, tmp_path):
        runs = [simulate_run(config, 1, 0, r, seed=0, duration_s=2.0) for r in (1, 2)]
        with pytest.raises(DataError, match="campaign repeats run ts1_d0_r2"):
            save_campaign(Campaign(runs=[runs[1], *runs]), tmp_path / "ds")
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("copy", [False, True], ids=["same-dir", "copied-dir"])
    def test_load_refuses_a_repeated_run(self, config, tmp_path, monkeypatch, copy):
        """A manifest that lists a run's directory twice, refused before any
        run is read; or a copy of it under another directory, refused once
        read."""
        ds = tmp_path / "ds"
        save_campaign(Campaign(runs=[simulate_run(config, 1, 0, r, seed=0, duration_s=2.0)
                                     for r in (1, 2)]), ds)
        manifest = json.loads((ds / "manifest.json").read_text())
        entry = dict(manifest["runs"][0])
        if copy:
            shutil.copytree(ds / entry["dir"], ds / "runs" / "copy")
            entry["dir"] = "runs/copy"
        manifest["runs"].append(entry)
        manifest["n_runs"] += 1
        (ds / "manifest.json").write_text(json.dumps(manifest))
        read = []
        monkeypatch.setattr("aeroshm.data.load_run",
                            lambda run_dir: read.append(run_dir) or load_run(run_dir))
        repeated = "ts1_d0_r1" if copy else "runs/ts1_d0_r1"
        with pytest.raises(DataError, match=f"repeats run {repeated}$"):
            load_campaign(ds)
        assert len(read) == (3 if copy else 0)


    @pytest.mark.parametrize("edit,message", [
        (lambda m: m.update(format_version=9, n_runs=73),
         "key format_version must be 1, got 9"),
        (lambda m: m.pop("format_version"), "key format_version must be 1, got None"),
        (lambda m: m.update(format_version=True), "key format_version must be 1, got True"),
        (lambda m: m.update(n_runs=73), "key n_runs must be 2, got 73"),
        (lambda m: m.update(n_runs="2"), "key n_runs must be 2, got '2'"),
    ], ids=["version-9", "no-version", "version-true", "n-runs-73", "n-runs-string"])
    def test_load_refuses_a_manifest_of_another_version_or_count(
            self, config, tmp_path, monkeypatch, edit, message):
        """Refused before any run is read, naming the key."""
        ds = tmp_path / "ds"
        save_campaign(Campaign(runs=[simulate_run(config, 1, 0, r, seed=0, duration_s=2.0)
                                     for r in (1, 2)]), ds)
        manifest = json.loads((ds / "manifest.json").read_text())
        edit(manifest)
        (ds / "manifest.json").write_text(json.dumps(manifest))
        read = []
        monkeypatch.setattr("aeroshm.data.load_run",
                            lambda run_dir: read.append(run_dir) or load_run(run_dir))
        with pytest.raises(DataError, match=f"{re.escape(message)}$"):
            load_campaign(ds)
        assert read == []


class TestMapRuns:
    def test_results_in_input_order(self):
        # later items finish first
        assert map_runs(lambda i: time.sleep(0.01 * (4 - i)) or i * i, range(5)) == \
            [0, 1, 4, 9, 16]
        assert map_runs(abs, []) == []

    def test_first_exception_in_input_order_after_every_call(self):
        done = []

        def call(i):
            if i in (1, 3):
                time.sleep(0.05 if i == 1 else 0.0)  # item 3 fails first in time
                raise ValueError(f"item {i}")
            done.append(i)

        before = threading.active_count()
        with pytest.raises(ValueError, match="item 1"):
            map_runs(call, range(6))
        assert sorted(done) == [0, 2, 4, 5]
        assert threading.active_count() == before

    def test_one_thread_per_usable_cpu_at_most(self):
        def thread_name(i):
            time.sleep(0.01)  # busy, so that the pool would start another thread
            return threading.current_thread().name

        names = map_runs(thread_name, range(16))
        assert threading.current_thread().name not in names
        assert len(set(names)) <= len(os.sched_getaffinity(0))
        assert len(set(map_runs(thread_name, [0]))) == 1
