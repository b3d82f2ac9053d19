"""Physics-inspired surrogate campaign generator.

A 2-DOF (heave y, twist phi) spring-mass-damper section model stands in
for the wind-tunnel recordings. Damage is parameterized per class as a
stiffness reduction plus a static equilibrium shift (downward heave,
twist), with one added-mass class outside the crack progression. The
instantaneous effective angle of attack

    alpha_eff(t) = alpha0 + twist_offset + phi(t) + arctan(ydot(t) / V)

drives a per-sensor pressure-coefficient signal

    p_i(t) = base_i(alpha0) + sens_i * (alpha_eff(t) - alpha0) + noise,

where the AoA-sensitivity profile sens_i peaks at the leading-edge
sensors. That peak is the planted ground truth that attribution analysis
is expected to recover.

All generator coefficients live in GeneratorConfig and are written next
to every generated dataset (generator_config.json) so the planted
structure can be audited. Two stock profiles are provided:

    static-dominant    class information mostly in equilibrium shifts,
                       i.e. in channel means (mean-value reduction keeps
                       most separability, temporal-variations reduction
                       loses it)
    dynamics-dominant  class information mostly in oscillation amplitude
                       and resonance content; the ordering reverses

Vortex shedding is intentionally NOT simulated; spectral scans of
generated data must come back negative at the Strouhal-predicted bands.

The linear ODE is integrated exactly: the sinusoidal tip excitation is
embedded as a harmonic oscillator in an augmented LTI system and the
whole state is propagated by a fixed matrix exponential per 100 Hz step.
Broadband "buffeting" forcing and sensor noise are seeded, so identical
seeds reproduce campaigns bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from scipy.linalg import expm

from .data import Campaign, RawRun, SensorLayout
from .errors import ConfigError, NumericError
from .records import from_json


@dataclass(frozen=True)
class SeriesSpec:
    """The boundary conditions of one test series of the campaign grid."""

    test_series: int
    aoa_deg: float
    excitation_hz: float
    wind_speed: float


GRID_TEST_SERIES = (
    SeriesSpec(1, aoa_deg=0.0, excitation_hz=1.0, wind_speed=12.0),
    SeriesSpec(2, aoa_deg=0.0, excitation_hz=1.0, wind_speed=24.0),
    SeriesSpec(3, aoa_deg=0.0, excitation_hz=1.9, wind_speed=12.0),
    SeriesSpec(4, aoa_deg=0.0, excitation_hz=1.9, wind_speed=24.0),
    SeriesSpec(5, aoa_deg=8.0, excitation_hz=1.0, wind_speed=12.0),
    SeriesSpec(6, aoa_deg=8.0, excitation_hz=1.0, wind_speed=24.0),
    SeriesSpec(7, aoa_deg=8.0, excitation_hz=1.9, wind_speed=12.0),
    SeriesSpec(8, aoa_deg=8.0, excitation_hz=1.9, wind_speed=24.0),
)


@dataclass
class SectionParams:
    """2-DOF section model: masses, stiffnesses, dampers, excitation."""

    mass: float = 2.0  # kg
    heave_stiffness: float = 820.0  # N/m  (heave natural freq ~3.2 Hz)
    heave_damping: float = 2.6  # N s/m
    twist_inertia: float = 0.02  # kg m^2
    twist_stiffness: float = 24.0  # N m/rad  (twist natural freq ~5.5 Hz)
    twist_damping: float = 0.06  # N m s/rad
    excitation_force: float = 6.0  # N, motor-driven tip force amplitude
    excitation_arm: float = 0.008  # m, eccentricity coupling force into twist
    # broadband aerodynamic forcing, kept well below the motor response so
    # the excitation line dominates the spectrum
    buffet_force_std: float = 0.12  # N sqrt(s)

    def validate(self):
        for name in ("mass", "heave_stiffness", "heave_damping",
                     "twist_inertia", "twist_stiffness", "twist_damping"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"section parameter {name} must be > 0")


@dataclass
class DamageSpec:
    """Effect of one structural state on the section model."""

    index: int
    label: str
    stiffness_scale_heave: float = 1.0
    stiffness_scale_twist: float = 1.0
    twist_offset_deg: float = 0.0  # static equilibrium twist
    heave_offset_m: float = 0.0  # static equilibrium sag
    added_mass: float = 0.0  # kg, only nonzero for the mass-attachment class

    def validate(self):
        if not 0.0 < self.stiffness_scale_heave <= 1.0:
            raise ConfigError(f"class {self.index}: heave stiffness scale out of (0, 1]")
        if not 0.0 < self.stiffness_scale_twist <= 1.0:
            raise ConfigError(f"class {self.index}: twist stiffness scale out of (0, 1]")
        if self.added_mass < 0.0:
            raise ConfigError(f"class {self.index}: added mass must be >= 0")


@dataclass
class PressureFieldParams:
    """Chordwise pressure-coefficient model: base profile per AoA plus an
    AoA-sensitivity profile peaking near the leading edge (suction side)."""

    suction_base_scale: float = 0.5
    suction_base_aoa: float = 0.11  # extra suction per degree of AoA
    suction_decay: float = 3.0
    suction_base_offset: float = -0.08
    pressure_base_scale: float = 0.18
    pressure_base_aoa: float = 0.05
    pressure_decay: float = 2.2
    pressure_base_offset: float = 0.02
    suction_sens_peak: float = -0.085  # Cp per degree at the sensitivity peak
    suction_sens_center: float = 0.15  # chord fraction of the peak
    suction_sens_width: float = 0.18
    pressure_sens_peak: float = 0.025
    pressure_sens_center: float = 0.20
    pressure_sens_width: float = 0.25
    noise_std: float = 0.012  # sensor white noise, Cp units


def _default_damage_table_static() -> list[DamageSpec]:
    # Crack classes: mild stiffness loss, pronounced equilibrium shifts.
    cracks = [
        (0, "crack-0%", 1.00, 1.00, 0.00, 0.000),
        (1, "crack-12.5%", 0.97, 0.96, 0.45, -0.004),
        (2, "crack-25%", 0.94, 0.92, 1.00, -0.009),
        (3, "crack-37.5%", 0.91, 0.88, 1.70, -0.016),
        (4, "crack-50%", 0.88, 0.84, 2.60, -0.025),
    ]
    table = [DamageSpec(i, lbl, sy, st, tw, hv) for i, lbl, sy, st, tw, hv in cracks]
    table.append(DamageSpec(5, "added-mass", 1.0, 1.0, 0.70, -0.012, added_mass=0.6))
    return table


def _default_damage_table_dynamics() -> list[DamageSpec]:
    # Crack classes: strong stiffness loss, near-zero equilibrium shifts.
    cracks = [
        (0, "crack-0%", 1.00, 1.00, 0.00, 0.000),
        (1, "crack-12.5%", 0.85, 0.84, 0.02, -0.001),
        (2, "crack-25%", 0.72, 0.70, 0.04, -0.002),
        (3, "crack-37.5%", 0.60, 0.58, 0.06, -0.003),
        (4, "crack-50%", 0.50, 0.48, 0.08, -0.004),
    ]
    table = [DamageSpec(i, lbl, sy, st, tw, hv) for i, lbl, sy, st, tw, hv in cracks]
    table.append(DamageSpec(5, "added-mass", 1.0, 1.0, 0.03, -0.002, added_mass=1.0))
    return table


@dataclass
class GeneratorConfig:
    profile: str = "static-dominant"
    section: SectionParams = field(default_factory=SectionParams)
    damage_table: list[DamageSpec] = field(default_factory=_default_damage_table_static)
    pressure: PressureFieldParams = field(default_factory=PressureFieldParams)
    test_series: list[SeriesSpec] = field(default_factory=lambda: list(GRID_TEST_SERIES))
    sample_rate: float = 100.0
    duration_s: float = 150.0
    quiet_s: float = 15.0  # aerodynamic loading only, before the motor starts
    runs_per_condition: int = 3
    stiffness_jitter: float = 0.02  # run-to-run fractional parameter spread
    damping_jitter: float = 0.05
    force_jitter: float = 0.03
    dead_sensors: tuple[int, ...] = (5, 21, 33)

    @classmethod
    def static_dominant(cls) -> "GeneratorConfig":
        return cls()

    @classmethod
    def dynamics_dominant(cls) -> "GeneratorConfig":
        # stronger buffet: the damage-shifted resonance is itself a feature
        return cls(profile="dynamics-dominant",
                   section=SectionParams(buffet_force_std=0.2),
                   damage_table=_default_damage_table_dynamics())

    @classmethod
    def named_profile(cls, name: str) -> "GeneratorConfig":
        if name == "static-dominant":
            return cls.static_dominant()
        if name == "dynamics-dominant":
            return cls.dynamics_dominant()
        raise ConfigError(f"unknown generator profile {name!r}")

    def layout(self) -> SensorLayout:
        return SensorLayout(dead_sensors=tuple(self.dead_sensors))

    def damage(self, damage_class: int) -> DamageSpec:
        for spec in self.damage_table:
            if spec.index == damage_class:
                return spec
        raise ConfigError(f"no damage class {damage_class} in the table")

    def series(self, test_series: int) -> SeriesSpec:
        for row in self.test_series:
            if row.test_series == test_series:
                return row
        raise ConfigError(f"no test series {test_series} in the grid")

    def validate(self):
        self.section.validate()
        for spec in self.damage_table:
            spec.validate()
        if self.duration_s <= self.quiet_s:
            raise ConfigError("duration must exceed the quiet lead-in")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["dead_sensors"] = list(self.dead_sensors)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorConfig":
        """Inverse of to_dict: every field present and of its declared type."""
        return from_json(cls, d, ConfigError, "generator config")


def pressure_profiles(pressure: PressureFieldParams, layout: SensorLayout,
                      aoa_deg: float) -> tuple[np.ndarray, np.ndarray]:
    """Base Cp profile and AoA sensitivity (Cp per degree) per channel."""
    base = np.empty(layout.n_channels)
    sens = np.empty(layout.n_channels)
    p = pressure
    for c, sensor_id in enumerate(layout.working_ids):
        x, side = layout.chord_position(sensor_id)
        if side == "suction":
            base[c] = -(p.suction_base_scale + p.suction_base_aoa * aoa_deg) \
                * math.exp(-p.suction_decay * x) + p.suction_base_offset
            sens[c] = p.suction_sens_peak * math.exp(
                -((x - p.suction_sens_center) / p.suction_sens_width) ** 2)
        else:
            base[c] = (p.pressure_base_scale + p.pressure_base_aoa * aoa_deg) \
                * math.exp(-p.pressure_decay * x) + p.pressure_base_offset
            sens[c] = p.pressure_sens_peak * math.exp(
                -((x - p.pressure_sens_center) / p.pressure_sens_width) ** 2)
    return base, sens


def planted_channels(config: GeneratorConfig, k: int = 3) -> list[int]:
    """Channels with the largest |AoA sensitivity| — the ground truth that
    attribution analysis should recover."""
    _, sens = pressure_profiles(config.pressure, config.layout(), aoa_deg=0.0)
    return sorted(range(sens.size), key=lambda c: (-abs(sens[c]), c))[:k]


@dataclass
class MotionTrace:
    """Deviations from the damage-dependent equilibrium, sampled at the
    output rate."""

    time: np.ndarray
    heave: np.ndarray
    twist: np.ndarray  # rad
    heave_rate: np.ndarray
    twist_rate: np.ndarray
    equilibrium_heave: float
    equilibrium_twist_deg: float


def _structural_matrix(mass, k_heave, d_heave, inertia, k_twist, d_twist):
    return np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-k_heave / mass, 0.0, -d_heave / mass, 0.0],
        [0.0, -k_twist / inertia, 0.0, -d_twist / inertia],
    ])


def simulate_motion(section: SectionParams, damage: DamageSpec,
                    duration_s: float, sample_rate: float = 100.0,
                    quiet_s: float = 15.0, excitation_hz: float = 1.0,
                    excitation_phase: float = 0.0, excitation: bool = True,
                    buffet_rng: np.random.Generator | None = None,
                    initial_deviation: np.ndarray | None = None) -> MotionTrace:
    """Integrate the damaged 2-DOF model.

    Sinusoidal tip excitation starts after the quiet lead-in; the linear
    dynamics are propagated exactly per step via a matrix exponential of
    the augmented (state + forcing oscillator) system. Optional broadband
    buffet forcing is added as per-step velocity kicks.
    """
    section.validate()
    damage.validate()
    mass = section.mass + damage.added_mass
    k_heave = section.heave_stiffness * damage.stiffness_scale_heave
    k_twist = section.twist_stiffness * damage.stiffness_scale_twist
    a4 = _structural_matrix(mass, k_heave, section.heave_damping,
                            section.twist_inertia, k_twist, section.twist_damping)
    eigs = np.linalg.eigvals(a4)
    if np.max(eigs.real) > 1e-9:
        raise NumericError(
            f"unstable section model (max Re eigenvalue {np.max(eigs.real):.3e})")

    dt = 1.0 / sample_rate
    n = int(round(duration_s * sample_rate))
    k_on = int(round(quiet_s * sample_rate)) if excitation else n

    omega = 2.0 * math.pi * excitation_hz
    a6 = np.zeros((6, 6))
    a6[:4, :4] = a4
    a6[2, 4] = section.excitation_force / mass
    a6[3, 4] = section.excitation_force * section.excitation_arm / section.twist_inertia
    a6[4, 5] = omega
    a6[5, 4] = -omega

    step_quiet = expm(a4 * dt)
    step_forced = expm(a6 * dt)

    if buffet_rng is not None and section.buffet_force_std > 0.0:
        force_noise = buffet_rng.normal(size=n) * section.buffet_force_std * math.sqrt(dt)
        kick_heave = force_noise / mass
        kick_twist = force_noise * section.excitation_arm / section.twist_inertia
    else:
        kick_heave = kick_twist = None

    traj = np.empty((n, 4))
    z = np.zeros(4) if initial_deviation is None else np.asarray(initial_deviation, float).copy()
    for k in range(min(k_on, n)):
        traj[k] = z
        z = step_quiet @ z
        if kick_heave is not None:
            z[2] += kick_heave[k]
            z[3] += kick_twist[k]
    if k_on < n:
        z6 = np.empty(6)
        z6[:4] = z
        z6[4] = math.sin(excitation_phase)
        z6[5] = math.cos(excitation_phase)
        for k in range(k_on, n):
            traj[k] = z6[:4]
            z6 = step_forced @ z6
            if kick_heave is not None:
                z6[2] += kick_heave[k]
                z6[3] += kick_twist[k]

    if not np.isfinite(traj).all():
        raise NumericError("section-model integration produced non-finite state")
    time = np.arange(n) * dt
    return MotionTrace(
        time=time, heave=traj[:, 0], twist=traj[:, 1],
        heave_rate=traj[:, 2], twist_rate=traj[:, 3],
        equilibrium_heave=damage.heave_offset_m,
        equilibrium_twist_deg=damage.twist_offset_deg,
    )


def heave_amplitude(trace: MotionTrace, settle_s: float = 5.0,
                    sample_rate: float = 100.0, quiet_s: float = 15.0) -> float:
    """Steady-state heave oscillation amplitude (sqrt(2) x std of the
    excited portion, after a settling margin)."""
    start = int(round((quiet_s + settle_s) * sample_rate))
    segment = trace.heave[start:]
    return float(np.sqrt(2.0) * segment.std())


def simulate_run(config: GeneratorConfig, test_series: int, damage_class: int,
                 run_index: int, seed: int, duration_s: float | None = None,
                 with_noise: bool = True, with_excitation: bool = True) -> RawRun:
    """One 37-channel pressure recording for a (test series, damage class,
    run) cell of the campaign grid.

    Run-to-run parameter jitter and buffet forcing derive from
    (seed, test_series, run_index) so all damage classes of one run slot
    share the same inflow realization; sensor noise additionally depends
    on the damage class.
    """
    config.validate()
    series = config.series(test_series)
    damage = config.damage(damage_class)
    duration = config.duration_s if duration_s is None else duration_s
    layout = config.layout()

    env_rng = np.random.default_rng(
        np.random.SeedSequence((seed, 211, test_series, run_index)))
    section = config.section
    if with_noise:
        sj, dj, fj = config.stiffness_jitter, config.damping_jitter, config.force_jitter
        section = replace(
            section,
            heave_stiffness=section.heave_stiffness * (1 + env_rng.uniform(-sj, sj)),
            twist_stiffness=section.twist_stiffness * (1 + env_rng.uniform(-sj, sj)),
            heave_damping=section.heave_damping * (1 + env_rng.uniform(-dj, dj)),
            twist_damping=section.twist_damping * (1 + env_rng.uniform(-dj, dj)),
            excitation_force=section.excitation_force * (1 + env_rng.uniform(-fj, fj)),
        )
        phase = env_rng.uniform(0.0, 2.0 * math.pi)
        buffet_rng = env_rng
    else:
        phase = 0.0
        buffet_rng = None

    trace = simulate_motion(
        section, damage, duration, sample_rate=config.sample_rate,
        quiet_s=config.quiet_s, excitation_hz=series.excitation_hz,
        excitation_phase=phase, excitation=with_excitation,
        buffet_rng=buffet_rng)

    base, sens = pressure_profiles(config.pressure, layout, series.aoa_deg)
    alpha_dev_deg = (
        damage.twist_offset_deg
        + np.degrees(trace.twist)
        + np.degrees(np.arctan2(trace.heave_rate, series.wind_speed))
    )
    signals = base[:, None] + sens[:, None] * alpha_dev_deg[None, :]
    if with_noise and config.pressure.noise_std > 0.0:
        noise_rng = np.random.default_rng(
            np.random.SeedSequence((seed, 503, test_series, damage_class, run_index)))
        signals = signals + noise_rng.normal(
            scale=config.pressure.noise_std, size=signals.shape)

    return RawRun(
        values=signals,
        test_series=test_series,
        damage_class=damage_class,
        run_index=run_index,
        aoa_deg=series.aoa_deg,
        excitation_hz=series.excitation_hz,
        wind_speed=series.wind_speed,
        sample_rate=config.sample_rate,
        seed=seed,
    )


def generate_campaign(config: GeneratorConfig, seed: int,
                      aoa_deg: float | None = None,
                      duration_s: float | None = None,
                      with_noise: bool = True) -> Campaign:
    """Simulate the full grid: every test series (optionally one AoA
    subset) x damage class x run index."""
    config.validate()
    series_rows = config.test_series
    if aoa_deg is not None:
        series_rows = [r for r in series_rows if r.aoa_deg == aoa_deg]
        if not series_rows:
            raise ConfigError(f"no test series at AoA {aoa_deg} deg in the grid")
    runs = []
    for row in series_rows:
        for damage in config.damage_table:
            for run_index in range(1, config.runs_per_condition + 1):
                runs.append(simulate_run(
                    config, row.test_series, damage.index, run_index,
                    seed=seed, duration_s=duration_s, with_noise=with_noise))
    return Campaign(runs=runs, layout=config.layout(),
                    generator_config=config.to_dict())
