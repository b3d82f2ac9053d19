"""Physics-inspired surrogate campaign generator.

A 2-DOF (heave y, twist phi) spring-mass-damper section model stands in
for the wind-tunnel recordings. Damage is parameterized per class as a
stiffness reduction plus a static equilibrium twist, with one added-mass
class outside the crack progression. Each class also gives a downward
equilibrium heave (sag, `DamageSpec.heave_offset_m`), which is kept in
the damage table and the written generator config but does not enter the
pressure model: the heave reaches the effective angle of attack only
through its rate.
The instantaneous effective angle of attack

    alpha_eff(t) = alpha0 + twist_offset + phi(t) + arctan(ydot(t) / V)

drives a per-sensor pressure-coefficient signal

    p_i(t) = base_i(alpha0) + sens_i * (alpha_eff(t) - alpha0) + noise,

where the AoA-sensitivity profile sens_i peaks at the leading-edge
sensors. That peak is the planted ground truth that attribution analysis
is expected to recover.

All generator coefficients live in GeneratorConfig and are written next
to every generated dataset (generator_config.json) so the planted
structure can be audited. PROFILES holds the two stock profiles, each
with its own damage table (`_damage_table` rows):

    static-dominant    class information mostly in equilibrium shifts,
                       i.e. in channel means (mean-value reduction keeps
                       most separability, temporal-variations reduction
                       loses it)
    dynamics-dominant  class information mostly in oscillation amplitude
                       and resonance content; the ordering reverses

Vortex shedding is intentionally NOT simulated; spectral scans of
generated data must come back negative at the Strouhal-predicted bands.

The linear ODE is integrated exactly: the sinusoidal tip excitation is
embedded as a harmonic oscillator in an augmented LTI system, and one
sample step is the fixed matrix exponential S of that system over the
sample period, plus a velocity kick from the buffet forcing. S is the
degree-13 Pade approximant with scaling and squaring, in numpy (`_expm`;
Higham 2005, with the scaling of Al-Mohy & Higham 2009). That
recurrence z_(k+1) = S z_k + kick_k is evaluated in blocks of
MOTION_BLOCK_STEPS samples that all take their steps at once, with only
the block start states carried one block at a time: about
2 * MOTION_BLOCK_STEPS + n / MOTION_BLOCK_STEPS Python steps for n
samples, not n (`_propagate`). Broadband "buffeting" forcing and sensor
noise are seeded, so identical seeds reproduce campaigns bit-exactly.

A run's sensor noise is drawn on a pool thread (`_draw_noise`) while its
motion integrates on the calling thread: `standard_normal(out=...)` and
the scaling by noise_std run with the GIL released, so on two cores the
two overlap. A lone `simulate_run` draws on a pool of its own. A draw
takes longer than a motion, so `generate_campaign` queues every run's
draw on one pool up front: later runs' draws overlap earlier runs'
motion. Each run's noise has its own seed, so the order in which the
draws run changes no bit.
"""

from __future__ import annotations

import math
from concurrent.futures import Future
from dataclasses import asdict, dataclass, field, is_dataclass, replace

import numpy as np

from .data import DEFAULT_DEAD_SENSORS, N_DAMAGE_CLASSES, Campaign, RawRun, SensorLayout, run_pool
from .errors import ConfigError, NumericError
from .records import from_json


@dataclass(frozen=True)
class SeriesSpec:
    """The boundary conditions of one test series of the campaign grid."""

    test_series: int
    aoa_deg: float
    excitation_hz: float
    wind_speed: float

    def validate(self):
        # the AoA change is arctan2(heave_rate, wind_speed): at zero wind
        # every heave rate would swing it by 90 degrees
        for name in ("excitation_hz", "wind_speed"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"test series {self.test_series}: {name} must be > 0, "
                                  f"got {getattr(self, name)}")


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
        if not self.buffet_force_std >= 0.0:
            raise ConfigError("section parameter buffet_force_std must be >= 0")


@dataclass
class DamageSpec:
    """Effect of one structural state on the section model."""

    index: int
    label: str
    stiffness_scale_heave: float = 1.0
    stiffness_scale_twist: float = 1.0
    twist_offset_deg: float = 0.0  # static equilibrium twist
    heave_offset_m: float = 0.0  # equilibrium sag: recorded, not in any pressure channel
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


_DAMAGE_LABELS = ("crack-0%", "crack-12.5%", "crack-25%", "crack-37.5%", "crack-50%",
                 "added-mass")


def _damage_table(rows) -> list[DamageSpec]:
    """Classes 0..5, labelled _DAMAGE_LABELS, from one (heave stiffness
    scale, twist stiffness scale, twist offset deg, heave offset m, added
    mass kg) row each."""
    return [DamageSpec(i, label, *row)
            for i, (label, row) in enumerate(zip(_DAMAGE_LABELS, rows))]


# Crack classes: mild stiffness loss, pronounced equilibrium shifts.
_STATIC_DAMAGE = (
    (1.00, 1.00, 0.00, 0.000, 0.0),
    (0.97, 0.96, 0.45, -0.004, 0.0),
    (0.94, 0.92, 1.00, -0.009, 0.0),
    (0.91, 0.88, 1.70, -0.016, 0.0),
    (0.88, 0.84, 2.60, -0.025, 0.0),
    (1.0, 1.0, 0.70, -0.012, 0.6),
)
# Crack classes: strong stiffness loss, near-zero equilibrium shifts.
_DYNAMICS_DAMAGE = (
    (1.00, 1.00, 0.00, 0.000, 0.0),
    (0.85, 0.84, 0.02, -0.001, 0.0),
    (0.72, 0.70, 0.04, -0.002, 0.0),
    (0.60, 0.58, 0.06, -0.003, 0.0),
    (0.50, 0.48, 0.08, -0.004, 0.0),
    (1.0, 1.0, 0.03, -0.002, 1.0),
)


@dataclass
class GeneratorConfig:
    profile: str = "static-dominant"
    section: SectionParams = field(default_factory=SectionParams)
    damage_table: list[DamageSpec] = field(default_factory=lambda: _damage_table(_STATIC_DAMAGE))
    pressure: PressureFieldParams = field(default_factory=PressureFieldParams)
    test_series: list[SeriesSpec] = field(default_factory=lambda: list(GRID_TEST_SERIES))
    sample_rate: float = 100.0
    duration_s: float = 150.0
    quiet_s: float = 15.0  # aerodynamic loading only, before the motor starts
    runs_per_condition: int = 3
    stiffness_jitter: float = 0.02  # run-to-run fractional parameter spread
    damping_jitter: float = 0.05
    force_jitter: float = 0.03
    dead_sensors: tuple[int, ...] = DEFAULT_DEAD_SENSORS

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
        _refuse_non_finite(self, "")
        self.section.validate()
        for spec in self.damage_table:
            spec.validate()
        # a repeated index would give two runs one key, and one run directory
        indices = [spec.index for spec in self.damage_table]
        if not indices or len(set(indices)) != len(indices):
            raise ConfigError(f"damage_table needs distinct class indices, got {indices}")
        if not all(0 <= index < N_DAMAGE_CLASSES for index in indices):
            raise ConfigError(f"damage_table indices must lie in 0..{N_DAMAGE_CLASSES - 1}, "
                              f"got {indices}")
        numbers = [row.test_series for row in self.test_series]
        if not numbers or len(set(numbers)) != len(numbers):
            raise ConfigError(f"test_series needs distinct series numbers, got {numbers}")
        for row in self.test_series:
            row.validate()
        self.layout().check(ConfigError, "generator config")
        if not 0.0 < self.sample_rate < math.inf:
            raise ConfigError(f"sample_rate must be > 0, got {self.sample_rate}")
        if not 0.0 <= self.quiet_s < math.inf:
            raise ConfigError(f"quiet_s must be >= 0, got {self.quiet_s}")
        if not self.quiet_s < self.duration_s < math.inf:
            raise ConfigError("duration must exceed the quiet lead-in")
        if self.runs_per_condition < 1:
            raise ConfigError(
                f"runs_per_condition must be >= 1, got {self.runs_per_condition}")
        if not self.pressure.noise_std >= 0.0:
            raise ConfigError("pressure.noise_std must be >= 0")
        for name in ("stiffness_jitter", "damping_jitter", "force_jitter"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["dead_sensors"] = list(self.dead_sensors)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorConfig":
        """Inverse of to_dict: every field present and of its declared type."""
        return from_json(cls, d, ConfigError, "generator config")


def _refuse_non_finite(value, path: str) -> None:
    """Raise a ConfigError naming the first NaN or infinite float in value,
    a config dataclass or list nested to any depth, that path names."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConfigError(f"{path} must be finite, got {value}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _refuse_non_finite(item, f"{path}[{i}]")
    elif is_dataclass(value):
        for name, item in vars(value).items():
            _refuse_non_finite(item, f"{path}.{name}" if path else name)


# The stock profiles by name, each a function giving a fresh config.
PROFILES = {
    "static-dominant": GeneratorConfig,
    # stronger buffet: the damage-shifted resonance is itself a feature
    "dynamics-dominant": lambda: GeneratorConfig(
        profile="dynamics-dominant", section=SectionParams(buffet_force_std=0.2),
        damage_table=_damage_table(_DYNAMICS_DAMAGE)),
}


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


def _structural_matrix(mass, k_heave, d_heave, inertia, k_twist, d_twist):
    return np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-k_heave / mass, 0.0, -d_heave / mass, 0.0],
        [0.0, -k_twist / inertia, 0.0, -d_twist / inertia],
    ])


# Coefficients of the degree-13 Pade approximant to exp, b_k / b_0 for
# Higham's b_0 .. b_13 (so the constant term is exactly 1), and the largest
# scaled norm for which it is accurate to double precision (Higham 2005,
# SIAM J. Matrix Anal. Appl. 26(4), Table 2.3).
_PADE13 = tuple(b / 64764752532480000 for b in (
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
    129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
    40840800, 960960, 16380, 182, 1))
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """The matrix exponential by scaling and squaring with the degree-13
    Pade approximant r = q^-1 p: exp(A) = r(A / 2^s)^(2^s), one solve and
    s squarings.

    s is the smallest with eta / 2^s <= theta_13, where
    eta = min(max(d_6, d_8), max(d_8, d_10)) and d_k = ||A^k||_1^(1/k), the
    powers taken exactly (Al-Mohy & Higham 2009, SIAM J. Matrix Anal. Appl.
    31(3), section 5). The s = ceil(log2(||A||_1 / theta_13)) of Higham
    2005 overscales the section model's matrices, whose stiffness rows
    make ||A||_1 far larger than their spectral radius. Over the grid's
    step matrices at a 1 Hz sample rate it took 7-8 squarings instead of
    3-4, and its worst error against a 50-digit reference was 1.3e-12 of
    the largest entry, against 4.2e-14 here (scipy.linalg.expm: 4.9e-14)."""
    ident = np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    d6, d8, d10 = (np.abs(power).sum(axis=0).max() ** (1.0 / k)
                   for power, k in ((a6, 6), (a4 @ a4, 8), (a4 @ a6, 10)))
    eta = min(max(d6, d8), max(d8, d10))
    s = math.ceil(math.log2(eta / _THETA13)) if eta > _THETA13 else 0
    a, a2, a4, a6 = a / 2.0 ** s, a2 / 4.0 ** s, a4 / 16.0 ** s, a6 / 64.0 ** s
    b = _PADE13
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


# Steps per block of `_propagate`. Generating the AoA-0 grid of 150 s runs
# (72 runs, 2-core box, OpenBLAS 0.3.31 on 2 threads, float64), the median
# over rounds of each round's simulate_motion p50 read 6.3 ms with 16 steps
# (3 rounds), 5.5 with 24 (3), 5.0 with 32 (7), 4.8 with 48 (7), 4.1 with 64
# (7), 5.6 with 96 (7) and 5.8 with 128 (4); simulate_run 19.8, 19.2 and
# 18.3 ms with 32, 48 and 64. The one-step-per-sample loop it replaced took
# about 55 ms.
MOTION_BLOCK_STEPS = 64


def _propagate(step: np.ndarray, start: np.ndarray, kicks: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """Run the recurrence z_(k+1) = S z_k + kick_k, where S = step,
    z_0 = start and kick_k, row k of the (m, 2) kicks, is added to the
    state's components 2 and 3 (the rates). Writes z_0 .. z_(m-1) into
    out, an (m, w) array that takes the first w components of each
    state, and returns z_m.

    The m steps are cut into blocks of B = MOTION_BLOCK_STEPS, and every
    block takes its B steps at once: step i of all blocks is one
    (blocks, d) @ (d, d) product. That is done twice. First from a zero
    state, which gives each block's response r_j to its own kicks, and
    alongside S^B from the identity. Then the block start states
    x_(j+1) = S^B x_j + r_j are carried forward one block at a time, and
    the blocks step again from those starts: before step i, row i of
    every block goes into out, as its rows i, i + B, i + 2B, ... So a
    call takes 2B + m/B Python steps, not m, and every product stays
    small enough to run on one BLAS thread.
    """
    m, d, b = len(kicks), len(start), MOTION_BLOCK_STEPS
    if m == 0:
        return start
    n_blocks = -(-m // b)
    padded = np.zeros((n_blocks * b, 2))
    padded[:m] = kicks
    block_kicks = padded.reshape(n_blocks, b, 2).transpose(1, 0, 2)
    step_t = step.T  # rows are states: z S^T is (S z)^T
    # rows 0 .. n_blocks-1: each block's kick response; the last d: S^B, transposed
    ends = np.zeros((n_blocks + d, d))
    ends[n_blocks:] = np.eye(d)
    for i in range(b):
        ends = ends @ step_t
        ends[:n_blocks, 2:4] += block_kicks[i]
    response, power_t = ends[:n_blocks], ends[n_blocks:]
    z = np.empty((n_blocks, d))  # row j: z_(jB+i) before step i below
    x = start
    for j in range(n_blocks):
        z[j] = x
        x = x @ power_t + response[j]
    last_block, last_step = divmod(m - 1, b)
    for i in range(b):
        rows = out[i::b]  # the last block may be short of row i
        rows[...] = z[:len(rows), :out.shape[1]]
        z = z @ step_t
        z[:, 2:4] += block_kicks[i]
        if i == last_step:
            end = z[last_block]
    return end


def _sample_count(seconds: float, sample_rate: float) -> int:
    """Samples in `seconds` at `sample_rate`, rounded to the nearest."""
    return int(round(seconds * sample_rate))


def _run_buffer(alloc, shape: tuple[int, ...], duration_s: float) -> np.ndarray:
    """alloc(shape), a buffer of a run's samples. numpy raises ValueError
    or MemoryError for a shape it cannot hold; for a run that means its
    duration is too long, a config error."""
    try:
        return alloc(shape)
    except (ValueError, MemoryError):
        raise ConfigError(f"duration_s {duration_s:g} s is too long: "
                          f"the run's samples do not fit in memory") from None


def simulate_motion(section: SectionParams, damage: DamageSpec,
                    duration_s: float, sample_rate: float = 100.0,
                    quiet_s: float = 15.0, excitation_hz: float = 1.0,
                    excitation_phase: float = 0.0,
                    buffet_rng: np.random.Generator | None = None,
                    initial_deviation: np.ndarray | None = None) -> MotionTrace:
    """Integrate the damaged 2-DOF model.

    Sinusoidal tip excitation starts after the quiet lead-in; a lead-in
    of at least duration_s gives a run without it. Each sample step is
    exact: the matrix exponential of the structural system in the
    lead-in, then of the augmented (state + forcing oscillator) system,
    both by the degree-13 Pade approximant with scaling and squaring
    (`_expm`), within 6e-16 of scipy.linalg.expm at 100 Hz.
    Optional broadband buffet forcing is added as per-step velocity kicks,
    drawn as one normal sample per step. Both stretches of the recurrence
    are evaluated in blocks (`_propagate`); the states agree with a
    step-by-step loop to rounding (tests/test_surrogate.py).
    """
    section.validate()
    damage.validate()
    if not (sample_rate > 0.0 and quiet_s >= 0.0 and 0.0 <= duration_s < math.inf):
        raise ConfigError("simulate_motion needs sample_rate > 0, quiet_s >= 0 "
                          "and a finite duration_s >= 0")
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
    n = _sample_count(duration_s, sample_rate)
    k_on = _sample_count(quiet_s, sample_rate)

    omega = 2.0 * math.pi * excitation_hz
    a6 = np.zeros((6, 6))
    a6[:4, :4] = a4
    a6[2, 4] = section.excitation_force / mass
    a6[3, 4] = section.excitation_force * section.excitation_arm / section.twist_inertia
    a6[4, 5] = omega
    a6[5, 4] = -omega

    step_quiet = _expm(a4 * dt)
    step_forced = _expm(a6 * dt)

    # per-step velocity kicks: heave rate, twist rate
    kicks = _run_buffer(np.zeros, (n, 2), duration_s)
    if buffet_rng is not None and section.buffet_force_std > 0.0:
        force_noise = buffet_rng.normal(size=n) * section.buffet_force_std * math.sqrt(dt)
        kicks[:, 0] = force_noise / mass
        kicks[:, 1] = force_noise * section.excitation_arm / section.twist_inertia

    z = np.zeros(4) if initial_deviation is None else np.asarray(initial_deviation, float)
    traj = _run_buffer(np.empty, (n, 4), duration_s)
    k_quiet = min(k_on, n)
    z = _propagate(step_quiet, z, kicks[:k_quiet], traj[:k_quiet])
    if k_on < n:
        z6 = np.concatenate([z, [math.sin(excitation_phase), math.cos(excitation_phase)]])
        _propagate(step_forced, z6, kicks[k_on:], traj[k_on:])

    if not np.isfinite(traj).all():
        raise NumericError("section-model integration produced non-finite state")
    time = np.arange(n) * dt
    return MotionTrace(time=time, heave=traj[:, 0], twist=traj[:, 1],
                       heave_rate=traj[:, 2], twist_rate=traj[:, 3])


def _run_duration(config: GeneratorConfig, duration_s: float | None) -> float:
    """The duration of a run: duration_s, or the config's when None."""
    duration = config.duration_s if duration_s is None else duration_s
    if not 0.0 <= duration < math.inf:
        raise ConfigError(f"duration_s must be finite and >= 0, got {duration}")
    return duration


def _has_noise(config: GeneratorConfig, with_noise: bool) -> bool:
    return with_noise and config.pressure.noise_std > 0.0


def _draw_noise(config: GeneratorConfig, test_series: int, damage_class: int,
                run_index: int, seed: int, duration: float) -> np.ndarray:
    """The sensor noise of one run, a (channels, samples) buffer of its own.

    `standard_normal(out=...)` fills the buffer with the GIL released.
    Scaled by noise_std afterwards, it equals `normal(scale=noise_std)` bit
    for bit (numpy computes that as 0.0 + noise_std * z)."""
    rng = np.random.default_rng(
        np.random.SeedSequence((seed, 503, test_series, damage_class, run_index)))
    noise = _run_buffer(np.empty, (config.layout().n_channels,
                                   _sample_count(duration, config.sample_rate)), duration)
    rng.standard_normal(out=noise)
    noise *= config.pressure.noise_std
    return noise


def simulate_run(config: GeneratorConfig, test_series: int, damage_class: int,
                 run_index: int, seed: int, duration_s: float | None = None,
                 with_noise: bool = True, noise: Future | None = None) -> RawRun:
    """One 37-channel pressure recording for a (test series, damage class,
    run) cell of the campaign grid.

    Run-to-run parameter jitter and buffet forcing derive from
    (seed, test_series, run_index) so all damage classes of one run slot
    share the same inflow realization; sensor noise additionally depends
    on the damage class.

    The sensor noise is drawn on a pool thread while the motion integrates
    on the calling one. `generate_campaign` submits the draw ahead and
    passes its future as `noise`; a call without one submits its own, to
    a one-thread pool that is shut down before the call returns or raises.
    The drawn buffer, or a zeroed one for a run without noise, becomes
    the run's values: the signal sens_c * alpha + base_c is added into it
    one channel row at a time, so no temporary outgrows one row. Each
    product and sum keeps its order, and IEEE addition commutes, so the
    bits equal signal + noise, or the signal alone (0.0 + v is v for any
    v but -0.0).
    """
    config.validate()
    series = config.series(test_series)
    damage = config.damage(damage_class)
    duration = _run_duration(config, duration_s)
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

    # a pool starts its thread at the first submit: only a lone noisy call starts one
    with run_pool(1) as lone:
        if noise is None and _has_noise(config, with_noise):
            noise = lone.submit(
                _draw_noise, config, test_series, damage_class, run_index, seed, duration)
        trace = simulate_motion(
            section, damage, duration, sample_rate=config.sample_rate,
            quiet_s=config.quiet_s, excitation_hz=series.excitation_hz,
            excitation_phase=phase, buffet_rng=buffet_rng)
        base, sens = pressure_profiles(config.pressure, layout, series.aoa_deg)
        alpha_dev_deg = (
            damage.twist_offset_deg
            + np.degrees(trace.twist)
            + np.degrees(np.arctan2(trace.heave_rate, series.wind_speed))
        )
        values = (noise.result() if noise is not None else
                  _run_buffer(np.zeros, (len(sens), len(alpha_dev_deg)), duration))
        for c, row in enumerate(values):
            row += sens[c] * alpha_dev_deg + base[c]

    return RawRun(
        values=values,
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
    subset) x damage class x run index.

    The runs' motion integrates on the calling thread, one run at a time
    in grid order. Every run's noise draw is queued on a `run_pool`
    before the first run integrates, and the pool's threads take them in
    grid order. A drawn buffer becomes its run's values, so the draws
    ahead hold no more than the finished campaign. Each run's noise has
    its own seed, so every run equals `simulate_run` called alone for its
    key, bit for bit. If a run raises, the draws not yet started are
    cancelled, and the first error in grid order is raised once the
    started ones have ended, with no pool thread left.
    """
    config.validate()
    duration = _run_duration(config, duration_s)
    series_rows = config.test_series
    if aoa_deg is not None:
        series_rows = [r for r in series_rows if r.aoa_deg == aoa_deg]
        if not series_rows:
            raise ConfigError(f"no test series at AoA {aoa_deg} deg in the grid")
    keys = [(row.test_series, damage.index, run_index)
            for row in series_rows for damage in config.damage_table
            for run_index in range(1, config.runs_per_condition + 1)]
    drawn = _has_noise(config, with_noise)
    pool = run_pool(len(keys))
    try:
        noises = [pool.submit(_draw_noise, config, *key, seed, duration) if drawn else None
                  for key in keys]
        runs = [simulate_run(config, *key, seed=seed, duration_s=duration,
                             with_noise=with_noise, noise=noise)
                for key, noise in zip(keys, noises)]
    finally:
        pool.shutdown(cancel_futures=True)
    return Campaign(runs=runs, layout=config.layout(),
                    generator_config=config.to_dict())
