"""Data model and on-disk layout for pressure-measurement campaigns.

A campaign is a collection of runs. Each run holds 37 working sensor
channels sampled at 100 Hz plus the boundary-condition metadata (test
series, damage class, run index, angle of attack, excitation frequency,
wind speed).

Disk layout (see docs/formats.md for the byte-exact definition):

    <dataset>/
      manifest.json
      layout.json
      generator_config.json        # present for surrogate campaigns
      runs/ts<T>_d<D>_r<R>/
        meta.json
        signals.bin                # float64 little-endian, channel-major

Saving and loading a campaign run on a thread pool, one run per task
(`map_runs`): the runs are independent files, and numpy's `tofile`,
`fromfile` and finiteness check release the GIL, so on two cores two runs
move at once. A loaded run's array is allocated by the pool thread that
reads it, in that thread's malloc arena. Allocating every array on the
calling thread instead puts the loaded campaign on the main heap, where
glibc trims each freed campaign: in the `prepare` benchmark (2-core
x86_64) generation and loading then both faulted in every page, and
`load_campaign` took 0.17-0.19 s against 0.11-0.12 s. Generation
integrates one run's motion at a time: `generate_campaign` queues every
run's sensor-noise draw on a pool of its own, sized by the same rule
(`run_pool`). `Campaign.fingerprint` stays one sha256 stream in run-key
order, since hashing in another order or shape would change every stored
fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import DataError
from .records import from_json, json_object, read_json, typed

SAMPLE_RATE_HZ = 100.0
N_PHYSICAL_SENSORS = 40
DEFAULT_DEAD_SENSORS = (5, 21, 33)
N_DAMAGE_CLASSES = 6
MANIFEST_FORMAT_VERSION = 1


@dataclass(frozen=True)
class SensorLayout:
    """Mapping between contiguous channel indices and physical sensor ids.

    Physical ids run 0..39 around the airfoil: ids 0..19 along the suction
    side from trailing edge to leading edge, ids 20..39 back along the
    pressure side. Dead sensors are dropped, leaving 37 working channels
    indexed contiguously in physical-id order.
    """

    dead_sensors: tuple[int, ...] = DEFAULT_DEAD_SENSORS

    def check(self, error: type[Exception], what: str) -> None:
        """Reject dead-sensor ids outside 0..39 and repeated ones: either
        would leave the working ids, and the fingerprint, unchanged."""
        for sensor_id in self.dead_sensors:
            if not 0 <= sensor_id < N_PHYSICAL_SENSORS:
                raise error(f"{what} field dead_sensors holds {sensor_id}, outside "
                            f"0..{N_PHYSICAL_SENSORS - 1}")
        if len(set(self.dead_sensors)) != len(self.dead_sensors):
            raise error(f"{what} field dead_sensors repeats an id: {list(self.dead_sensors)}")

    @property
    def working_ids(self) -> tuple[int, ...]:
        return tuple(i for i in range(N_PHYSICAL_SENSORS) if i not in self.dead_sensors)

    @property
    def n_channels(self) -> int:
        return len(self.working_ids)

    def channel_of_id(self, sensor_id: int) -> int:
        try:
            return self.working_ids.index(sensor_id)
        except ValueError:
            raise DataError(f"sensor id {sensor_id} is not a working sensor") from None

    def id_of_channel(self, channel: int) -> int:
        return self.working_ids[channel]

    def chord_position(self, sensor_id: int) -> tuple[float, str]:
        """Chordwise coordinate x/c in [0, 1] and surface side of a sensor.

        0 is the leading edge, 1 the trailing edge.
        """
        if not 0 <= sensor_id < N_PHYSICAL_SENSORS:
            raise DataError(f"sensor id {sensor_id} outside 0..{N_PHYSICAL_SENSORS - 1}")
        if sensor_id < 20:
            return 1.0 - sensor_id / 19.0, "suction"
        return (sensor_id - 20) / 19.0, "pressure"

    def to_dict(self) -> dict:
        return {
            "n_physical_sensors": N_PHYSICAL_SENSORS,
            "dead_sensors": list(self.dead_sensors),
            "working_ids": list(self.working_ids),
        }

    @classmethod
    def from_dict(cls, d) -> "SensorLayout":
        """The layout of a layout.json object; only dead_sensors is read."""
        dead = json_object(d, DataError, "layout").get("dead_sensors",
                                                       list(DEFAULT_DEAD_SENSORS))
        layout = cls(typed(dead, tuple[int, ...], DataError, "layout", "dead_sensors"))
        layout.check(DataError, "layout")
        return layout


@dataclass
class RawRun:
    """One continuous recording: 37 channels x (duration * 100 Hz) values."""

    values: np.ndarray  # (n_channels, n_steps) float64, pressure-coefficient units
    test_series: int  # 1..8
    damage_class: int  # 0..5
    run_index: int  # 1..3
    aoa_deg: float
    excitation_hz: float
    wind_speed: float
    sample_rate: float = SAMPLE_RATE_HZ
    seed: int | None = None

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_steps / self.sample_rate

    def key(self) -> tuple[int, int, int]:
        return (self.test_series, self.damage_class, self.run_index)

    def meta_dict(self) -> dict:
        """Every field but values, plus the shape of values (RUN_COUNTS)."""
        meta = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "values"}
        return {**meta, "n_channels": self.n_channels, "n_steps": self.n_steps}


@dataclass
class SampleSet:
    """Windowed samples in columnar form: one (n, channels, steps) value
    array plus a label and provenance entry per sample.

    Indexing with an index array or a slice gives the SampleSet of those
    samples. Indexing with an integer gives one sample: its values are
    (channels, steps) and its other fields are scalars.
    """

    values: np.ndarray  # (n, n_channels, window_steps) float32 from build_samples
    labels: np.ndarray  # (n,) int64 damage class
    test_series: np.ndarray  # (n,) int64
    run_index: np.ndarray  # (n,) int64
    window_index: np.ndarray  # (n,) int64, position of the window in its run

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, idx) -> "SampleSet":
        return SampleSet(*(getattr(self, f.name)[idx] for f in fields(self)))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def provenance(self, i: int) -> tuple[int, int, int]:
        return (int(self.test_series[i]), int(self.run_index[i]), int(self.window_index[i]))


@dataclass
class Campaign:
    """A set of runs sharing one sensor layout."""

    runs: list[RawRun]
    layout: SensorLayout = field(default_factory=SensorLayout)
    generator_config: dict | None = None

    def __len__(self) -> int:
        return len(self.runs)

    def run(self, test_series: int, damage_class: int, run_index: int) -> RawRun:
        for r in self.runs:
            if r.key() == (test_series, damage_class, run_index):
                return r
        raise DataError(
            f"no run with test_series={test_series} damage_class={damage_class} "
            f"run_index={run_index}"
        )

    def subset_aoa(self, aoa_deg: float) -> "Campaign":
        runs = [r for r in self.runs if r.aoa_deg == aoa_deg]
        if not runs:
            raise DataError(f"campaign has no runs at AoA {aoa_deg} deg")
        return replace(self, runs=runs)

    def fingerprint(self) -> str:
        """Deterministic sha256 over run metadata and signal bytes."""
        h = hashlib.sha256()
        for r in sorted(self.runs, key=lambda r: r.key()):
            h.update(json.dumps(r.meta_dict(), sort_keys=True).encode())
            h.update(np.ascontiguousarray(r.values, dtype="<f8"))  # the buffer, not a copy
        return h.hexdigest()


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_pool(n_tasks: int) -> ThreadPoolExecutor:
    """A thread pool for n_tasks independent tasks (n_tasks >= 1): one
    thread per CPU this process may use, at most one per task."""
    return ThreadPoolExecutor(max_workers=min(n_tasks, usable_cpus()))


def map_runs(fn: Callable, items: Iterable) -> list:
    """[fn(item) for item in items], computed on a `run_pool`.

    The pool is shut down before the call returns or raises, so no thread
    outlives it. Results come in input order; if calls raise, the first
    one's exception in input order is raised, after every call has ended.
    """
    items = list(items)
    if not items:
        return []
    with run_pool(len(items)) as pool:
        futures = [pool.submit(fn, item) for item in items]
    return [f.result() for f in futures]


def _run_dirname(run: RawRun) -> str:
    return f"ts{run.test_series}_d{run.damage_class}_r{run.run_index}"


def _refuse_repeats(names: list[str], what: str) -> None:
    """Raise a DataError naming the first of `names` that repeats."""
    for i, name in enumerate(names):
        if name in names[:i]:
            raise DataError(f"{what} repeats run {name}")


# metadata keys that give the shape of a run's values, not RawRun fields
RUN_COUNTS = ("n_channels", "n_steps")


def _pop_counts(meta: dict, what: str, defaults=(None, None)) -> tuple[int, int]:
    """The RUN_COUNTS of a metadata object, taken out of it: ints >= 0,
    each one its default where the object leaves it out."""
    counts = tuple(typed(meta.pop(key, default), int, DataError, what, key)
                   for key, default in zip(RUN_COUNTS, defaults))
    if min(counts) < 0:
        raise DataError(f"{what} gives negative n_channels x n_steps = {counts[0]}x{counts[1]}")
    return counts


def check_run(run: RawRun, what: str) -> RawRun:
    """The run rule: refuse a run whose damage class lies outside 0..5 or
    whose sample rate is not positive and finite, and pass any other.
    `what` names the run in messages."""
    if not 0 <= run.damage_class < N_DAMAGE_CLASSES:
        raise DataError(f"{what} field damage_class must be in "
                        f"0..{N_DAMAGE_CLASSES - 1}, got {run.damage_class}")
    if not 0.0 < run.sample_rate < np.inf:
        raise DataError(f"{what} field sample_rate must be positive and finite, "
                        f"got {run.sample_rate}")
    return run


def _check_finite(values: np.ndarray, where) -> None:
    """Raise a DataError naming the first non-finite value; where(channel,
    step) describes its position."""
    bad = ~np.isfinite(values)
    if bad.any():
        ch, step = np.argwhere(bad)[0]
        raise DataError(f"non-finite value at {where(int(ch), int(step))}")


def save_run(run: RawRun, run_dir: Path) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "meta.json").write_text(json.dumps(run.meta_dict(), indent=2, sort_keys=True))
    np.ascontiguousarray(run.values, dtype="<f8").tofile(run_dir / "signals.bin")


def load_run(run_dir: Path) -> RawRun:
    run_dir = Path(run_dir)
    meta_path = run_dir / "meta.json"
    bin_path = run_dir / "signals.bin"
    if not bin_path.exists():
        raise DataError(f"missing signal file {bin_path}")
    what = f"metadata {meta_path}"
    meta = json_object(read_json(meta_path, DataError, "metadata"), DataError, what)
    n_channels, n_steps = _pop_counts(meta, what)
    # np.fromfile drops a trailing partial value, so the size is checked in bytes
    size = bin_path.stat().st_size
    if size != 8 * n_channels * n_steps:
        raise DataError(f"{what} gives n_channels x n_steps = {n_channels}x{n_steps}, "
                        f"but {bin_path} holds {size} bytes, not {8 * n_channels * n_steps}")
    values = np.fromfile(bin_path, dtype="<f8").reshape(n_channels, n_steps)
    _check_finite(values, lambda ch, step: f"channel {ch}, time step {step} of {bin_path}")
    return check_run(from_json(RawRun, {**meta, "values": values}, DataError, what), what)


def save_campaign(campaign: Campaign, dataset_dir: Path) -> None:
    """Write a campaign. Every run is checked against the run rule
    (`check_run`), and the run keys for repeats, before any file is
    written, the first bad one in run-key order named, so no dataset is
    saved that `load_campaign` refuses."""
    runs = sorted(campaign.runs, key=lambda r: r.key())
    for run in runs:
        check_run(run, f"run {run.key()}")
    _refuse_repeats([_run_dirname(run) for run in runs], "campaign")
    dataset_dir = Path(dataset_dir)
    dataset_dir.mkdir(parents=True, exist_ok=True)
    rels = [Path("runs") / _run_dirname(run) for run in runs]
    map_runs(lambda i: save_run(runs[i], dataset_dir / rels[i]), range(len(runs)))
    run_entries = [{**run.meta_dict(), "dir": str(rel)} for run, rel in zip(runs, rels)]
    manifest = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "n_runs": len(run_entries),
        "runs": run_entries,
    }
    (dataset_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    (dataset_dir / "layout.json").write_text(
        json.dumps(campaign.layout.to_dict(), indent=2, sort_keys=True))
    if campaign.generator_config is not None:
        (dataset_dir / "generator_config.json").write_text(
            json.dumps(campaign.generator_config, indent=2, sort_keys=True))


def load_campaign(dataset_dir: Path) -> Campaign:
    """Read a campaign. A manifest with another format_version, an n_runs
    other than its number of entries, or a run directory repeated is
    refused before any run is read, and runs whose metadata repeat a run
    key once they are read."""
    dataset_dir = Path(dataset_dir)
    manifest_path = dataset_dir / "manifest.json"
    if not manifest_path.exists():
        raise DataError(f"{dataset_dir} is not a dataset directory (no manifest.json)")
    manifest = read_json(manifest_path, DataError, "manifest")
    entries = manifest.get("runs") if isinstance(manifest, dict) else None
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and isinstance(e.get("dir"), str) for e in entries):
        raise DataError(
            f"{manifest_path} needs a 'runs' list whose entries each give a 'dir' string")
    for key, expected in (("format_version", MANIFEST_FORMAT_VERSION), ("n_runs", len(entries))):
        value = manifest.get(key)
        if type(value) is not int or value != expected:
            raise DataError(f"{manifest_path} key {key} must be {expected}, got {value!r}")
    _refuse_repeats([entry["dir"] for entry in entries], str(manifest_path))
    layout_path = dataset_dir / "layout.json"
    layout = SensorLayout()
    if layout_path.exists():
        layout = SensorLayout.from_dict(read_json(layout_path, DataError, "layout"))
    gen_path = dataset_dir / "generator_config.json"
    generator_config = (read_json(gen_path, DataError, "generator config")
                        if gen_path.exists() else None)
    runs = map_runs(lambda entry: load_run(dataset_dir / entry["dir"]), entries)
    for run in runs:
        if run.n_channels != layout.n_channels:
            raise DataError(
                f"run {run.key()} has {run.n_channels} channels, "
                f"layout declares {layout.n_channels}"
            )
    _refuse_repeats([_run_dirname(run) for run in runs], str(dataset_dir))
    return Campaign(runs=runs, layout=layout, generator_config=generator_config)


def ingest_csv_run(csv_path: Path, meta_path: Path,
                   layout: SensorLayout | None = None) -> RawRun:
    """Read one run from a CSV table plus a JSON metadata sidecar.

    The CSV must have a header row of physical sensor ids and one row per
    time step. Columns for dead sensors are dropped; all working sensors
    must be present.
    """
    layout = layout or SensorLayout()
    csv_path, meta_path = Path(csv_path), Path(meta_path)
    if not csv_path.exists():
        raise DataError(f"missing CSV file {csv_path}")
    what = f"metadata sidecar {meta_path}"
    meta = json_object(read_json(meta_path, DataError, "metadata sidecar"), DataError, what)
    with open(csv_path) as fh:
        header = fh.readline().strip()
        if not header:
            raise DataError(f"{csv_path} is empty")
        try:
            sensor_ids = [int(c) for c in header.split(",")]
        except ValueError:
            raise DataError(
                f"{csv_path}: header must hold integer sensor ids, got {header!r}"
            ) from None
        try:
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise DataError(f"{csv_path}: malformed numeric data: {exc}") from exc
    if table.shape[1] != len(sensor_ids):
        raise DataError(
            f"{csv_path}: {table.shape[1]} columns but {len(sensor_ids)} header ids")
    present = set(sensor_ids)
    missing = [i for i in layout.working_ids if i not in present]
    if missing:
        raise DataError(
            f"{csv_path}: missing working sensor id(s) {', '.join(map(str, missing))}")
    columns = [sensor_ids.index(i) for i in layout.working_ids]
    values = np.ascontiguousarray(table[:, columns].T, dtype=np.float64)
    _check_finite(values, lambda ch, step:
                  f"sensor id {layout.id_of_channel(ch)}, row {step + 2} of {csv_path}")
    counts = _pop_counts(meta, what, values.shape)
    if counts != values.shape:
        raise DataError(f"{what} gives n_channels x n_steps = {counts[0]}x{counts[1]}, "
                        f"but {csv_path} holds {values.shape[0]}x{values.shape[1]} values")
    record = {"sample_rate": SAMPLE_RATE_HZ, "seed": None, **meta, "values": values}
    return check_run(from_json(RawRun, record, DataError, what), what)

