"""End-to-end CLI runs on a tiny surrogate campaign: exit codes, bit-exact
reruns, and the one-line errors for bad configs, datasets and checkpoints."""

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import export_csv_run, rewrite_checkpoint_header

import aeroshm
from aeroshm import harness
from aeroshm.baselines import BaselineKind
from aeroshm.cli import EXIT_CONFIG, EXIT_DATA, EXIT_INTERNAL, EXIT_OK, build_parser, main
from aeroshm.data import (
    N_PHYSICAL_SENSORS,
    Campaign,
    SensorLayout,
    load_campaign,
    save_campaign,
)
from aeroshm.errors import ConfigError
from aeroshm.harness import ExperimentConfig
from aeroshm.models import ARCHITECTURES
from aeroshm.net import FitResult, load_checkpoint, save_checkpoint
from aeroshm.spectra import STFT_PRESETS
from aeroshm.surrogate import PROFILES, GeneratorConfig, simulate_run

TRAIN = ["--window-count", "2", "--epochs", "1"]
# a mean-mlp checkpoint that held its input statistics in the metadata key
# mean_stats, written on this module's dataset (tests/test_checkpoint_format.py)
MLP_V1 = Path(__file__).parent / "data" / "mlp_v1.ckpt"


def run_pipeline(root):
    """generate -> train -> eval -> ablate -> retrain mvb -> eval (MLP) ->
    attribute -> spectra -> report; returns the exit code of every step."""
    data, out = str(root / "data"), root / "run"
    ckpt, mlp_ckpt = str(out / "checkpoint.ckpt"), str(out / "checkpoint_mvb.ckpt")
    steps = {
        "generate": ["generate", "--out", data, "--seed", "0", "--duration", "55",
                     "--aoa", "0"],
        "train": ["train", "--data", data, "--out", str(out), *TRAIN],
        "eval": ["eval", "--checkpoint", ckpt, "--data", data, "--out", str(out)],
        "ablate": ["ablate", "--checkpoint", ckpt, "--data", data, "--out", str(out)],
        "retrain": ["retrain", "--data", data, "--out", str(out), "--baseline", "mvb",
                    *TRAIN],
        "eval-mlp": ["eval", "--checkpoint", mlp_ckpt, "--data", data,
                     "--out", str(out / "mlp")],
        "attribute": ["attribute", "--checkpoint", ckpt, "--data", data, "--steps", "16",
                      "--max-samples", "1", "--out", str(out)],
        "spectra": ["spectra", "--data", data, "--test-series", "1", "--damage-class", "0",
                    "--sensor", "18", "--out", str(out / "spectra")],
        "report": ["report", str(out / "report.json")],
    }
    return {name: main(argv) for name, argv in steps.items()}


def without_wall_clock(path):
    report = json.loads(path.read_text())
    report.pop("wall_clock_s")
    return report


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    roots = [tmp_path_factory.mktemp(name) for name in ("first", "second")]
    return roots, [run_pipeline(root) for root in roots]


def test_every_step_exits_ok(two_runs):
    _, codes = two_runs
    for run_codes in codes:
        assert run_codes == {name: EXIT_OK for name in run_codes}


def test_rerun_is_bit_exact(two_runs):
    (a, b), _ = two_runs
    for name in ("checkpoint.ckpt", "checkpoint_mvb.ckpt", "spectra/shedding_scan.json",
                 "spectra/stft.csv"):
        assert (a / "run" / name).read_bytes() == (b / "run" / name).read_bytes(), name
    reports = ["report.json", "retrain_mvb.json", "eval_test.json", "mlp/eval_test.json",
               "ablate_apb.json", "ablate_tvb.json", "ablate_mvb.json",
               "attribution_apb.json"]
    for name in reports:
        assert without_wall_clock(a / "run" / name) == without_wall_clock(b / "run" / name)


def test_mlp_checkpoint_evaluates_with_its_stored_statistics(two_runs):
    (root, _), _ = two_runs
    report = json.loads((root / "run" / "mlp" / "eval_test.json").read_text())
    retrain = json.loads((root / "run" / "retrain_mvb.json").read_text())
    assert report["config"]["arch"] == "mean-mlp"
    # evaluating the saved model on the test slice repeats the retrain's score
    assert report["balanced_accuracy"] == retrain["balanced_accuracy"]
    assert report["confusion"] == retrain["confusion"]


def test_reports_record_the_training_dataset(two_runs):
    (root, _), _ = two_runs
    trained_on = json.loads((root / "run" / "report.json").read_text())["hashes"]["dataset"]
    for name in ("eval_test.json", "ablate_apb.json", "ablate_tvb.json",
                 "ablate_mvb.json", "attribution_apb.json"):
        hashes = json.loads((root / "run" / name).read_text())["hashes"]
        assert hashes["trained_on"] == hashes["dataset"] == trained_on, name


def test_attribution_records_its_completeness_check(two_runs, tmp_path, capsys):
    (root, _), _ = two_runs
    extras = json.loads((root / "run" / "attribution_apb.json").read_text())["extras"]
    # 16 steps: one checked sample, its gap well under the warning level
    assert extras["n_gap_unchecked"] == 0
    assert 0 < extras["max_relative_completeness_gap"] <= 0.05
    capsys.readouterr()
    code = main(["attribute", "--checkpoint", str(root / "run" / "checkpoint.ckpt"),
                 "--data", str(root / "data"), "--steps", "1", "--max-samples", "1",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    worst = json.loads((tmp_path / "attribution_apb.json").read_text())[
        "extras"]["max_relative_completeness_gap"]
    assert worst > 0.05
    assert capsys.readouterr().err.splitlines() == [
        f"warning: completeness gap reaches {worst:.1%} of |F(x) - F(x')|, above 5%; "
        "more --steps would tighten it"]


@pytest.fixture(scope="module")
def other_dataset(two_runs, tmp_path_factory):
    data = tmp_path_factory.mktemp("other") / "data"
    assert main(["generate", "--out", str(data), "--seed", "1", "--duration", "55",
                 "--aoa", "0"]) == EXIT_OK
    return data


def test_checkpoint_on_other_dataset_warns(two_runs, other_dataset, tmp_path, capsys):
    (root, _), _ = two_runs
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(root / "run" / "checkpoint.ckpt"),
                 "--data", str(other_dataset), "--out", str(tmp_path)])
    assert code == EXIT_OK
    hashes = json.loads((tmp_path / "eval_test.json").read_text())["hashes"]
    assert hashes["trained_on"] != hashes["dataset"]
    warning = (f"warning: checkpoint was trained on dataset {hashes['trained_on']}, "
               f"this dataset is {hashes['dataset']}")
    assert capsys.readouterr().err.splitlines() == [warning]


def test_checkpoint_on_its_own_dataset_does_not_warn(two_runs, capsys):
    (root, _), _ = two_runs
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(root / "run" / "checkpoint.ckpt"),
                 "--data", str(root / "data")])
    assert code == EXIT_OK
    assert capsys.readouterr().err == ""


def test_checkpoint_without_fingerprint_stays_silent(two_runs, other_dataset, tmp_path,
                                                     capsys):
    (root, _), _ = two_runs
    path = tmp_path / "old.ckpt"
    rewrite_checkpoint_header(root / "run" / "checkpoint.ckpt", path,
                              lambda h: h["metadata"].pop("dataset_fingerprint"))
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(path), "--data", str(other_dataset),
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert capsys.readouterr().err == ""
    assert "trained_on" not in json.loads((tmp_path / "eval_test.json").read_text())["hashes"]


def test_checkpoint_with_retired_config_key_still_loads(two_runs, tmp_path):
    (root, _), _ = two_runs
    path = tmp_path / "old.ckpt"
    rewrite_checkpoint_header(root / "run" / "checkpoint.ckpt", path,
                              lambda h: h["metadata"]["config"].update(ig_chunk=64))
    data = str(root / "data")
    assert main(["eval", "--checkpoint", str(path), "--data", data]) == EXIT_OK
    assert main(["attribute", "--checkpoint", str(path), "--data", data, "--steps", "4",
                 "--max-samples", "1"]) == EXIT_OK


@pytest.mark.parametrize("key,value", [
    ("ig_chunk", None), ("ig_chunk", "any"), ("zscore_scope", "joint"),
])
def test_checkpoint_with_retired_config_value_evaluates_unchanged(two_runs, tmp_path, key,
                                                                   value):
    (root, _), _ = two_runs
    path = tmp_path / "old.ckpt"
    rewrite_checkpoint_header(root / "run" / "checkpoint.ckpt", path,
                              lambda h: h["metadata"]["config"].update({key: value}))
    assert main(["eval", "--checkpoint", str(path), "--data", str(root / "data"),
                 "--out", str(tmp_path)]) == EXIT_OK
    assert without_wall_clock(tmp_path / "eval_test.json") \
        == without_wall_clock(root / "run" / "eval_test.json")


def test_checkpoint_with_per_channel_zscore_exits_data_error(two_runs, tmp_path, capsys):
    (root, _), _ = two_runs
    path = tmp_path / "old.ckpt"
    rewrite_checkpoint_header(root / "run" / "checkpoint.ckpt", path,
                              lambda h: h["metadata"]["config"].update(
                                  zscore_scope="per-channel"))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(path), "--data", str(root / "data")]) \
        == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
    assert "zscore_scope" in err and "per-channel" in err


def test_config_with_joint_zscore_trains_the_same_checkpoint(two_runs, tmp_path):
    (root, _), _ = two_runs
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps({"zscore_scope": "joint"}))
    assert main(["train", "--data", str(root / "data"), "--out", str(out),
                 "--config", str(path), *TRAIN]) == EXIT_OK
    assert (out / "checkpoint.ckpt").read_bytes() \
        == (root / "run" / "checkpoint.ckpt").read_bytes()
    assert without_wall_clock(out / "report.json") \
        == without_wall_clock(root / "run" / "report.json")


@pytest.fixture(scope="module")
def class7_dataset(two_runs, tmp_path_factory):
    """The first pipeline's dataset with damage class 5 relabelled 7 in
    every meta.json, run directory and manifest entry, by hand:
    save_campaign refuses such a run."""
    (root, _), _ = two_runs
    data = tmp_path_factory.mktemp("class7") / "data"
    shutil.copytree(root / "data", data)
    manifest = json.loads((data / "manifest.json").read_text())
    for entry in manifest["runs"]:
        if entry["damage_class"] == 5:
            run_dir = data / entry["dir"]
            meta = json.loads((run_dir / "meta.json").read_text())
            (run_dir / "meta.json").write_text(json.dumps({**meta, "damage_class": 7}))
            entry.update(damage_class=7, dir=entry["dir"].replace("_d5_", "_d7_"))
            run_dir.rename(data / entry["dir"])
    (data / "manifest.json").write_text(json.dumps(manifest))
    return data


@pytest.mark.parametrize("step", ["train", "retrain", "eval", "ablate", "attribute"])
def test_damage_class_outside_0_to_5_exits_data_error(two_runs, class7_dataset, tmp_path,
                                                      capsys, step):
    (root, _), _ = two_runs
    ckpt = ["--checkpoint", str(root / "run" / "checkpoint.ckpt")]
    argv = {
        "train": ["train", "--out", str(tmp_path), *TRAIN],
        "retrain": ["retrain", "--out", str(tmp_path), "--baseline", "mvb", *TRAIN],
        "eval": ["eval", *ckpt],
        "ablate": ["ablate", *ckpt],
        "attribute": ["attribute", *ckpt, "--steps", "4", "--max-samples", "1"],
    }[step]
    capsys.readouterr()
    assert main([*argv, "--data", str(class7_dataset)]) == EXIT_DATA
    # the first such run in manifest order, refused as the dataset loads
    meta = class7_dataset / "runs" / "ts1_d7_r1" / "meta.json"
    assert capsys.readouterr().err == \
        f"data error: metadata {meta} field damage_class must be in 0..5, got 7\n"


def test_stored_generator_config_regenerates_the_dataset(two_runs, tmp_path):
    (root, _), _ = two_runs
    code = main(["generate", "--out", str(tmp_path / "data"), "--seed", "0", "--aoa", "0",
                 "--generator-config", str(root / "data" / "generator_config.json")])
    assert code == EXIT_OK
    for name in ("manifest.json", "generator_config.json"):
        assert (tmp_path / "data" / name).read_bytes() == (root / "data" / name).read_bytes()


@pytest.mark.parametrize("edit,word", [
    (None, "malformed"),
    (lambda d: d.pop("section"), "section"),
    (lambda d: d["section"].update(mass="heavy"), "section.mass"),
    (lambda d: d.update(sections={}), "sections"),
    (lambda d: d["test_series"][0].pop("aoa_deg"), "test_series[0]"),
    (lambda d: d.update(sample_rate=0), "sample_rate"),
    (lambda d: d.update(sample_rate=-100), "sample_rate"),
    (lambda d: d.update(quiet_s=-5), "quiet_s"),
    (lambda d: d.update(runs_per_condition=0), "runs_per_condition"),
    (lambda d: d["section"].update(buffet_force_std=-0.1), "buffet_force_std"),
    (lambda d: d["pressure"].update(noise_std=-0.01), "noise_std"),
    (lambda d: d.update(stiffness_jitter=-0.02), "stiffness_jitter"),
    (lambda d: d.update(damping_jitter=-0.05), "damping_jitter"),
    (lambda d: d.update(force_jitter=1.5), "force_jitter"),
    (lambda d: d["damage_table"].append(dict(d["damage_table"][0])), "damage_table"),
    (lambda d: d.update(damage_table=[]), "damage_table"),
    (lambda d: d["damage_table"][5].update(index=6), "damage_table"),
    (lambda d: d["damage_table"][0].update(index=-1), "damage_table"),
    (lambda d: d["test_series"].append(dict(d["test_series"][0])), "test_series"),
    (lambda d: d["test_series"][1].update(wind_speed=0), "wind_speed"),
    (lambda d: d["test_series"][1].update(wind_speed=-12.0), "wind_speed"),
    (lambda d: d["test_series"][2].update(excitation_hz=0), "excitation_hz"),
    (lambda d: d.update(dead_sensors=[99]), "dead_sensors"),
    (lambda d: d.update(dead_sensors=[-1]), "dead_sensors"),
    (lambda d: d.update(dead_sensors=[5, 21, 5]), "dead_sensors"),
], ids=["malformed-json", "missing-section", "wrong-type", "unknown-key",
        "series-without-aoa", "zero-sample-rate", "negative-sample-rate",
        "negative-quiet-lead-in", "no-runs-per-condition", "negative-buffet",
        "negative-noise", "negative-stiffness-jitter", "negative-damping-jitter",
        "jitter-of-one-or-more", "repeated-class", "no-classes", "class-index-6",
        "negative-class-index", "repeated-series",
        "zero-wind-speed", "negative-wind-speed", "zero-excitation",
        "dead-sensor-above-39", "negative-dead-sensor", "repeated-dead-sensor"])
def test_bad_generator_config_exits_config_error(tmp_path, capsys, edit, word):
    path = tmp_path / "generator.json"
    if edit is None:
        path.write_text("{not json")
    else:
        d = GeneratorConfig().to_dict()
        edit(d)
        path.write_text(json.dumps(d))
    code = main(["generate", "--out", str(tmp_path / "data"), "--generator-config",
                 str(path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert word in err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("field,value,edit", [
    ("section.twist_stiffness", "nan",
     lambda d: d["section"].update(twist_stiffness=float("nan"))),
    ("damage_table[2].twist_offset_deg", "nan",
     lambda d: d["damage_table"][2].update(twist_offset_deg=float("nan"))),
    ("pressure.suction_sens_peak", "-inf",
     lambda d: d["pressure"].update(suction_sens_peak=-float("inf"))),
    ("test_series[1].wind_speed", "inf",
     lambda d: d["test_series"][1].update(wind_speed=float("inf"))),
    ("quiet_s", "nan", lambda d: d.update(quiet_s=float("nan"))),
], ids=["section", "damage-row", "pressure", "test-series", "top-level"])
def test_non_finite_generator_config_exits_config_error(tmp_path, capsys, field, value, edit):
    """JSON reads NaN and Infinity; generate refuses them, naming the
    field, before it writes anything."""
    d = GeneratorConfig().to_dict()
    edit(d)
    path = tmp_path / "generator.json"
    path.write_text(json.dumps(d))
    code = main(["generate", "--out", str(tmp_path / "data"), "--duration", "60",
                 "--generator-config", str(path)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == \
        f"configuration error: {field} must be finite, got {value}\n"
    assert not (tmp_path / "data").exists()


def test_duration_too_long_to_allocate_exits_config_error(tmp_path, capsys):
    # numpy refuses a 1e302-sample shape before allocating anything
    code = main(["generate", "--out", str(tmp_path / "data"), "--seed", "0",
                 "--duration", "1e300", "--aoa", "0"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert "1e+300" in err
    assert not (tmp_path / "data").exists()


def test_report_renders_its_saved_summary(two_runs):
    (root, _), _ = two_runs
    assert harness.render_report_text(root / "run" / "report.json") \
        == (root / "run" / "report.txt").read_text()


@pytest.mark.parametrize("edit,word", [
    (lambda d: [1], "JSON object"),
    (lambda d: {**d, "confusion": 3}, "confusion"),
], ids=["not-an-object", "wrong-type"])
def test_bad_report_exits_data_error(two_runs, tmp_path, capsys, edit, word):
    (root, _), _ = two_runs
    path = tmp_path / "report.json"
    path.write_text(json.dumps(edit(json.loads((root / "run" / "report.json").read_text()))))
    capsys.readouterr()
    assert main(["report", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
    assert word in err


def test_zero_batch_size_exits_config_error(two_runs, tmp_path, capsys):
    (root, _), _ = two_runs
    code = main(["train", "--data", str(root / "data"), "--out", str(tmp_path),
                 "--batch-size", "0"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.count("\n") == 0 and "batch_size" in err


@pytest.mark.parametrize("name,record,word", [
    ("layout.json", {"dead_sensors": 5}, "dead_sensors"),
    ("layout.json", {"dead_sensors": [99]}, "dead_sensors"),
    ("layout.json", {"dead_sensors": [-1]}, "dead_sensors"),
    ("layout.json", {"dead_sensors": [5, 21, 5]}, "dead_sensors"),
    ("manifest.json", {"runs": [{"dir": 5}]}, "dir"),
    ("manifest.json", {"format_version": 9, "n_runs": 0, "runs": []}, "format_version"),
    ("manifest.json", {"format_version": 1, "n_runs": 73, "runs": []}, "n_runs"),
], ids=["layout-dead-sensors-not-a-list", "layout-dead-sensor-above-39",
        "layout-negative-dead-sensor", "layout-repeated-dead-sensor",
        "manifest-dir-not-a-string", "manifest-format-version-9", "manifest-n-runs-73"])
def test_bad_dataset_record_exits_data_error(tmp_path, capsys, name, record, word):
    (tmp_path / "manifest.json").write_text(json.dumps({"format_version": 1, "n_runs": 0,
                                                        "runs": []}))
    (tmp_path / name).write_text(json.dumps(record))
    code = main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
    assert word in err


def test_manifest_without_runs_exits_data_error(tmp_path, capsys):
    (tmp_path / "manifest.json").write_text("{}")
    code = main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    assert "runs" in capsys.readouterr().err


@pytest.mark.parametrize("name,edit,word", [
    ("checkpoint.ckpt", lambda h: h.pop("layers"), "layers"),
    ("checkpoint.ckpt", lambda h: h.update(arch=5), "arch"),
    ("checkpoint.ckpt", lambda h: h.update(metadata=5), "metadata"),
    ("checkpoint.ckpt", lambda h: h["metadata"].update(config=5), "config"),
    ("checkpoint.ckpt", lambda h: h["metadata"].update(dataset_fingerprint=5),
     "dataset_fingerprint"),
    ("checkpoint.ckpt", lambda h: h["metadata"].update(baseline_reduce=5),
     "baseline_reduce"),
    ("checkpoint.ckpt", lambda h: h["metadata"].update(baseline_reduce="xyz"),
     "baseline_reduce"),
    (MLP_V1,
     lambda h: h["metadata"].update(mean_stats={"mean": "x", "std": [1.0]}),
     "mean_stats.mean"),
    (MLP_V1,
     lambda h: h["metadata"].update(mean_stats={"mean": [0.0], "std": [1.0]}),
     "1 means and 1 stds for 37 channels"),
    (MLP_V1,
     lambda h: h["metadata"]["mean_stats"]["std"].__setitem__(3, 0.0),
     "mean_stats.std"),
    (MLP_V1,
     lambda h: h["metadata"]["mean_stats"]["std"].__setitem__(0, float("nan")),
     "mean_stats.std"),
    ("checkpoint_mvb.ckpt",
     lambda h: h["metadata"].update(mean_stats={"mean": [0.0] * 37, "std": [1.0] * 37}),
     "mean_stats must be null in a checkpoint with a standardize layer"),
    ("checkpoint.ckpt", lambda h: h.update(dtype="float16"), "dtype"),
    ("checkpoint.ckpt", lambda h: h.update(dtype=5), "dtype"),
], ids=["layers", "arch", "metadata", "config", "dataset-fingerprint", "baseline-reduce",
        "unknown-baseline-reduce", "mean-stats-not-numbers", "mean-stats-one-channel",
        "mean-stats-zero-std", "mean-stats-nan-std", "mean-stats-beside-a-standardize-layer",
        "dtype-float16", "dtype-not-a-string"])
def test_checkpoint_without_layers_exits_data_error(two_runs, tmp_path, capsys, name,
                                                    edit, word):
    (root, _), _ = two_runs
    path = tmp_path / "broken.ckpt"
    rewrite_checkpoint_header(root / "run" / name, path, edit)
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(path), "--data", str(root / "data")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
    assert word in err


@pytest.fixture(scope="module")
def repeated_run_dataset(two_runs, tmp_path_factory):
    """The first pipeline's dataset with its manifest listing its first run
    twice; the run directories are the pipeline's own."""
    (root, _), _ = two_runs
    data = tmp_path_factory.mktemp("repeated") / "data"
    data.mkdir()
    for name in ("layout.json", "generator_config.json"):
        shutil.copy(root / "data" / name, data)
    (data / "runs").symlink_to(root / "data" / "runs")
    manifest = json.loads((root / "data" / "manifest.json").read_text())
    manifest["runs"].insert(1, manifest["runs"][0])
    manifest["n_runs"] += 1
    (data / "manifest.json").write_text(json.dumps(manifest))
    return data


@pytest.mark.parametrize("case,word", [
    ("no-softmax-head", "must end in a softmax layer"),
    ("repeated-array-label", "lists array '0.param.bias' twice"),
    ("repeated-manifest-run", "repeats run runs/ts1_d0_r1"),
], ids=["no-softmax-head", "repeated-array-label", "repeated-manifest-run"])
@pytest.mark.parametrize("step", ["eval", "ablate", "attribute"])
def test_headless_stack_or_repeated_entry_exits_data_error(
        two_runs, repeated_run_dataset, tmp_path, capsys, step, case, word):
    (root, _), _ = two_runs
    ckpt, data = root / "run" / "checkpoint.ckpt", root / "data"
    if case == "repeated-manifest-run":
        data = repeated_run_dataset
    else:
        edit = {"no-softmax-head": lambda h: h["layers"].pop(),
                "repeated-array-label": lambda h: h["arrays"].append(h["arrays"][0])}[case]
        rewrite_checkpoint_header(ckpt, tmp_path / "broken.ckpt", edit)
        ckpt = tmp_path / "broken.ckpt"
    flags = ["--steps", "4", "--max-samples", "1"] if step == "attribute" else []
    capsys.readouterr()
    code = main([step, "--checkpoint", str(ckpt), "--data", str(data),
                 "--out", str(tmp_path / "out"), *flags])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
    assert word in err


def test_older_mlp_checkpoint_evaluates_as_it_did(two_runs, tmp_path):
    """MLP_V1 is the checkpoint_mvb.ckpt this module's pipeline wrote before
    the standardize layer: its eval report is the retrained model's."""
    (root, _), _ = two_runs
    assert main(["eval", "--checkpoint", str(MLP_V1), "--data", str(root / "data"),
                 "--out", str(tmp_path)]) == EXIT_OK
    report = json.loads((tmp_path / "eval_test.json").read_text())
    assert report["hashes"]["trained_on"] == report["hashes"]["dataset"]
    assert without_wall_clock(tmp_path / "eval_test.json") == \
        without_wall_clock(root / "run" / "mlp" / "eval_test.json")


@pytest.mark.parametrize("index,value", [(3, 0.0), (0, float("nan"))],
                         ids=["zero-std", "nan-std"])
def test_bad_standardize_buffer_exits_data_error(two_runs, tmp_path, capsys, index, value):
    (root, _), _ = two_runs
    stack, metadata = load_checkpoint(root / "run" / "checkpoint_mvb.ckpt")
    stack.layers[0].buffers["std"][index] = value
    path = tmp_path / "broken.ckpt"
    save_checkpoint(stack, path, metadata)
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(path), "--data", str(root / "data")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
    assert "0.buffer.std must hold positive finite values" in err


@pytest.mark.parametrize("key,value", [
    ("batch_size", 0), ("max_epochs", 0), ("window_steps", 0), ("window_count", -1),
    ("ig_steps", 0), ("window_steps", "150"), ("batch_size", 2.5), ("ig_max_samples", 0),
    ("split_index", 0), ("split_index", 4),
    ("val_fraction", -0.1), ("val_fraction", 1.0), ("val_fraction", "0.2"),
    ("seed", -1), ("seed", "0"), ("plateau_patience", 1.5), ("early_stop_patience", None),
    ("log_every", -1),
    ("aoa_deg", "0"), ("lr", "fast"), ("lr", True), ("weight_decay", None),
    ("label_smoothing", [0.05]), ("plateau_factor", {"x": 1}), ("min_lr", "1e-5"),
    ("arch", ["x"]), ("baseline", 1), ("zscore_scope", None), ("ig_target", 0.0),
    ("batch_size", True), ("ig_steps", True), ("seed", False),
])
def test_config_values_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig.from_dict({key: value})


@pytest.mark.parametrize("config", [
    {"arch": "mean-mlp"}, {"baseline": "TVB"}, {"ig_target": "prob"},
])
def test_enumerated_config_values_accepted(config):
    assert ExperimentConfig.from_dict(config).to_dict().items() >= config.items()


@pytest.mark.parametrize("config", [
    {"zscore_scope": "joint"}, {"ig_chunk": 64}, {"ig_chunk": None}, {"ig_chunk": "x"},
    {"ig_chunk": [1], "zscore_scope": "joint"},
])
def test_retired_config_keys_are_dropped(config):
    assert ExperimentConfig.from_dict(config) == ExperimentConfig()


# Enumerated config values the types let through, and retired keys that
# hold a value other than the one they may keep.
BAD_ENUMERATED = [
    {"arch": "resnet"}, {"baseline": "xyz"}, {"ig_target": "loss"},
    {"zscore_scope": "global"}, {"zscore_scope": "per-channel"},
]


@pytest.mark.parametrize("config", [{"lr": "fast"}, {"arch": ["x"]}, [1], *BAD_ENUMERATED])
def test_bad_config_file_exits_config_error(two_runs, tmp_path, capsys, config):
    (root, _), _ = two_runs
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(config))
    code = main(["train", "--data", str(root / "data"), "--out", str(out),
                 "--config", str(path), *TRAIN])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert (next(iter(config)) if isinstance(config, dict) else "JSON object") in err
    assert not out.exists()  # nothing trained, no checkpoint saved


@pytest.mark.parametrize("config", BAD_ENUMERATED)
def test_checkpoint_with_bad_enumerated_value_exits_data_error(two_runs, tmp_path, capsys,
                                                               config):
    (root, _), _ = two_runs
    path = tmp_path / "broken.ckpt"
    rewrite_checkpoint_header(root / "run" / "checkpoint.ckpt", path,
                              lambda h: h["metadata"]["config"].update(config))
    capsys.readouterr()
    code = main(["attribute", "--checkpoint", str(path), "--data", str(root / "data"),
                 "--steps", "4", "--max-samples", "1"])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
    assert next(iter(config)) in err


@pytest.mark.parametrize("step,flags,word", [
    ("spectra", ["--candidates", "abc"], "candidates"),
    ("spectra", ["--candidates", ","], "candidate"),
    ("ablate", ["--baselines", ","], "baselines"),
    ("ablate", ["--baselines", "apb,frequency"], "frequency"),
], ids=["spectra-not-a-number", "spectra-empty", "ablate-empty", "ablate-unknown"])
def test_malformed_cli_list_exits_config_error(two_runs, tmp_path, capsys, step, flags,
                                               word):
    (root, _), _ = two_runs
    argv = {
        "spectra": ["spectra", "--test-series", "1", "--damage-class", "0",
                    "--sensor", "18"],
        "ablate": ["ablate", "--checkpoint", str(root / "run" / "checkpoint.ckpt")],
    }[step]
    code = main([*argv, "--data", str(root / "data"), "--out", str(tmp_path), *flags])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert word in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("step", ["generate", "train", "retrain"])
def test_out_path_that_is_a_file_exits_data_error(two_runs, tmp_path, capsys, monkeypatch,
                                                  step):
    (root, _), _ = two_runs
    out = tmp_path / "taken"
    out.write_text("not a directory")
    fits = []
    monkeypatch.setattr(harness, "fit", lambda *args: fits.append(args))
    argv = {
        "generate": ["generate", "--seed", "0", "--duration", "55", "--aoa", "0"],
        "train": ["train", "--data", str(root / "data"), *TRAIN],
        "retrain": ["retrain", "--data", str(root / "data"), "--baseline", "mvb", *TRAIN],
    }[step]
    assert main([*argv, "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
    assert str(out) in err
    assert fits == []  # the path failed before the fit
    assert out.read_text() == "not a directory"


def test_attribute_out_path_that_is_a_file_exits_data_error(two_runs, tmp_path, capsys,
                                                           monkeypatch):
    (root, _), _ = two_runs
    out = tmp_path / "taken"
    out.write_text("not a directory")
    maps = []
    monkeypatch.setattr(harness, "integrated_gradients", lambda *a, **k: maps.append(a))
    argv = ["attribute", "--checkpoint", str(root / "run" / "checkpoint.ckpt"),
            "--data", str(root / "data"), "--steps", "16", "--out", str(out)]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(out) in err
    assert maps == []  # the path failed before the first map
    assert out.read_text() == "not a directory"


def test_ingest_into_a_dataset_reads_its_layout(tmp_path):
    data = tmp_path / "data"
    config = PROFILES["static-dominant"]()
    layout = SensorLayout(dead_sensors=(5, 21, 34))
    save_campaign(Campaign(runs=[simulate_run(config, 1, 0, 1, seed=0, duration_s=2.0)],
                           layout=layout), data)
    run = simulate_run(config, 1, 2, 1, seed=1, duration_s=2.0)
    export_csv_run(run, tmp_path / "run.csv", tmp_path / "meta.json")
    # every physical sensor's column, its id in the integer part
    table = np.arange(N_PHYSICAL_SENSORS) + np.linspace(0, 0.5, run.n_steps)[:, None]
    np.savetxt(tmp_path / "run.csv", table, delimiter=",", comments="", fmt="%.17g",
               header=",".join(map(str, range(N_PHYSICAL_SENSORS))))
    assert main(["ingest", "--csv", str(tmp_path / "run.csv"),
                 "--meta", str(tmp_path / "meta.json"), "--out", str(data)]) == EXIT_OK
    campaign = load_campaign(data)
    assert campaign.layout == layout
    np.testing.assert_array_equal(campaign.run(1, 2, 1).values,
                                  table[:, list(layout.working_ids)].T)


@pytest.mark.parametrize("edit,message", [
    (lambda meta: meta.update(sample_rate=0),
     "sample_rate must be positive and finite, got 0.0"),
    (lambda meta: meta.update(sample_rate=-100),
     "sample_rate must be positive and finite, got -100.0"),
    (lambda meta: meta.update(damage_class=7), "damage_class must be in 0..5, got 7"),
], ids=["zero-sample-rate", "negative-sample-rate", "damage-class-7"])
def test_ingest_of_unusable_metadata_exits_data_error_before_writing(tmp_path, capsys, edit,
                                                                     message):
    data = tmp_path / "data"
    config = PROFILES["static-dominant"]()
    save_campaign(Campaign(runs=[simulate_run(config, 1, 0, 1, seed=0, duration_s=2.0)]), data)
    before = {path: path.read_bytes() for path in data.rglob("*") if path.is_file()}
    meta_path = tmp_path / "meta.json"
    export_csv_run(simulate_run(config, 1, 2, 1, seed=1, duration_s=2.0),
                   tmp_path / "run.csv", meta_path)
    meta = json.loads(meta_path.read_text())
    edit(meta)
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    assert main(["ingest", "--csv", str(tmp_path / "run.csv"), "--meta", str(meta_path),
                 "--out", str(data)]) == EXIT_DATA
    assert capsys.readouterr().err == \
        f"data error: metadata sidecar {meta_path} field {message}\n"
    assert {path: path.read_bytes() for path in data.rglob("*") if path.is_file()} == before


def test_unexpected_exception_exits_internal_error(tmp_path, monkeypatch, capsys):
    def broken(path):
        raise RuntimeError("first line\nsecond line")

    monkeypatch.setattr(harness, "render_report_text", broken)
    assert main(["report", str(tmp_path / "report.json")]) == EXIT_INTERNAL
    assert capsys.readouterr().err == "internal error: RuntimeError: first line second line\n"


def test_python_m_aeroshm_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(aeroshm.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-m", "aeroshm", "--help"], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: aeroshm")


@pytest.mark.parametrize("module", ["aeroshm", "aeroshm.cli"])
def test_import_loads_no_scipy(module):
    """scipy is a test-only dependency; importing it costs some 20 MB."""
    env = {**os.environ, "PYTHONPATH": str(Path(aeroshm.__file__).parents[1])}
    code = (f"import sys, {module}; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_train_classifier_fits_with_its_config(two_runs, monkeypatch):
    (root, _), _ = two_runs
    seen = []

    def recording_fit(stack, train_x, train_y, val_x, val_y, settings):
        seen.append(settings)
        return FitResult()

    monkeypatch.setattr(harness, "fit", recording_fit)
    config = ExperimentConfig(batch_size=7, max_epochs=3, lr=0.5, seed=11, log_every=2,
                              window_count=2)
    harness.train_classifier(config, load_campaign(root / "data"))
    (settings,) = seen
    assert (settings.batch_size, settings.max_epochs, settings.lr, settings.seed,
            settings.log_every) == (7, 3, 0.5, 11, 2)


def test_every_choice_list_is_its_registry():
    registries = {
        ("generate", "profile"): list(PROFILES),
        ("generate", "aoa"): ["0", "8", "both"],
        ("train", "arch"): sorted(ARCHITECTURES),
        ("retrain", "arch"): sorted(ARCHITECTURES),
        ("retrain", "baseline"): [kind.value for kind in BaselineKind],
        ("attribute", "baseline"): [kind.value for kind in BaselineKind],
        **{(command, "slice"): list(harness.SLICES)
           for command in ("eval", "ablate", "attribute")},
        ("spectra", "preset"): list(STFT_PRESETS),
    }
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    found = {(command, action.dest): list(action.choices)
             for command, parser in commands.items() for action in parser._actions
             if action.choices is not None}
    assert found == registries
    assert commands["ablate"].get_default("baselines") == \
        ",".join(kind.value for kind in BaselineKind)


class ClosedStdout(io.StringIO):
    """A stdout whose reader has gone, on the descriptor `fd`."""

    def __init__(self, fd: int):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self) -> int:
        return self.fd


@pytest.mark.parametrize("step", ["ablate", "spectra"])
def test_closed_stdout_exits_ok_after_writing_every_file(two_runs, tmp_path, capsys,
                                                        monkeypatch, step):
    """The files equal the pipeline's: a closed stdout cuts none short."""
    (root, _), _ = two_runs
    out = tmp_path / "out"
    argv, expected = {
        "ablate": (["ablate", "--checkpoint", str(root / "run" / "checkpoint.ckpt")],
                   {f"ablate_{kind}.json": root / "run" / f"ablate_{kind}.json"
                    for kind in ("apb", "tvb", "mvb")}),
        "spectra": (["spectra", "--test-series", "1", "--damage-class", "0",
                     "--sensor", "18"],
                    {name: root / "run" / "spectra" / name
                     for name in ("shedding_scan.json", "stft.csv")}),
    }[step]
    capsys.readouterr()
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", ClosedStdout(fh.fileno()))
        assert main([*argv, "--data", str(root / "data"), "--out", str(out)]) == EXIT_OK
        # the descriptor now writes to /dev/null
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""
    for name, path in expected.items():
        if name.startswith("ablate"):
            assert without_wall_clock(out / name) == without_wall_clock(path)
        else:
            assert (out / name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_stdout_closed_early_exits_ok(two_runs, unbuffered):
    """Buffered, the output fails as it is flushed; unbuffered, as it is
    printed."""
    (root, _), _ = two_runs
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(aeroshm.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with subprocess.Popen([sys.executable, "-m", "aeroshm", "report",
                           str(root / "run" / "report.json")], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()  # before the command prints its first line
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == EXIT_OK
    assert err == b""
