"""End-to-end CLI runs on a tiny surrogate campaign: exit codes, bit-exact
reruns, and the one-line errors for bad configs, datasets and checkpoints."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import rewrite_checkpoint_header

import aeroshm
from aeroshm import harness
from aeroshm.cli import EXIT_CONFIG, EXIT_DATA, EXIT_INTERNAL, EXIT_OK, main
from aeroshm.data import (
    N_PHYSICAL_SENSORS,
    Campaign,
    SensorLayout,
    export_csv_run,
    load_campaign,
    save_campaign,
)
from aeroshm.errors import ConfigError
from aeroshm.harness import ExperimentConfig
from aeroshm.net import FitResult
from aeroshm.surrogate import GeneratorConfig, simulate_run

TRAIN = ["--window-count", "2", "--epochs", "1"]


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
        "jitter-of-one-or-more", "repeated-class", "no-classes", "repeated-series",
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
], ids=["layout-dead-sensors-not-a-list", "layout-dead-sensor-above-39",
        "layout-negative-dead-sensor", "layout-repeated-dead-sensor",
        "manifest-dir-not-a-string"])
def test_bad_dataset_record_exits_data_error(tmp_path, capsys, name, record, word):
    (tmp_path / "manifest.json").write_text(json.dumps({"runs": []}))
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
    ("checkpoint_mvb.ckpt",
     lambda h: h["metadata"].update(mean_stats={"mean": "x", "std": [1.0]}),
     "mean_stats.mean"),
    ("checkpoint_mvb.ckpt",
     lambda h: h["metadata"].update(mean_stats={"mean": [0.0], "std": [1.0]}),
     "1 means and 1 stds for 37 channels"),
    ("checkpoint_mvb.ckpt",
     lambda h: h["metadata"]["mean_stats"]["std"].__setitem__(3, 0.0),
     "mean_stats.std"),
    ("checkpoint_mvb.ckpt",
     lambda h: h["metadata"]["mean_stats"]["std"].__setitem__(0, float("nan")),
     "mean_stats.std"),
    ("checkpoint.ckpt", lambda h: h.update(dtype="float16"), "dtype"),
    ("checkpoint.ckpt", lambda h: h.update(dtype=5), "dtype"),
], ids=["layers", "arch", "metadata", "config", "dataset-fingerprint", "baseline-reduce",
        "unknown-baseline-reduce", "mean-stats-not-numbers", "mean-stats-one-channel",
        "mean-stats-zero-std", "mean-stats-nan-std", "dtype-float16", "dtype-not-a-string"])
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
    {"arch": "mean-mlp"}, {"zscore_scope": "per-channel"}, {"baseline": "TVB"},
    {"ig_target": "prob"},
])
def test_enumerated_config_values_accepted(config):
    assert ExperimentConfig.from_dict(config).to_dict().items() >= config.items()


# Enumerated config values the types let through. The mean-mlp reads
# per-channel window means, which per-channel z-scoring sets to 0.
BAD_ENUMERATED = [
    {"arch": "resnet"}, {"baseline": "xyz"}, {"ig_target": "loss"},
    {"zscore_scope": "global"}, {"arch": "mean-mlp", "zscore_scope": "per-channel"},
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
    config = GeneratorConfig.named_profile("static-dominant")
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
