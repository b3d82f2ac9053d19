"""Command-line interface.

Subcommands: generate, ingest, train, eval, attribute, ablate, retrain,
spectra, report. All experiment settings can come from a single JSON
config file (--config) with individual command-line overrides.

Exit codes: 0 success, 2 configuration error, 3 data error,
4 numeric failure, 5 internal error (any other exception, reported in
one line). A path that cannot be read or written (an OSError, such as an
--out that exists as a file) is a data error, reported in one line that
names the path; train and retrain make --out after reading the config
and the dataset, before the fit, and attribute makes it before its first
attribution map.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import harness
from .attribution import GAP_WARN_RATIO
from .data import Campaign, ingest_csv_run, load_campaign, save_campaign
from .errors import ConfigError, DataError, NumericError
from .harness import ExperimentConfig
from .models import ARCHITECTURES
from .records import read_json
from .spectra import StftSpec, shedding_scan, stft
from .surrogate import GeneratorConfig, generate_campaign

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_INTERNAL = 5


def _config_overrides(args) -> dict:
    """Every ExperimentConfig field that the command line set."""
    return {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
            if getattr(args, f.name, None) is not None}


def _config_from_args(args) -> ExperimentConfig:
    overrides = _config_overrides(args)
    if getattr(args, "config", None):
        return ExperimentConfig.from_file(args.config, overrides)
    return ExperimentConfig.from_dict(overrides)


def cmd_generate(args) -> int:
    if args.generator_config:
        config = GeneratorConfig.from_dict(
            read_json(Path(args.generator_config), ConfigError, "generator config"))
    else:
        config = GeneratorConfig.named_profile(args.profile)
    if args.duration is not None:
        config.duration_s = args.duration
    aoa = None if args.aoa == "both" else float(args.aoa)
    campaign = generate_campaign(config, seed=args.seed, aoa_deg=aoa,
                                 with_noise=not args.no_noise)
    out = Path(args.out)
    save_campaign(campaign, out)
    print(f"generated {len(campaign)} runs -> {out}")
    print(f"dataset fingerprint: {campaign.fingerprint()}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    out = Path(args.out)
    # a run added to a dataset takes the columns of the dataset's layout
    campaign = load_campaign(out) if (out / "manifest.json").exists() else Campaign(runs=[])
    run = ingest_csv_run(Path(args.csv), Path(args.meta), campaign.layout)
    campaign.runs = [r for r in campaign.runs if r.key() != run.key()] + [run]
    save_campaign(campaign, out)
    print(f"ingested run ts={run.test_series} class={run.damage_class} "
          f"run={run.run_index} ({run.duration_s:.1f} s) -> {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _config_from_args(args)
    out = Path(args.out)
    report = harness.train_classifier(config, load_campaign(Path(args.data)),
                                      checkpoint_path=out / "checkpoint.ckpt")
    report.save(out / "report.json")
    print(report.text_summary())
    return EXIT_OK


def cmd_eval(args) -> int:
    stack, data, config, hashes = harness.load_model(Path(args.checkpoint),
                                                     load_campaign(Path(args.data)))
    inputs, labels, _ = data.slice(args.slice)
    report = harness.evaluate(stack, inputs, labels, config,
                              slice_name=args.slice, hashes=hashes)
    if args.out:
        report.save(Path(args.out) / f"eval_{args.slice}.json")
    print(report.text_summary())
    return EXIT_OK


def cmd_ablate(args) -> int:
    kinds = [k.strip() for k in args.baselines.split(",") if k.strip()]
    if not kinds:
        raise ConfigError(f"--baselines {args.baselines!r} names no baseline")
    stack, data, config, hashes = harness.load_model(Path(args.checkpoint),
                                                     load_campaign(Path(args.data)))
    reports = harness.ablate_on_baselines(stack, data, config, kinds=kinds,
                                          slice_name=args.slice, hashes=hashes)
    for kind, report in reports.items():
        if args.out:
            report.save(Path(args.out) / f"ablate_{kind}.json")
        print(report.text_summary())
    return EXIT_OK


def cmd_retrain(args) -> int:
    config = _config_from_args(args)
    out = Path(args.out)
    report = harness.retrain_on_baseline(
        config, load_campaign(Path(args.data)), args.baseline,
        checkpoint_path=out / f"checkpoint_{args.baseline}.ckpt")
    report.save(out / f"retrain_{args.baseline}.json")
    print(report.text_summary())
    return EXIT_OK


def cmd_attribute(args) -> int:
    stack, data, config, hashes = harness.load_model(
        Path(args.checkpoint), load_campaign(Path(args.data)), _config_overrides(args))
    report = harness.attribute_campaign(
        stack, data, config, slice_name=args.slice,
        export_dir=Path(args.out) if args.out else None, hashes=hashes)
    print(report.text_summary())
    print(f"top channels by |mean attribution|: {report.extras['top_channels_by_mean_abs']}")
    worst = report.extras["max_relative_completeness_gap"]
    if worst is not None and worst > GAP_WARN_RATIO:
        print(f"warning: completeness gap reaches {worst:.1%} of |F(x) - F(x')|, "
              f"above {GAP_WARN_RATIO:.0%}; more --steps would tighten it",
              file=sys.stderr)
    return EXIT_OK


def cmd_spectra(args) -> int:
    try:
        candidates = [float(c) for c in args.candidates.split(",") if c.strip()]
    except ValueError:
        raise ConfigError(f"--candidates {args.candidates!r} is not a "
                          f"comma-separated list of frequencies") from None
    campaign = load_campaign(Path(args.data))
    run = campaign.run(args.test_series, args.damage_class, args.run_index)
    spec = StftSpec.wide() if args.preset == "wide" else StftSpec.fine()
    report = shedding_scan(run, args.sensor, candidates, spec=spec,
                           layout=campaign.layout)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "shedding_scan.json").write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True))
        channel = campaign.layout.channel_of_id(args.sensor)
        result = stft(run.values[channel], spec, sample_rate=run.sample_rate)
        with open(out / "stft.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["freq_hz"] + [f"{t:.3f}" for t in result.times])
            for i, f in enumerate(result.freqs):
                writer.writerow([f"{f:.4f}"] +
                                [f"{v:.8g}" for v in result.magnitude[i]])
        print(f"wrote {out / 'stft.csv'} and {out / 'shedding_scan.json'}")
    return EXIT_OK


def cmd_report(args) -> int:
    print(harness.render_report_text(Path(args.path)), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aeroshm",
        description="Damage classification from surface-pressure time series "
                    "with integrated-gradients attribution.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="simulate a surrogate campaign")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", default="static-dominant",
                   choices=["static-dominant", "dynamics-dominant"])
    p.add_argument("--generator-config", help="JSON generator config file")
    p.add_argument("--aoa", default="0", choices=["0", "8", "both"])
    p.add_argument("--duration", type=float, help="run duration in seconds")
    p.add_argument("--no-noise", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("ingest", help="import a CSV run into a dataset")
    p.add_argument("--csv", required=True)
    p.add_argument("--meta", required=True, help="JSON metadata sidecar")
    p.add_argument("--out", required=True, help="dataset directory")
    p.set_defaults(func=cmd_ingest)

    def add_training_args(p):
        p.add_argument("--data", required=True, help="dataset directory")
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--arch", choices=sorted(ARCHITECTURES))
        p.add_argument("--aoa-deg", dest="aoa_deg", type=float)
        p.add_argument("--split", dest="split_index", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--epochs", dest="max_epochs", type=int)
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--window-count", dest="window_count", type=int)
        p.add_argument("--log-every", dest="log_every", type=int)

    p = sub.add_parser("train", help="train a classifier")
    add_training_args(p)
    p.add_argument("--out", required=True, help="artifact directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--slice", default="test",
                   choices=["train", "validation", "test", "all"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="evaluate a checkpoint on "
                                      "baseline-reduced inputs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--baselines", default="apb,tvb,mvb")
    p.add_argument("--slice", default="test",
                   choices=["train", "validation", "test", "all"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("retrain", help="retrain on a baseline-reduced dataset")
    add_training_args(p)
    p.add_argument("--baseline", required=True, choices=["tvb", "mvb", "apb"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_retrain)

    p = sub.add_parser("attribute", help="integrated-gradients attribution "
                                         "over correctly classified samples")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--baseline", choices=["apb", "tvb", "mvb"])
    p.add_argument("--steps", dest="ig_steps", type=int)
    p.add_argument("--max-samples", dest="ig_max_samples", type=int)
    p.add_argument("--slice", default="validation",
                   choices=["train", "validation", "test", "all"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("spectra", help="STFT scan of one sensor of one run")
    p.add_argument("--data", required=True)
    p.add_argument("--test-series", type=int, required=True)
    p.add_argument("--damage-class", type=int, required=True)
    p.add_argument("--run-index", type=int, default=1)
    p.add_argument("--sensor", type=int, required=True, help="physical sensor id")
    # the Strouhal shedding frequencies f = St * V / c, St = 0.2 on the
    # 0.16 m chord, at the grid's two wind speeds of 12 and 24 m/s
    p.add_argument("--candidates", default="15,30", help="comma-separated Hz")
    p.add_argument("--preset", default="wide", choices=["wide", "fine"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("report", help="print a saved report")
    p.add_argument("path", help="report JSON file")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        what = f"{exc.strerror}: {exc.filename}" if exc.filename else str(exc)
        print(f"data error: {' '.join(what.splitlines())}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
