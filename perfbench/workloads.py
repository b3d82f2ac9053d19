"""The three benchmark workloads and the wrappers that time them.

Each workload is one process, one caller, a closed loop: it runs
operations one after another until its time is spent, and its set-up is
timed and repeated. Every operation checks its own outputs; an operation
that raises or fails a check counts as failed.

    train      fit of the fcn-cnn at the paper's shapes, then a checkpoint
               round trip. The only workload with train-mode BatchNorm,
               weight gradients and AdamW.
    attribute  predict + baseline ablation on a validation slice, then
               integrated gradients at 200 steps per correctly classified
               sample. Infer-mode BatchNorm, input gradients only, batches
               of interpolation points; never touches the optimizer.
    prepare    the paper-scale AoA-0 grid from simulation to model-ready
               inputs, with no network at all. Memory is dominated by the
               per-window sample copies.
"""

from __future__ import annotations

import math
import shutil
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from aeroshm import attribution, baselines, data, harness, models, spectra, surrogate
from aeroshm.net import checkpoint, layers, training
from aeroshm.net.optim import AdamW
from aeroshm.net.stack import LayerStack

from spans import Tracer

MODEL_SEED = 0
KINDS = ("apb", "tvb", "mvb")
# The IG gaps measured here are at most about 1.3e-6 logits whatever
# |F(x) - F(x')| is, so below this many logits a 5% relative check would
# read noise, not the integral: such samples are counted as unchecked.
DELTA_FLOOR = 1e-4
CHECKED_KINDS = ("apb", "tvb")  # their samples must all be checkable
CONV_NAMES = {(f, k): f"conv{i}" for i, (f, k) in enumerate(models.CNN_BLOCKS)}


class CheckFailed(Exception):
    """An operation's output is wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# The train/attribute campaigns: AoA-0 runs of RUN_S seconds. Of 72 runs
# with WINDOWS windows each, the train slice holds 36 * WINDOWS samples, a
# whole number of 32-sample batches when WINDOWS is a multiple of 8.
RUN_S = 60.0
EPOCHS = 2


@dataclass(frozen=True)
class Size:
    """Input sizes of the workloads. FULL is what the benchmark measures;
    TINY is for the benchmark's smoke test."""

    windows: int  # windows per run of the train/attribute campaigns
    prepare_run_s: float
    prepare_windows: int
    ig_steps: int


FULL = Size(windows=8, prepare_run_s=150.0, prepare_windows=89, ig_steps=200)
TINY = Size(windows=2, prepare_run_s=60.0, prepare_windows=4, ig_steps=16)


# -- instrumentation -------------------------------------------------------


def _conv_attrs(args, kwargs, result):
    layer, x = args[0], args[1]
    n, c, t = x.shape
    flops = 2.0 * n * t * c * layer.kernel_size * layer.filters
    return {"layer": CONV_NAMES.get((layer.filters, layer.kernel_size), "conv"),
            "flops": flops}


def _conv_bwd_attrs(args, kwargs, result):
    layer, dout = args[0], args[1]
    n, f, t = dout.shape
    need_param_grads = args[2] if len(args) > 2 else kwargs.get("need_param_grads", True)
    gemms = 2 if need_param_grads else 1  # input gradient, plus weight gradient
    flops = gemms * 2.0 * n * t * f * layer.in_channels * layer.kernel_size
    return {"layer": CONV_NAMES.get((layer.filters, layer.kernel_size), "conv"),
            "flops": flops}


def _samples_attrs(args, kwargs, result):
    # build_samples copies each window out of its run, then z-scores it
    # into a new array: two window-sized arrays per sample (computed).
    return {"windows": len(result),
            "bytes_copied": 2 * sum(s.values.nbytes for s in result)}


def _ig_attrs(args, kwargs, result):
    steps = kwargs.get("steps", 200)
    chunk = kwargs.get("chunk_size", 64)
    return {"points": steps, "slots": math.ceil(steps / chunk) * chunk}


def _predict_attrs(args, kwargs, result):
    batch = kwargs.get("batch_size", 64)
    return {"batches": math.ceil(len(args[1]) / batch)}


def instrument(tracer: Tracer, names: frozenset[str] | None = None) -> None:
    """Wrap the package's public functions; names=None wraps all of them."""
    plan = [
        (layers.Conv1d, "forward", "net.layers.conv.fwd", _conv_attrs),
        (layers.Conv1d, "backward", "net.layers.conv.bwd", _conv_bwd_attrs),
        (layers.BatchNorm, "forward", "net.layers.batchnorm.fwd", None),
        (layers.BatchNorm, "backward", "net.layers.batchnorm.bwd", None),
        (layers.ReLU, "forward", "net.layers.relu.fwd", None),
        (layers.ReLU, "backward", "net.layers.relu.bwd", None),
        (layers.GlobalAvgPool, "forward", "net.layers.head.fwd", None),
        (layers.GlobalAvgPool, "backward", "net.layers.head.bwd", None),
        (layers.Dense, "forward", "net.layers.head.fwd", None),
        (layers.Dense, "backward", "net.layers.head.bwd", None),
        (layers.Softmax, "forward", "net.layers.head.fwd", None),
        (layers.Softmax, "backward", "net.layers.head.bwd", None),
        (LayerStack, "logits", "net.stack.logits", None),
        (LayerStack, "backprop_logits", "net.stack.backprop", None),
        (LayerStack, "predict", "net.stack.predict", _predict_attrs),
        (LayerStack, "class_gradients", "net.stack.class_gradients", None),
        (LayerStack, "copy_state", "net.training.copy_state", None),
        (training, "cross_entropy_from_logits", "net.losses.cross_entropy", None),
        (AdamW, "step", "net.optim.step", None),
        (training, "train_step", "net.training.train_step", None),
        (training, "evaluate_loss", "net.training.evaluate_loss", None),
        (training, "fit", "net.training.fit", None),
        (checkpoint, "save_checkpoint", "net.checkpoint.save", None),
        (checkpoint, "load_checkpoint", "net.checkpoint.load", None),
        (attribution, "integrated_gradients", "attribution.integrated_gradients",
         _ig_attrs),
        (attribution, "make_baseline", "baselines.make_baseline", None),
        (baselines, "make_baseline", "baselines.make_baseline", None),
        (harness, "reduce_dataset", "baselines.reduce_dataset", None),
        (harness, "prepare_data", "harness.prepare_data", None),
        (harness, "model_inputs", "harness.model_inputs", None),
        (harness, "ablate_on_baselines", "harness.ablate", None),
        (harness, "build_samples", "preprocessing.build_samples", _samples_attrs),
        (harness, "assign_splits", "preprocessing.assign_splits", None),
        (data, "save_campaign", "data.save_campaign", None),
        (data, "load_campaign", "data.load_campaign", None),
        (data.Campaign, "fingerprint", "data.fingerprint", None),
        (surrogate, "simulate_run", "surrogate.simulate_run", None),
        (surrogate, "simulate_motion", "surrogate.simulate_motion",
         lambda a, k, r: {"ode_steps": len(r.time)}),
        (spectra, "shedding_scan", "spectra.shedding_scan", None),
    ]
    for owner, attr, name, attrs_of in plan:
        if names is None or name in names:
            tracer.patch(owner, attr, name, attrs_of)


# -- shared helpers --------------------------------------------------------


def _campaign_inputs(seed: int, size: Size):
    """Seeded AoA-0 surrogate campaign, windowed for the fcn-cnn."""
    campaign = surrogate.generate_campaign(
        surrogate.GeneratorConfig(), seed=seed, aoa_deg=0.0, duration_s=RUN_S)
    config = harness.ExperimentConfig(arch="fcn-cnn", seed=seed,
                                      window_count=size.windows)
    return harness.prepare_data(campaign, config), config


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else math.nan


def _median(values) -> float:
    return _percentile(values, 50)


def _rate(items, seconds) -> float:
    """Items per second over a whole run. A run's slow and fast spells
    then weigh by their length, where a median of a few long operations
    would read one spell alone."""
    return items / seconds if seconds > 0 else math.nan


@dataclass
class Op:
    """One operation of a workload: its kind and the call that runs it.
    The call returns the number of items it processed."""

    kind: str
    run: Callable[[], int]


class Workload:
    name = "?"
    # spans the end-to-end metrics need: calls made inside the package,
    # which the workload cannot time itself
    always: frozenset[str] = frozenset()
    op_kinds: tuple[str, ...] = ()
    setup_repeats = 3
    # the benchmark's end-to-end metric names -> this workload's own names
    end_to_end: dict[str, str] = {}
    # per-layer metrics count only layer calls under this span, if set
    layer_root: str | None = None

    def __init__(self, seed: int, size: Size, workdir: Path, tracer: Tracer):
        self.seed, self.size, self.workdir, self.tracer = seed, size, workdir, tracer
        self.dtype = "unknown"
        self.times: list[tuple[str, int, float]] = []  # (name, op, seconds)
        # measured outside the spans, reported with the per-layer metrics
        self.extra = {"net.training.loss_final": 0.0, "net.checkpoint.bytes": 0,
                      "attribution.rel_gap_p50": 0.0, "data.bytes": 0}

    def timed(self, name: str, call, *args, **kwargs):
        """Run call(*args, **kwargs), recording its wall time under name
        for the current operation."""
        t0 = time.perf_counter()
        result = call(*args, **kwargs)
        self.times.append((name, self.tracer.op, time.perf_counter() - t0))
        return result

    def seconds(self, name: str, ops: set[int]) -> list[float]:
        return [s for n, op, s in self.times if n == name and op in ops]


# -- train -----------------------------------------------------------------


class Train(Workload):
    name = "train"
    always = frozenset({"net.training.train_step"})
    op_kinds = ("fit",)
    end_to_end = {"items_per_s": "train_samples_per_s", "op_p50_ms": "train_step_p50_ms"}
    layer_root = "net.training.train_step"

    def __init__(self, *args):
        super().__init__(*args)
        self.histories: list[list[dict]] = []

    def setup(self) -> None:
        # free the last set-up's arrays before building new ones, as a
        # fresh process would have none
        self.train_x = self.val_x = None
        prepared, _ = _campaign_inputs(self.seed, self.size)
        self.train_x, self.train_y, _ = prepared.slice("train")
        self.val_x, self.val_y, _ = prepared.slice("validation")
        self.dtype = str(self.train_x.dtype)
        # early stopping can never end a fit before its last epoch
        self.settings = training.FitSettings(
            batch_size=32, max_epochs=EPOCHS,
            early_stop_patience=EPOCHS + 1, seed=MODEL_SEED)

    def next_op(self, index: int) -> Op:
        return Op("fit", self._fit)

    def _fit(self) -> int:
        stack = models.build_cnn(37, 150, n_classes=harness.N_CLASSES, seed=MODEL_SEED)
        result = self.timed("fit", training.fit, stack, self.train_x, self.train_y,
                            self.val_x, self.val_y, self.settings)
        history = result.history
        losses = [h["train_loss"] for h in history]
        self.histories.append(history)
        self.extra["net.training.loss_final"] = losses[-1]
        check(len(history) == EPOCHS, f"fit ran {len(history)} epochs")
        check(all(math.isfinite(v) for v in losses), f"non-finite loss {losses}")
        check(losses[-1] < losses[0], f"last epoch loss not below first: {losses}")
        check(history == self.histories[0], "fit is not deterministic at a fixed seed")

        probe = self.val_x[:32]
        before = stack.logits(probe)
        path = self.workdir / "train.ckpt"
        checkpoint.save_checkpoint(stack, path, {"benchmark": "train"})
        self.extra["net.checkpoint.bytes"] = path.stat().st_size
        loaded, _ = checkpoint.load_checkpoint(path)
        check(np.array_equal(before, loaded.logits(probe)),
              "logits changed across the checkpoint round trip")
        return len(self.train_x) * EPOCHS

    def named_metrics(self, ops: list[dict]) -> dict:
        ok = [o for o in ops if o["ok"]]
        steps = self.tracer.durations_ms("net.training.train_step", {o["op"] for o in ok})
        # samples over the wall time of fit alone, without the checkpoint
        # round trips that follow, summed over the run
        fit_s = self.seconds("fit", {o["op"] for o in ok})
        return {
            "train_samples_per_s": (_rate(sum(o["items"] for o in ok), sum(fit_s)), "1/s"),
            "train_step_p50_ms": (_percentile(steps, 50), "ms"),
            "train_step_p90_ms": (_percentile(steps, 90), "ms"),
            "train_step_count": (len(steps), "count"),
            "train_step_batch": (self.settings.batch_size, "samples"),
            "train_loss_final": (self.extra["net.training.loss_final"], "nats"),
        }


# -- attribute -------------------------------------------------------------


class Attribute(Workload):
    name = "attribute"
    op_kinds = ("predict", "ig")
    end_to_end = {"items_per_s": "predict_samples_per_s", "op_p50_ms": "ig_sample_p50_ms"}

    def __init__(self, *args):
        super().__init__(*args)
        self.preds = None
        self.correct = np.empty(0, dtype=np.int64)
        self.ig_done = 0
        self.ig_unchecked = 0
        self.rel_gaps: list[float] = []

    def setup(self) -> None:
        # as in Train.setup
        self.data = self.stack = self.val_x = None
        self.data, self.config = _campaign_inputs(self.seed, self.size)
        self.val_x, self.val_y, _ = self.data.slice("validation")
        self.dtype = str(self.val_x.dtype)
        self.stack = models.build_cnn(37, 150, n_classes=harness.N_CLASSES,
                                      seed=MODEL_SEED)
        # warm the BatchNorm running statistics with train-mode passes
        train_x, _, _ = self.data.slice("train")
        with self.tracer.paused():
            for start in range(0, len(train_x), 32):
                self.stack.logits(train_x[start:start + 32], train=True)

    def next_op(self, index: int) -> Op:
        # predict + ablate, then one attributed sample, so that both kinds
        # are spread evenly over the run; the baselines cycle
        if index % 2 == 0:
            return Op("predict", self._predict)
        return Op("ig", self._integrated_gradients)

    def _predict(self) -> int:
        preds = self.stack.predict(self.val_x)
        check(preds.shape == self.val_y.shape and preds.min() >= 0
              and preds.max() < harness.N_CLASSES, "predictions out of range")
        check(self.preds is None or np.array_equal(preds, self.preds),
              "predictions changed between passes")
        reports = harness.ablate_on_baselines(self.stack, self.data, self.config,
                                              kinds=KINDS, slice_name="validation")
        for kind, report in reports.items():
            check(0.0 <= report.balanced_accuracy <= 1.0,
                  f"ablation {kind}: balanced accuracy {report.balanced_accuracy}")
        self.preds = preds
        self.correct = np.flatnonzero(preds == self.val_y)
        return len(self.val_x) * (1 + len(KINDS))

    def _integrated_gradients(self) -> int:
        check(self.correct.size > 0, "no correctly classified validation sample")
        k = self.ig_done
        self.ig_done += 1
        j = int(self.correct[k % self.correct.size])
        kind = KINDS[k % len(KINDS)]
        amap = attribution.integrated_gradients(
            self.stack, self.val_x[j], kind, steps=self.size.ig_steps,
            target_class=int(self.preds[j]), chunk_size=64)
        delta = abs(amap.output_delta)
        self.rel_gaps.append(amap.completeness_gap / delta if delta else math.inf)
        self.extra["attribution.rel_gap_p50"] = _median(self.rel_gaps)
        if delta < DELTA_FLOOR:
            check(kind not in CHECKED_KINDS,
                  f"sample {j} ({kind}): F(x) - F(x') = {amap.output_delta:.3g} "
                  f"is too small to check the completeness gap against")
            self.ig_unchecked += 1
            return 1
        check(amap.completeness_gap <= 0.05 * delta,
              f"sample {j} ({kind}): completeness gap {amap.completeness_gap:.3g} "
              f"for F(x) - F(x') = {amap.output_delta:.3g}")
        return 1

    def named_metrics(self, ops: list[dict]) -> dict:
        passes = [o for o in ops if o["ok"] and o["kind"] == "predict"]
        ig_ms = [o["s"] * 1e3 for o in ops if o["ok"] and o["kind"] == "ig"]
        return {
            "predict_samples_per_s": (_rate(sum(o["items"] for o in passes),
                                            sum(o["s"] for o in passes)), "1/s"),
            "ig_sample_p50_ms": (_percentile(ig_ms, 50), "ms"),
            "ig_sample_p90_ms": (_percentile(ig_ms, 90), "ms"),
            "ig_sample_count": (len(ig_ms), "count"),
            "ig_steps": (self.size.ig_steps, "count"),
            "ig_rel_gap_p50": (_median(self.rel_gaps), "1"),
            # samples whose |F(x) - F(x')| is below DELTA_FLOOR
            "ig_unchecked_count": (self.ig_unchecked, "count"),
        }


# -- prepare ---------------------------------------------------------------


class Prepare(Workload):
    name = "prepare"
    always = frozenset({"surrogate.simulate_run"})
    op_kinds = ("pipeline",)
    setup_repeats = 15  # a set-up is one simulate_run: cheap, so repeat it more
    end_to_end = {"items_per_s": "prepare_runs_per_s", "op_p50_ms": "simulate_run_p50_ms"}
    SENSOR_ID = 18  # a working leading-edge suction sensor

    def __init__(self, *args):
        super().__init__(*args)
        self.fingerprint = None

    def setup(self) -> None:
        self.generator = surrogate.GeneratorConfig()
        self.generator.duration_s = self.size.prepare_run_s
        self.dataset = self.workdir / "dataset"
        shutil.rmtree(self.dataset, ignore_errors=True)
        # let lazy initialisation in numpy/scipy finish before timing
        run = surrogate.simulate_run(self.generator, 1, 0, 1, seed=self.seed)
        spectra.shedding_scan(run, self.SENSOR_ID, [15.0, 30.0])

    def next_op(self, index: int) -> Op:
        return Op("pipeline", self._pipeline)

    def _pipeline(self) -> int:
        campaign = surrogate.generate_campaign(self.generator, seed=self.seed, aoa_deg=0.0)
        n_runs = len(campaign)
        in_memory = campaign.fingerprint()
        data.save_campaign(campaign, self.dataset)
        self.extra["data.bytes"] = sum(f.stat().st_size for f in self.dataset.rglob("*")
                                       if f.is_file())
        del campaign
        loaded = self.timed("load_campaign", data.load_campaign, self.dataset)
        fingerprint = loaded.fingerprint()
        check(fingerprint == in_memory, "campaign changed across save/load")
        check(self.fingerprint in (None, fingerprint),
              "campaign fingerprint differs between repeats at one seed")
        self.fingerprint = fingerprint

        n_samples = n_runs * self.size.prepare_windows
        for arch, shape in (("fcn-cnn", (n_samples, 37, 150)),
                            ("mean-mlp", (n_samples, 37))):
            config = harness.ExperimentConfig(
                arch=arch, seed=self.seed, window_count=self.size.prepare_windows)
            prepared = self.timed("prepare_data", harness.prepare_data, loaded, config)
            check(prepared.inputs.shape == shape,
                  f"{arch} inputs have shape {prepared.inputs.shape}, expected {shape}")
            self.dtype = str(prepared.inputs.dtype)
            del prepared
        scan = spectra.shedding_scan(loaded.runs[0], self.SENSOR_ID, [15.0, 30.0],
                                     layout=loaded.layout)
        check(not scan.detected_any(), "shedding detected in surrogate data")
        shutil.rmtree(self.dataset)
        return n_runs

    def named_metrics(self, ops: list[dict]) -> dict:
        ok_ops = [o for o in ops if o["ok"]]
        ok = {o["op"] for o in ok_ops}
        sims = self.tracer.durations_ms("surrogate.simulate_run", ok)
        prep_s = self.seconds("prepare_data", ok)
        return {
            "prepare_runs_per_s": (_rate(sum(o["items"] for o in ok_ops),
                                         sum(o["s"] for o in ok_ops)), "1/s"),
            "simulate_run_p50_ms": (_percentile(sims, 50), "ms"),
            "simulate_run_p90_ms": (_percentile(sims, 90), "ms"),
            "simulate_run_count": (len(sims), "count"),
            "load_campaign_s": (_median(self.seconds("load_campaign", ok)), "s"),
            # both architectures, per pass
            "prepare_data_s": (sum(prep_s) / len(ok) if ok else math.nan, "s"),
        }


WORKLOADS = {w.name: w for w in (Train, Attribute, Prepare)}
