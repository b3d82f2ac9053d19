"""Per-layer metrics derived from the spans of a traced run.

Times are busy milliseconds. Unless a name says otherwise, a `*_ms`
value is the mean per call of the function the span wraps. Counts are per
call of their owning function, so they repeat exactly between runs of one
program version however many operations fit into a run. A layer that a
workload never calls reports 0.
"""

from __future__ import annotations

import time

import numpy as np

from spans import Tracer

CONVS = ("conv0", "conv1", "conv2")


def gemm_gflops(reps: int = 7) -> float:
    """Plain NumPy GEMM rate at conv1's im2col shape, (32*150, 128*5) @
    (128*5, 256), as the reference for the conv layers' rates."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((32 * 150, 128 * 5))
    b = rng.standard_normal((128 * 5, 256))
    a @ b
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2.0 * a.shape[0] * a.shape[1] * b.shape[1] / float(np.median(times)) / 1e9


def trace_overhead(ops: list[dict]) -> float:
    """Traced over untraced wall time for the same operations, minus 1.

    Operations of one kind do equal work, and a traced run alternates
    untraced and traced operations of each kind, so each traced operation
    is compared with the mean untraced operation of its kind. The first
    operation of each kind, which warms up, is left out."""
    traced = untraced = 0.0
    for kind in {o["kind"] for o in ops}:
        of_kind = [o for o in ops if o["kind"] == kind and o["ok"]][1:]
        t = [o["s"] for o in of_kind if o["traced"]]
        u = [o["s"] for o in of_kind if not o["traced"]]
        if t and u:
            traced += sum(t)
            untraced += len(t) * float(np.mean(u))
    return traced / untraced - 1.0 if untraced else 0.0


def per_layer(tracer: Tracer, scope: set[int], extra: dict,
              layer_root: str | None = None) -> dict:
    """Per-layer metrics over the spans whose operation is in scope.

    extra carries values measured outside the spans, keyed by metric name.
    With layer_root set, the net.layers and net.stack metrics count only
    spans inside a span of that name: on train, the layers of train steps,
    not those of validation passes or checkpoint probes.
    """
    own = tracer.self_ms()
    inside = [False] * len(tracer.spans)
    for i, s in enumerate(tracer.spans):  # a parent precedes its children
        inside[i] = s.parent >= 0 and (inside[s.parent]
                                       or tracer.spans[s.parent].name == layer_root)
    picked = [(s, own[i]) for i, s in enumerate(tracer.spans) if s.op in scope]
    in_layers = [(s, own[i]) for i, s in enumerate(tracer.spans)
                 if s.op in scope and (layer_root is None or inside[i])]

    def spans(name, layer=None, pool=None):
        return [(s, o) for s, o in (picked if pool is None else pool)
                if s.name == name and (layer is None or s.attrs.get("layer") == layer)]

    def total(name, layer=None, pool=None):
        return sum(s.ms for s, _ in spans(name, layer, pool))

    def mean(name, layer=None, pool=None):
        found = spans(name, layer, pool)
        return total(name, layer, pool) / len(found) if found else 0.0

    def mean_self(name):
        found = spans(name)
        return sum(o for _, o in found) / len(found) if found else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def attr_total(name, attr):
        return sum(s.attrs[attr] for s, _ in spans(name))

    def per_call(name, attr):
        return ratio(attr_total(name, attr), len(spans(name)))

    # the layer metrics: per stack pass (per train step on train)
    lay = in_layers
    n_fwd = len(spans("net.stack.logits", pool=lay))
    n_bwd = len(spans("net.stack.backprop", pool=lay))
    m: dict[str, tuple[float, str]] = {}
    for conv in CONVS:
        for way in ("fwd", "bwd"):
            found = spans(f"net.layers.conv.{way}", conv, lay)
            busy_s = sum(s.ms for s, _ in found) / 1e3
            flops = sum(s.attrs["flops"] for s, _ in found)
            m[f"net.layers.{conv}.{way}_ms"] = (mean(f"net.layers.conv.{way}", conv, lay), "ms")
            m[f"net.layers.{conv}.{way}_gflops"] = (ratio(flops, busy_s) / 1e9, "GFLOP/s")
    for kind in ("batchnorm", "relu"):
        m[f"net.layers.{kind}.fwd_ms"] = (
            ratio(total(f"net.layers.{kind}.fwd", pool=lay), n_fwd), "ms")
        m[f"net.layers.{kind}.bwd_ms"] = (
            ratio(total(f"net.layers.{kind}.bwd", pool=lay), n_bwd), "ms")
    head = total("net.layers.head.fwd", pool=lay) + total("net.layers.head.bwd", pool=lay)
    m["net.layers.head.ms"] = (ratio(head, n_fwd), "ms")
    layer_calls = sum(1 for s, _ in lay if s.name.startswith("net.layers."))
    m["net.layers.calls"] = (ratio(layer_calls, n_fwd), "count")

    m["net.stack.logits_ms"] = (mean("net.stack.logits", pool=lay), "ms")
    m["net.stack.backprop_ms"] = (mean("net.stack.backprop", pool=lay), "ms")
    stack_self = sum(o for s, o in lay if s.name in ("net.stack.logits", "net.stack.backprop"))
    m["net.stack.self_ms"] = (ratio(stack_self, n_fwd), "ms")
    m["net.stack.predict_ms"] = (
        ratio(total("net.stack.predict"), attr_total("net.stack.predict", "batches")), "ms")
    m["net.stack.class_gradients_ms"] = (mean("net.stack.class_gradients"), "ms")
    m["net.losses.cross_entropy_ms"] = (mean("net.losses.cross_entropy"), "ms")
    m["net.optim.step_ms"] = (mean("net.optim.step"), "ms")

    m["net.training.evaluate_loss_ms"] = (mean("net.training.evaluate_loss"), "ms")
    m["net.training.copy_state_ms"] = (mean("net.training.copy_state"), "ms")
    m["net.training.fit_self_ms"] = (mean_self("net.training.fit"), "ms")
    m["net.training.steps"] = (
        ratio(len(spans("net.training.train_step")), len(spans("net.training.fit"))), "count")
    m["net.training.loss_final"] = (extra["net.training.loss_final"], "nats")
    m["net.checkpoint.save_ms"] = (mean("net.checkpoint.save"), "ms")
    m["net.checkpoint.load_ms"] = (mean("net.checkpoint.load"), "ms")
    m["net.checkpoint.bytes"] = (extra["net.checkpoint.bytes"], "B")

    ig = "attribution.integrated_gradients"
    m["attribution.integrated_gradients_self_ms"] = (mean_self(ig), "ms")
    m["attribution.points"] = (per_call(ig, "points"), "count")
    m["attribution.chunk_fill"] = (ratio(attr_total(ig, "points"), attr_total(ig, "slots")), "1")
    m["attribution.rel_gap_p50"] = (extra["attribution.rel_gap_p50"], "1")
    m["baselines.make_baseline_ms"] = (mean("baselines.make_baseline"), "ms")
    m["baselines.reduce_dataset_ms"] = (mean("baselines.reduce_dataset"), "ms")

    m["harness.prepare_data_ms"] = (mean("harness.prepare_data"), "ms")
    m["harness.model_inputs_ms"] = (mean("harness.model_inputs"), "ms")
    m["harness.ablate_ms"] = (mean("harness.ablate"), "ms")
    m["preprocessing.build_samples_ms"] = (mean("preprocessing.build_samples"), "ms")
    m["preprocessing.assign_splits_ms"] = (mean("preprocessing.assign_splits"), "ms")
    m["preprocessing.windows"] = (per_call("preprocessing.build_samples", "windows"), "count")
    m["preprocessing.window_bytes_copied"] = (
        per_call("preprocessing.build_samples", "bytes_copied"), "B")

    m["data.save_campaign_ms"] = (mean("data.save_campaign"), "ms")
    m["data.load_campaign_ms"] = (mean("data.load_campaign"), "ms")
    m["data.fingerprint_ms"] = (mean("data.fingerprint"), "ms")
    m["data.bytes"] = (extra["data.bytes"], "B")
    m["surrogate.simulate_run_ms"] = (mean("surrogate.simulate_run"), "ms")
    m["surrogate.simulate_motion_ms"] = (mean("surrogate.simulate_motion"), "ms")
    m["surrogate.ode_steps"] = (per_call("surrogate.simulate_motion", "ode_steps"), "count")
    m["spectra.shedding_scan_ms"] = (mean("spectra.shedding_scan"), "ms")

    m["machine.gemm_gflops"] = (extra["machine.gemm_gflops"], "GFLOP/s")
    m["trace.overhead_fraction"] = (extra["trace.overhead_fraction"], "1")
    return m
