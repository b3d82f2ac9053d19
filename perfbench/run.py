"""Benchmark of the aeroshm pipeline: end-to-end and per-layer metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload train|attribute|prepare \\
        --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
a separate run that records spans around the package's public functions
and reports the per-layer metrics. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. Earlier
lines give the machine facts and the workload's named metrics; the full
result (and the spans of a traced run) go to perfbench/out/.

See perfbench/README.md for the metrics, the workloads and why they were
chosen.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_FAILURES = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["train", "attribute", "prepare"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the benchmark's own smoke test")
    return p.parse_args(argv)


def pin_blas_threads() -> int:
    """Fix the BLAS thread count before numpy is imported: at most 2, and
    never more than the cores this process may run on."""
    threads = min(2, len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def run(workload, tracer, seconds: float, trace: bool) -> tuple[list[float], list[dict], float]:
    """Set up, then run operations until they have taken `seconds` of
    operation time and every kind has run. Returns the set-up times, the
    operations and the peak RSS in MB. The last operation may end past
    `seconds`: stopping before one that would overrun measured as little
    as two thirds of the time on workloads whose operations are long.

    The workload's set-ups are spread over the run, at equal shares of
    the operation time, so that their median does not hang on the machine's
    speed at one moment. Peak RSS is read before the second set-up: a
    process that sets up once and then runs operations, as a user's does.
    A later set-up only times set-up again; it rebuilds the state in a
    heap the first one left fragmented, which added 0 to 35 MB to the peak
    on `attribute`, depending on where in the run it came. A traced run
    alternates untraced and traced operations of each kind, and runs each
    kind at least three times: the first warms up, then at least one
    traced and one untraced remain to be compared."""
    need = 3 if trace else 1
    repeats = workload.setup_repeats
    counts = {kind: 0 for kind in workload.op_kinds}
    setup_s: list[float] = []
    ops: list[dict] = []
    spent = 0.0
    peak_rss_mb = math.nan

    def set_up():
        nonlocal peak_rss_mb
        if len(setup_s) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer.enabled = trace
        t0 = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t0)
        tracer.enabled = False

    while sum(not o["ok"] for o in ops) < MAX_FAILURES:
        if len(setup_s) < repeats and spent >= seconds * len(setup_s) / repeats:
            set_up()
            continue
        if min(counts.values()) >= need and spent >= seconds:
            break
        op = workload.next_op(len(ops))
        traced = trace and counts[op.kind] % 2 == 1
        tracer.op, tracer.enabled = len(ops), traced
        error = None
        t0 = time.perf_counter()
        try:
            items = op.run()
        except Exception:  # any failure of the program counts against it
            items, error = 0, traceback.format_exc()
            print(error, file=sys.stderr)
        duration = time.perf_counter() - t0
        tracer.op, tracer.enabled = -1, False
        ops.append({"op": len(ops), "kind": op.kind, "s": duration, "items": items,
                    "ok": error is None, "traced": traced, "error": error})
        counts[op.kind] += 1
        spent += duration
    while len(setup_s) < repeats:
        set_up()
    return setup_s, ops, peak_rss_mb


def finite(value):
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "aeroshm" / "__init__.py").is_file():
        print(f"perfbench: no aeroshm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    # NumPy asks for transparent huge pages on large arrays by default.
    # Whether it gets them depends on how fragmented the machine's memory
    # is at that moment: `attribute`'s peak RSS read 492 and 543 MB in two
    # runs of one seed. Without them `attribute` runs about 10% slower.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import machine
    import perlayer
    import workloads
    from spans import Tracer

    cls = workloads.WORKLOADS[args.workload]
    size = workloads.TINY if args.tiny else workloads.FULL
    trace = bool(args.trace)
    tracer = Tracer(always=frozenset() if trace else cls.always)
    workloads.instrument(tracer, None if trace else cls.always)
    out_dir = HERE / "out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = cls(args.seed, size, workdir, tracer)
        setup_s, ops, peak_rss_mb = run(workload, tracer, args.seconds, trace)
        failed = sum(not o["ok"] for o in ops)
        if trace:
            extra = dict(workload.extra,
                         **{"machine.gemm_gflops": perlayer.gemm_gflops(),
                            "trace.overhead_fraction": perlayer.trace_overhead(ops)})
            traced_ops = {o["op"] for o in ops if o["traced"]} | {-1}
            metrics = perlayer.per_layer(tracer, traced_ops, extra, cls.layer_root)
            named = metrics
        else:
            named = {"setup_s": (statistics.median(setup_s), "s"),
                     "peak_rss_mb": (peak_rss_mb, "MB"),
                     "failed_fraction": (failed / len(ops), "1"),
                     **workload.named_metrics(ops)}
            metrics = {"setup_s": named["setup_s"], "peak_rss_mb": named["peak_rss_mb"],
                       **{k: named[v] for k, v in workload.end_to_end.items()}}
    finally:
        tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    facts = machine.facts(ROOT, threads, workload.dtype)
    result = {
        "correct": failed == 0 and len(ops) > 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": finite(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "machine": facts,
              "setup_s": setup_s,
              "named": {k: {"value": finite(v), "unit": u} for k, (v, u) in named.items()},
              "ops": ops, "result": result}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if trace:
        tracer.write(out_dir / f"{stem}-spans.jsonl")

    print("machine " + json.dumps(facts))
    for name, (value, unit) in named.items():
        print(f"{args.workload:9s} {name:40s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
