"""One pass of a workload inside a fresh interpreter; started by run.py.

    worker.py probe
        time the set-up (import plus T0Invariant construction);
    worker.py pass WORKLOAD SEED
        run every item once, in the seed's order, with fresh engines;
    worker.py traced WORKLOAD SEED
        run three passes: an untraced one, one with spans around the layer
        calls, and one under the profiler for call counts.

Each mode prints one JSON object on standard output.

Every pass also times a reference kernel, which shares no code with
cubictrace, before and after the pass and about every KERNEL_EVERY_S
seconds between its items; run.py scales the run's times by it.  The
times reported here are raw and leave the kernel out.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import sys
import time
import traceback
from collections import Counter

KERNEL_EVERY_S = 1.0


def reference_kernel():
    """Fixed pure-Python load with a few MB of live tuples, dicts and Fractions."""
    from fractions import Fraction

    table = {(i, i % 13): Fraction(i, 1 + i % 7) for i in range(10000)}
    for _ in range(2):
        table = {key: v + Fraction(key[1], 3) for key, v in table.items()}
    return sum(table.values(), Fraction(0))


def kernel_seconds() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def probe() -> dict:
    start = time.perf_counter()
    from cubictrace import braids, burau, coxeter, h3, hecke, knotdata, skein  # noqa: F401
    coxeter.T0Invariant()
    setup = time.perf_counter() - start
    import tracing, workloads  # noqa: F401,E401  (caches their bytecode for the passes)
    return {"setup_s": setup}


def failing_layer(exc: BaseException, default: str, layers) -> str:
    """The innermost cubictrace layer module on the exception's traceback."""
    layer = default
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        module = frame.f_globals.get("__name__", "")
        head, _, tail = module.partition(".")
        if head == "cubictrace" and tail in layers:
            layer = tail
    return layer


def run_pass(workload, items, order, tracer, layers, calibrate=True) -> dict:
    """Run every item once; the profiled pass leaves out the kernel (calibrate=False)."""
    lines = [""] * len(items)
    times = [0.0] * len(items)
    layer_failures: Counter = Counter()
    failed = 0
    kernel = [kernel_seconds()] if calibrate else []
    in_pass = 0.0  # kernel time spent between items
    start = last_kernel = time.perf_counter()
    ctx = workload.start_pass()
    for idx in order:
        tracer.set_item(idx)
        t = time.perf_counter()
        try:
            line, bad = workload.run_item(ctx, items[idx], tracer)
        except Exception as exc:  # one failed item; the workload goes on
            line = f"error {type(exc).__name__}: {exc}"
            bad = [failing_layer(exc, workload.default_layer, layers)]
        times[idx] = time.perf_counter() - t
        lines[idx] = line
        if bad:
            failed += 1
            layer_failures.update(set(bad))
        if calibrate and time.perf_counter() - last_kernel > KERNEL_EVERY_S:
            kernel.append(kernel_seconds())
            in_pass += kernel[-1]
            last_kernel = time.perf_counter()
    seconds = time.perf_counter() - start - in_pass
    tracer.set_item(None)
    if calibrate:
        kernel.append(kernel_seconds())
    return {
        "seconds": seconds,
        "times": times,
        "kernel_s": kernel,
        "digest": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        "failed": failed,
        "layer_failures": {layer: layer_failures.get(layer, 0) for layer in layers},
        "counters": workload.counters(ctx),
    }


def traced_passes(workload, items, order, layers, inner_spans, counted) -> dict:
    from tracing import NullTracer, Tracer, profiled_calls

    base = run_pass(workload, items, order, NullTracer(), layers)
    tracer = Tracer()
    with tracer.patched(inner_spans):
        traced = run_pass(workload, items, order, tracer, layers)
    held = []
    counts = profiled_calls(
        lambda: held.append(run_pass(workload, items, order, NullTracer(), layers, calibrate=False)),
        counted)
    profiled = held[0]

    metrics = {f"{name}.busy_s": busy for name, busy in tracer.busy.items()}
    metrics.update(counts)
    metrics.update(profiled["counters"])
    entries = metrics.get("skein.cache.entries", 0)
    calls = metrics["skein.piece_value.calls"]
    metrics["skein.cache.hit_ratio"] = 1 - entries / calls if calls else 0.0
    for layer in layers:
        metrics[f"{layer}.failed"] = sum(p["layer_failures"][layer]
                                         for p in (base, traced, profiled))
    metrics["trace.overhead_s"] = traced["seconds"] - base["seconds"]
    return {
        "passes": [base, traced, profiled],
        "metrics": metrics,
        "kernel_s": base["kernel_s"] + traced["kernel_s"],
        "untraced_run_s": base["seconds"],
        "traced_run_s": traced["seconds"],
        "self_s": tracer.self_times(),
        "spans": tracer.spans,
    }


def run(mode: str, workload_name: str, seed: int) -> dict:
    import workloads
    from tracing import NullTracer

    workload = workloads.WORKLOADS[workload_name]
    items = workload.items()
    order = list(range(len(items)))
    random.Random(seed).shuffle(order)
    if mode == "traced":
        out = traced_passes(workload, items, order, workloads.LAYERS,
                            workloads.INNER_SPANS, workloads.COUNTED)
    else:
        out = {"passes": [run_pass(workload, items, order, NullTracer(), workloads.LAYERS)]}
    out["reference_digest"] = workloads.load_reference()["digests"].get(workload_name)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def main(argv) -> int:
    if argv[1:] == ["probe"]:
        result = probe()
    elif len(argv) == 4 and argv[1] in ("pass", "traced"):
        result = run(argv[1], argv[2], int(argv[3]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
