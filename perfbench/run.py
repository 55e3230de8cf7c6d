"""cubictrace benchmark: one command for every workload, from the repository root.

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, one after another

The load is one closed-loop client: one process at a time, no threads.
An untraced run starts one fresh interpreter (worker.py) per pass, with a
fixed PYTHONHASHSEED and cubictrace imported from this checkout's `src/`,
for as long as the next pass still fits in --seconds, after several more
fresh interpreters have timed the set-up alone.  A traced run makes one worker
do an untraced, a spanned and a profiled pass.  Every metric is printed by
name with its unit; the last line of standard output is the JSON result
of the (last) workload.  A results file with the environment, the metrics
and, for traced runs, the spans is written to perfbench/results/.

Times are scaled to a nominal host speed.  On a shared host the same code
ran up to twice as slow for seconds at a time, so every time of a run is
multiplied by REFERENCE_KERNEL_S / (the mean time of the reference kernel
that the run's passes sampled), and reads as seconds on a host where that
kernel takes REFERENCE_KERNEL_S.  The mean, not the median, because the
kernel's times fall into a fast and a slow group and the mean follows the
share of slow time.  Raw times and the factor are kept in the results file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
WORKLOADS = ("catalog", "braid-stream", "relations", "identities")
SETUP_PROBES = 11
DEADLINE_S = 175  # a run must end within 180 s
# the kernel's time at nominal speed, about its time on a quiet 2-vCPU
# Intel Xeon host under Python 3.11.7
REFERENCE_KERNEL_S = 0.1


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # Bytecode is always cached, in the benchmark's own directory, so that
    # set-up times an import from cached bytecode whatever the caller's
    # environment and whether or not the tree already holds __pycache__.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(RESULTS / "pycache")
    return env


def run_worker(args, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"worker {' '.join(args)} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it.

    Below twenty samples no percentile at or above the median qualifies,
    and the tail is the maximum.
    """
    if n < 20:
        return 100
    return (100 * (n - 10)) // n


def nearest_rank(sorted_values, q: int):
    rank = -(-q * len(sorted_values) // 100)  # ceil(q n / 100)
    return sorted_values[max(rank, 1) - 1]


def untraced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    # probes first: the first one in a fresh tree also fills the bytecode cache
    probes = [run_worker(["probe"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    workers = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        workers.append(run_worker(["pass", workload, str(seed)], deadline))
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            break
    passes = [w["passes"][0] for w in workers]
    scale = REFERENCE_KERNEL_S / statistics.mean(k for p in passes for k in p["kernel_s"])
    # An item's latency is its median over the passes, and the pass time is
    # rebuilt from those medians plus the median per-pass set-up, so that
    # contention on a shared host during one pass does not move it.
    per_item = [scale * statistics.median(p["times"][i] for p in passes)
                for i in range(len(passes[0]["times"]))]
    pass_setup = scale * statistics.median(p["seconds"] - sum(p["times"]) for p in passes)
    q = tail_percentile(len(per_item))
    per_item.sort()
    return {
        "workers": workers,
        "metrics": {
            "run_s": pass_setup + sum(per_item),
            "item_p50_ms": 1000 * statistics.median(per_item),
            "item_tail_ms": 1000 * nearest_rank(per_item, q),
            "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
            "setup_s": scale * statistics.median(probes),
        },
        "speed_scale": scale,
        "tail_percentile": q,
        "item_count": len(per_item),
        "raw_pass_seconds": [p["seconds"] for p in passes],
        "raw_setup_probes_s": probes,
    }


def traced(spec: dict, workload: str, seed: int, deadline: float) -> dict:
    worker = run_worker(["traced", workload, str(seed)], deadline)
    scale = REFERENCE_KERNEL_S / statistics.mean(worker["kernel_s"])
    seconds = {m["name"] for m in spec["per_layer"] if m["unit"] == "s"}
    return {
        "workers": [worker],
        "metrics": {name: value * scale if name in seconds else value
                    for name, value in worker["metrics"].items()},
        "speed_scale": scale,
        "untraced_run_s": scale * worker["untraced_run_s"],
        "traced_run_s": scale * worker["traced_run_s"],
        "self_s": {name: scale * t for name, t in worker["self_s"].items()},
    }


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    RESULTS.mkdir(exist_ok=True)
    if trace:
        out = traced(spec, workload, seed, deadline)
    else:
        out = untraced(workload, seed, seconds, deadline)
    passes = [p for w in out["workers"] for p in w["passes"]]
    out["passes"] = len(passes)
    out["attempted"] = sum(len(p["times"]) for p in passes)
    out["failed"] = sum(p["failed"] for p in passes)
    out["failed_frac"] = out["failed"] / out["attempted"]
    reference = out["workers"][0]["reference_digest"]
    out["correct"] = (out["failed"] == 0 and reference is not None
                      and all(p["digest"] == reference for p in passes))
    measured = out.pop("metrics")
    if trace:  # a layer the workload never calls reads 0
        wanted = {m["name"]: measured.get(m["name"], 0) for m in spec["per_layer"]}
    else:
        wanted = {m["name"]: measured[m["name"]] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    out["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in wanted.items()}
    out["environment"] = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": seed,
    }
    out.update(workload=workload, run_seconds=seconds, trace=trace)
    path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    return out


def report(out: dict) -> None:
    print(f"workload {out['workload']}  seed {out['environment']['seed']}  "
          f"passes {out['passes']}  correct {out['correct']}")
    for name, m in out["metrics"].items():
        note = ""
        if name == "item_tail_ms":
            note = f"  (p{out['tail_percentile']} of {out['item_count']} items)"
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"  {'failed_frac':<44} {out['failed_frac']:>14.6g} 1  "
          f"({out['failed']} of {out['attempted']} items)")
    if out["trace"]:
        print(f"  tracing overhead: traced run_s {out['traced_run_s']:.4f} s - "
              f"untraced run_s {out['untraced_run_s']:.4f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cubictrace" / "__init__.py").is_file():
        print(f"error: no cubictrace sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    ok = True
    for name in [args.workload] if args.workload else WORKLOADS:
        try:
            out = run_workload(spec, name, args.seed, seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(out)
        ok = ok and out["correct"]
        result = {k: out[k] for k in ("correct", "attempted", "failed", "metrics")}
        print(json.dumps(result), flush=True)
    # a single workload reports `correct` in its result; the full run also exits 1
    return 0 if ok or args.workload else 1


if __name__ == "__main__":
    sys.exit(main())
