#!/usr/bin/env python3
"""The repository benchmark: one workload per call, metrics on stdout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
demo-campaign, psi-branch, bubble-batches.  Every run is a closed loop (one
caller, each call waits for the previous one) in a fresh single-threaded
worker process, so set-up time includes the imports.

--trace 0 prints the end-to-end metrics: set-up time (median over several
fresh processes), wall and CPU time of one pass (median over the passes of
the run), and peak RSS.  Times are normalised to a reference host speed: a
pass is split into short units, each unit's time is scaled by the ratio of a
fixed reference to the time of a calibration probe run around it, which on a
shared host is steady where raw times are not (see workloads.py, README.md).
--trace 1 runs the loop untraced and then traced, for half the time each,
and prints the per-layer metrics of the first traced pass with the tracing
overhead.  Both check the outputs; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The metric names and units
are the ones listed in BENCHMARK.json.  Exit code 2 means the program or the
benchmark's own files are missing.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("demo-campaign", "psi-branch", "bubble-batches")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ONLY_RUNS = 4  # plus the measuring run's own set-up: a median of five
TIME_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


def spawn(workload, seed, mode, budget, deadline):
    """Run worker.py in a fresh process; returns its JSON plus its set-up time."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--budget", str(budget)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker exceeded the time limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - t0
    return result


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q / 100.0 * len(ordered)) - 1))]


def environment(worker_env):
    config = ROOT / "configs" / "demo.yaml"
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        git = rev.stdout.strip() if rev.returncode == 0 else "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        git = "unavailable"
    return dict(worker_env, git_revision=git,
                config_sha256=hashlib.sha256(config.read_bytes()).hexdigest(),
                nproc=os.cpu_count(), affinity_cpus=len(os.sched_getaffinity(0)))


def end_to_end(args, deadline):
    workers = [spawn(args.workload, args.seed, "setup", 0, deadline)
               for _ in range(SETUP_ONLY_RUNS)]
    run = spawn(args.workload, args.seed, "run", args.seconds, deadline)
    setups = [w["setup_s"] * w["speed"] for w in workers + [run]]
    passes = run["passes"]
    note = f"median of {len(passes)} passes of {run['units']} units"
    metrics = {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} fresh processes"),
        "wall_s": (statistics.median(p[0] for p in passes), note),
        "cpu_s": (statistics.median(p[1] for p in passes), note),
        "peak_rss_mb": (run["rss_mb"], "workload process"),
    }
    return metrics, [run]


def traced(args, deadline):
    plain = spawn(args.workload, args.seed, "run", args.seconds / 2.0, deadline)
    tr = spawn(args.workload, args.seed, "trace", args.seconds / 2.0, deadline)
    metrics = {k: (v, "first traced pass") for k, v in tr["per_layer"].items()}
    overhead = (statistics.median(p[0] for p in tr["passes"])
                / statistics.median(p[0] for p in plain["passes"]) - 1.0)
    metrics["trace.overhead_frac"] = (overhead, "traced vs untraced pass wall time")
    tr["attempted"] += 1
    if tr["digest"] != plain["digest"]:
        tr["failed"].append("traced and untraced outputs identical")
    return metrics, [plain, tr]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    needed = [ROOT / "BENCHMARK.json", ROOT / "configs" / "demo.yaml",
              ROOT / "src" / "schouten" / "__init__.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: missing {', '.join(missing)}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        metrics, runs = (traced if args.trace else end_to_end)(args, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    absent = [m["name"] for m in wanted if m["name"] not in metrics]
    if absent:
        print(f"error: no value for {', '.join(absent)}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = [label for r in runs for label in r["failed"]]
    print(f"workload       {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}; closed loop, 1 caller, fresh single-threaded process")
    print(f"environment    {json.dumps(environment(runs[0]['env']), sort_keys=True)}")
    if args.trace:
        print(f"spans          {runs[1]['spans']}, written to "
              f"perfbench/out/trace-{args.workload}.npz")
    for m in wanted:
        value, note = metrics[m["name"]]
        print(f"{m['name']:<40} {value:>14.6g} {m['unit']:<6} {note}")
    if not args.trace:
        raw = statistics.median(p[2] for p in runs[0]["passes"])
        print(f"{'raw pass wall time':<40} {raw:>14.6g} s      not normalised, median")
        calls = runs[0]["calls_ms"]
        if calls:
            print(f"{'raw call latency':<40} p50 {statistics.median(calls):.4g} ms, "
                  f"p99 {percentile(calls, 99):.4g} ms over {len(calls)} calls")
    print(f"{'failed_frac':<40} {len(failed) / attempted:>14.6g} ratio  "
          f"{len(failed)} of {attempted} checks failed")
    for label in failed[:20]:
        print(f"FAILED CHECK   {label}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
