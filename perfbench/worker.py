#!/usr/bin/env python3
"""Run one workload in this (fresh) process and print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE [--budget S]

MODE is ``setup`` (build the workload, report when it was ready, exit),
``run`` (closed loop of passes for about S seconds, untraced) or ``trace``
(the same loop with every pass under a fresh span tracer; the first pass
gives the per-layer metrics, then the per-layer timings at real call shapes
run untraced).  ``run.py`` starts this script; it is not meant to be run by
hand.  BLAS and OpenMP pools are pinned to one thread before numpy is
imported.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _passes(run_pass, budget):
    """Closed loop: start another pass only while it is expected to fit."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(len(passes)))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > budget:
            return passes


def _traced_passes(workload, sch, budget, result, trace_path):
    import layers
    import micro
    from spans import Tracer

    tracers = []

    def run_pass(index):
        tracer = Tracer()
        layers.install(tracer, sch)
        try:
            return workload.run_pass(index)
        finally:
            tracer.uninstall()
            if not tracers:
                tracers.append(tracer)

    passes = _passes(run_pass, budget)
    first = tracers[0]
    campaign_ids = list(sch["cli"].load_config(ROOT / "configs" / "demo.yaml")["campaigns"])
    result["per_layer"] = layers.per_layer_metrics(first, campaign_ids)
    result["per_layer"].update(micro.timings(sch))
    result["spans"] = len(first.start)
    first.save(trace_path)
    return passes


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--budget", type=float, default=10.0)
    args = parser.parse_args(argv)

    import numpy
    import scipy
    from workloads import PROBE_REF_S, WORKLOADS, load_toolkit, probe

    sch = load_toolkit(ROOT)
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=outdir))
    workload = WORKLOADS[args.workload](sch, args.seed, ROOT, scratch)
    result = {"ready": time.monotonic()}
    # host speed right after set-up, to normalise the set-up time
    result["speed"] = PROBE_REF_S / sorted(probe()[0] for _ in range(3))[1]
    try:
        if args.mode == "run":
            passes = _passes(workload.run_pass, args.budget)
        elif args.mode == "trace":
            passes = _traced_passes(workload, sch, args.budget, result,
                                    outdir / f"trace-{args.workload}.npz")
    finally:
        shutil.rmtree(scratch)
    if args.mode != "setup":
        checks = [c for p in passes for c in p.checks]
        if workload.repeatable:
            checks += [("repeat pass output identical", p.digest == passes[0].digest)
                       for p in passes[1:]]
        result.update({
            # per pass: normalised wall and CPU time, raw wall time
            "passes": [[sum(t[0] * PROBE_REF_S / t[2] for t in p.units.values()),
                        sum(t[1] * PROBE_REF_S / t[3] for t in p.units.values()),
                        sum(t[0] for t in p.units.values())] for p in passes],
            "units": len(passes[0].units),
            "calls_ms": [1e3 * c for p in passes for c in p.calls],
            "digest": passes[0].digest,
            "attempted": len(checks),
            "failed": [label for label, ok in checks if not ok],
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "env": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "kernels_backend": sch["_kernels"].BACKEND,
                "threads": {v: os.environ[v] for v in THREAD_VARS},
            },
        })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
