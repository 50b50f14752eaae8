#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository benchmark, in one command.

    python3 tools/bench_pairs.py --label NAME [--parent REV] [--change REV]
        [--claim WORKLOAD:METRIC]

Both sides are fresh copies made the same way: ``git archive`` of a
revision, extracted into a temporary directory.  Without ``--change`` the
change side is the index (``git write-tree``), so stage the change first;
the report then records that tree's hash, which ``git archive`` accepts.
``perfbench/run.py`` runs as a black box in each copy, for every workload of
``BENCHMARK.json``: pair i uses seed SEED + i, and the side that runs first
alternates from pair to pair, so a drift of the host hits both sides alike.
The end-to-end metrics of the last JSON line of every run are summarised per
workload: median and quartiles (linear interpolation, inclusive) for each
side, the pairs the change wins, the median gap (positive when the change
is better), the parent's interquartile range and whether the runs separate
(every change run better than every parent run).  Each run keeps its
``attempted`` count of correctness checks, which grows with the passes the
run made (and so does ``peak_rss_mb``).  Each side keeps the ``environment``
line ``perfbench/run.py`` prints for its first run: worker versions, kernel
backend, the thread variables in force and the config's sha256.

The ``verdict`` block applies the rule: the ``--claim`` (a workload and an
end-to-end metric of ``BENCHMARK.json``, checked before anything runs) is met
when the change wins at least 9 in 10 of the pairs and its median gap exceeds
the parent's interquartile range; ``regressions`` lists every (workload,
metric) whose change median is worse than the parent's by more than the
metric's relative ``bound``; ``unresolved`` lists every (workload, metric)
whose parent interquartile range, relative to the parent median, is wider
than that bound while the runs do not separate: such a metric cannot be
read as unchanged.  Everything goes to ``BENCH_<label>.json`` at the
repository root.
"""

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS, SECONDS, SEED = 10, 30.0, 11
WIN_SHARE = 0.9


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def checkout(rev, into):
    """Committed files of ``rev`` extracted into the directory ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def parse_run(stdout):
    """``(environment, result)`` of one ``perfbench/run.py`` run's stdout: the
    JSON object its ``environment`` line prints and its final JSON line."""
    lines = stdout.strip().splitlines()
    env = [line[len("environment"):] for line in lines if line.startswith("environment ")]
    if not env:
        raise ValueError("the run printed no environment line")
    return json.loads(env[0]), json.loads(lines[-1])


def run_once(tree, workload, seed):
    """One ``perfbench/run.py`` run in ``tree``; ``parse_run`` of its stdout."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS)],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return parse_run(proc.stdout)


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 5), "q1": round(q1, 5), "q3": round(q3, 5)}


def summarise(runs, metrics):
    """Per-metric comparison of the paired parent and change runs of one workload."""
    pairs = sorted({r["pair"] for r in runs})
    side = {(r["label"], r["pair"]): r for r in runs}
    out = {"pairs": len(pairs), "all_correct": all(r["correct"] for r in runs)}
    for name, better in metrics.items():
        sign = 1.0 if better == "lower" else -1.0
        parent = [side["parent", p]["metrics"][name] for p in pairs]
        change = [side["change", p]["metrics"][name] for p in pairs]
        wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
        p, c = spread(parent), spread(change)
        out[name] = {"parent": p, "change": c, "change_wins": f"{wins}/{len(pairs)}",
                     "median_gap": round(sign * (p["median"] - c["median"]), 5),
                     "parent_iqr": round(p["q3"] - p["q1"], 5),
                     "separated": all(sign * (a - b) > 0 for a in parent for b in change)}
    return out


def parse_claim(claim, spec):
    """``(workload, metric)`` of a ``WORKLOAD:METRIC`` claim; ``ValueError``
    unless both are in the benchmark spec (the metric an end-to-end one)."""
    workload, sep, metric = claim.partition(":")
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    if not sep or workload not in workloads or metric not in metrics:
        raise ValueError(f"claim {claim!r} is not WORKLOAD:METRIC with a workload of "
                         f"{workloads} and an end-to-end metric of {metrics}")
    return workload, metric


def verdict(summary, claim, spec):
    """The claim's outcome, the metrics that regress beyond their bound and
    the unresolved metrics (parent spread wider than the bound, runs not
    separated).

    ``summary``: per-workload ``summarise`` output; ``claim``: a
    ``(workload, metric)`` pair or None."""
    out = {"claim": None, "regressions": [], "unresolved": []}
    if claim is not None:
        workload, metric = claim
        s = summary[workload][metric]
        wins, pairs = map(int, s["change_wins"].split("/"))
        needed = math.ceil(WIN_SHARE * pairs)
        out["claim"] = {"workload": workload, "metric": metric,
                        "change_wins": s["change_wins"], "wins_needed": needed,
                        "median_gap": s["median_gap"], "parent_iqr": s["parent_iqr"],
                        "met": wins >= needed and s["median_gap"] > s["parent_iqr"]}
    for workload, per_metric in summary.items():
        for m in spec["end_to_end"]:
            s = per_metric[m["name"]]
            parent = s["parent"]["median"]
            worse = -s["median_gap"] / abs(parent)
            if worse > m["bound"]:
                out["regressions"].append({
                    "workload": workload, "metric": m["name"], "parent": parent,
                    "change": s["change"]["median"], "worse_by": round(worse, 5),
                    "bound": m["bound"]})
            spread_rel = s["parent_iqr"] / abs(parent)
            if spread_rel > m["bound"] and not s["separated"]:
                out["unresolved"].append({
                    "workload": workload, "metric": m["name"],
                    "parent_iqr_rel": round(spread_rel, 5), "bound": m["bound"]})
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--change", default=None, help="a revision; default the index")
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        claim = parse_claim(args.claim, spec) if args.claim else None
    except ValueError as exc:
        parser.error(str(exc))
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    change = args.change or git("write-tree")
    runs, environment = [], {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": checkout(args.parent, Path(tmp) / "parent"),
                 "change": checkout(change, Path(tmp) / "change")}
        for workload in workloads:
            for pair in range(PAIRS):
                seed = SEED + pair
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for label in order:
                    env, out = run_once(trees[label], workload, seed)
                    environment.setdefault(label, env)
                    runs.append({"label": label, "workload": workload, "pair": pair,
                                 "seed": seed, "first": order[0],
                                 "metrics": {k: round(v["value"], 5)
                                             for k, v in out["metrics"].items()},
                                 "correct": out["correct"], "attempted": out["attempted"],
                                 "failed": out["failed"]})
                    print(f"{workload} pair {pair} {label}: {runs[-1]['metrics']}",
                          file=sys.stderr)
    summary = {w: summarise([r for r in runs if r["workload"] == w], metrics)
               for w in workloads}
    report = {
        "description": (
            f"Alternating parent/change pairs of `python3 perfbench/run.py --workload W "
            f"--seed S --seconds {SECONDS:g}` (S = {SEED} + pair index; the first side "
            f"alternates pair by pair), each side in its own `git archive` copy; medians "
            f"and quartiles (linear interpolation, inclusive) over the pairs."),
        "parent_revision": git("rev-parse", "--short", args.parent),
        "change_revision": (git("rev-parse", "--short", args.change) if args.change
                            else f"index tree {change}"),
        "environment": environment,
        "claim": args.claim,
        "verdict": verdict(summary, claim, spec),
        "summary": summary,
        "runs": runs,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
