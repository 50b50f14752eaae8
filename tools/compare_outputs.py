#!/usr/bin/env python3
"""Compare the demo outputs of two revisions, column by column.

    python3 tools/compare_outputs.py --parent REV [--change REV] [--seed N ...]

Both sides are ``git archive`` copies in a temporary directory, made as
``tools/bench_pairs.py`` makes them (without ``--change`` the change side is
the index, so stage the change first).  For each seed N (default 0 and 1)
each side runs ``schouten run --config configs/demo.yaml --seed N`` from its
copy's ``src``, and one block of lines is printed per seed.  Every output
file is read as a table: a CSV by its header (the timestamped ``#`` line
skipped), any other text file as whitespace-separated columns ``col0``,
``col1``, ...; ``summary.json`` as one column per leaf, ``runtime_s``
skipped.  For every column that changed, the largest absolute
change and that change over the column's largest |value| (on the parent
side) are printed.

A change that is not a number moving is a *non-numeric* change: a cell that
does not parse as a number on either side, a different file, column or row
set, a different exit status, or any change in a verdict (``pass``,
``passed``, ``passed_all``, ``r1_certified``).  The script exits 1 if any
seed shows one, else 0.
"""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import checkout, git

VERDICTS = {"pass", "passed", "passed_all", "r1_certified"}


def run_demo(tree, out, seed):
    """Exit status of the demo run in the copy ``tree``, writing into ``out``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, "-m", "schouten.cli", "run", "--config",
                           "configs/demo.yaml", "--out", str(out), "--seed", str(seed)],
                          cwd=tree, env=env, capture_output=True).returncode


def _leaves(obj, path):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else str(key))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


def columns(path):
    """{column: [cells]} of one output file; cells are strings or JSON leaves."""
    text = path.read_text(encoding="utf-8")
    if path.name == "summary.json":
        summary = json.loads(text)
        results = {r["id"]: r for r in summary.pop("results")}
        return {name: [value] for name, value in _leaves({**summary, **results}, "")
                if not name.endswith("runtime_s")}
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO("\n".join(lines))))
        header, rows = rows[0], rows[1:]
    else:
        rows = [line.split() for line in lines]
        header = [f"col{i}" for i in range(max(map(len, rows), default=0))]
    return {name: [row[i] if i < len(row) else "" for row in rows]
            for i, name in enumerate(header)}


def _number(cell):
    if isinstance(cell, bool):
        return None
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def compare_column(name, old, new):
    """(max |change|, max |old value|) of a numeric column, or None when a
    cell changed in a way that is not a number moving."""
    if len(old) != len(new):
        return None
    worst = scale = 0.0
    for a, b in zip(old, new):
        x, y = _number(a), _number(b)
        if x is not None and math.isfinite(x):
            scale = max(scale, abs(x))
        if a == b:
            continue
        if x is None or y is None or set(name.replace("[", ".").split(".")) & VERDICTS:
            return None
        worst = max(worst, abs(y - x))
    return worst, scale


def compare(parent_out, change_out):
    """Printed report lines and the count of non-numeric changes."""
    files = sorted({p.relative_to(root) for root in (parent_out, change_out)
                    for p in root.rglob("*") if p.is_file()})
    lines, bad, same = [], 0, 0
    for rel in files:
        old_path, new_path = parent_out / rel, change_out / rel
        if not (old_path.exists() and new_path.exists()):
            lines.append(f"{rel}: only on the {'parent' if old_path.exists() else 'change'} side")
            bad += 1
            continue
        old, new = columns(old_path), columns(new_path)
        if list(old) != list(new):
            lines.append(f"{rel}: columns differ: {list(old)} -> {list(new)}")
            bad += 1
            continue
        changed = False
        for name in old:
            if old[name] == new[name]:
                continue
            changed = True
            result = compare_column(name, old[name], new[name])
            if result is None:
                lines.append(f"{rel} {name}: NON-NUMERIC CHANGE")
                bad += 1
            else:
                worst, scale = result
                rel_change = worst / scale if scale else math.inf
                lines.append(f"{rel} {name}: max |change| {worst:.3g}, "
                             f"over max |value| {rel_change:.3g}")
        same += not changed
    lines.append(f"{same} of {len(files)} files unchanged (outside runtime_s and "
                 f"'#' lines); {bad} non-numeric change(s)")
    return lines, bad


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default=None, help="a revision; default the index")
    parser.add_argument("--seed", type=int, nargs="+", default=[0, 1])
    args = parser.parse_args(argv)
    change = args.change or git("write-tree")
    failed = False
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        trees = {label: checkout(rev, tmp / label)
                 for label, rev in (("parent", args.parent), ("change", change))}
        for seed in args.seed:
            out = {label: tmp / f"{label}-out-{seed}" for label in trees}
            status = {label: run_demo(tree, out[label], seed) for label, tree in trees.items()}
            lines, bad = compare(out["parent"], out["change"])
            if status["parent"] != status["change"]:
                lines.append(f"exit status differs: {status['parent']} -> {status['change']}")
                bad += 1
            print(f"demo seed {seed}: parent {args.parent}, change "
                  f"{args.change or f'index tree {change}'}")
            print("\n".join(lines))
            failed = failed or bad > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
