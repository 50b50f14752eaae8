"""Deterministic CSV/JSON report serialisation and merging.

CSV files start with a single comment header line carrying the timestamp so
that report bodies are byte-identical across reruns with the same seed; the
summary JSON carries a schema version checked by ``merge_reports``.
"""

from __future__ import annotations

import datetime
import functools
import json
from pathlib import Path

SCHEMA_VERSION = 1


# the cell format of each type, in isinstance order (bool before int); a
# subclass such as np.float64 takes its base's format, any other type str(x)
_FORMATS = {type(None): lambda x: "", bool: lambda x: "1" if x else "0",
            float: "{:.17g}".format, int: str, str: str}


@functools.lru_cache(maxsize=None)
def _formatter(kind):
    return next((fmt for base, fmt in _FORMATS.items() if issubclass(kind, base)), str)


def _fmt(x):
    return _formatter(type(x))(x)


def _fmt_column(cells):
    """``_fmt`` of every cell, with one formatter for the whole column when
    all its cells share a type (mixed columns go cell by cell)."""
    kinds = set(map(type, cells))
    return list(map(_formatter(kinds.pop()) if len(kinds) == 1 else _fmt, cells))


def write_csv(path, columns, rows):
    rows = list(rows)
    for i, row in enumerate(rows):
        if len(row) != len(columns):
            raise ValueError(f"row {i} has {len(row)} cells for {len(columns)} columns")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    lines = [f"# schouten-report v{SCHEMA_VERSION} generated={stamp}"]
    lines.append(",".join(columns))
    # formatted column by column, then joined row by row
    cells = zip(*map(_fmt_column, zip(*rows))) if columns else [()] * len(rows)
    lines.extend(map(",".join, cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def csv_body(path):
    """File content without the timestamped comment line (determinism checks)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return "\n".join(line for line in lines if not line.startswith("#"))


def write_summary(path, summary):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = dict(summary)
    payload.setdefault("schema_version", SCHEMA_VERSION)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def load_summary(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def merge_reports(paths):
    """Aggregate campaign summaries into one roll-up summary.

    All inputs must share the schema version; aggregates pass/fail counts,
    campaign ids of failures, worst margins and total runtime.
    """
    merged = {
        "schema_version": SCHEMA_VERSION,
        "campaigns": 0,
        "passed": 0,
        "failed": 0,
        "failed_ids": [],
        "worst_margins": {},
        "runtime_s": 0.0,
    }
    for p in paths:
        summary = load_summary(p)
        version = summary.get("schema_version") if isinstance(summary, dict) else None
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"schema mismatch in {p}: {version} != {SCHEMA_VERSION}")
        items = summary.get("results")
        if not isinstance(items, list):
            # a roll-up written by merge counts campaigns, it does not list them
            raise ValueError(f"no 'results' list in {p}: not a 'schouten run' summary")
        for item in items:
            merged["campaigns"] += 1
            if item.get("passed"):
                merged["passed"] += 1
            else:
                merged["failed"] += 1
                merged["failed_ids"].append(item.get("id", "?"))
            if "worst_margin" in item and item["worst_margin"] is not None:
                merged["worst_margins"][item.get("id", "?")] = item["worst_margin"]
            merged["runtime_s"] += float(item.get("runtime_s", 0.0))
    merged["passed_all"] = merged["failed"] == 0
    return merged
