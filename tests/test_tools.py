"""``tools/compare_outputs.compare`` on two output trees written by hand.

The comparison is how demo output identity is shown across revisions, so its
three rules are pinned here without git or a demo run: a number that moves is
reported with its size, a verdict that changes is non-numeric, and a file on
one side only is non-numeric.
"""

import importlib
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def compare(monkeypatch):
    # the script imports its sibling ``bench_pairs`` from its own directory
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("compare_outputs").compare


def _tree(root, stamp="2026-01-01", margin="4.0", ok="1", r1=0.125, runtime=1.0,
          profile=True):
    files = {
        "sweep/sweep.csv": (f"# schouten-report v1 generated={stamp}\n"
                            f"n,k,margin,pass\n4,1,{margin},1\n5,1,-2.0,{ok}\n"),
        "summary.json": json.dumps({
            "passed_all": True, "schema_version": 1, "seed": 0,
            "results": [{"id": "sweep", "passed": True, "r1_certified": {"4,1": r1},
                         "runtime_s": runtime}]}),
    }
    if profile:
        files["solve/profile.txt"] = "0.0 1.0\n3.14 1.5\n"
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_numeric_move_is_reported_with_its_size(tmp_path, compare):
    # the '#' stamp and runtime_s differ too and do not count
    parent = _tree(tmp_path / "parent")
    change = _tree(tmp_path / "change", stamp="2026-02-02", margin="4.5", runtime=2.0)
    lines, bad = compare(parent, change)
    assert bad == 0
    assert "sweep/sweep.csv margin: max |change| 0.5, over max |value| 0.125" in lines
    assert lines[-1].startswith("2 of 3 files unchanged")


@pytest.mark.parametrize("changed", [{"ok": "0"}, {"r1": 0.25}], ids=["pass", "r1_certified"])
def test_verdict_change_is_non_numeric(tmp_path, compare, changed):
    # both cells parse as numbers, but a verdict is not a number moving
    lines, bad = compare(_tree(tmp_path / "parent"), _tree(tmp_path / "change", **changed))
    assert bad == 1
    assert sum("NON-NUMERIC CHANGE" in line for line in lines) == 1


def test_missing_file_is_non_numeric(tmp_path, compare):
    lines, bad = compare(_tree(tmp_path / "parent"), _tree(tmp_path / "change", profile=False))
    assert bad == 1
    assert "solve/profile.txt: only on the parent side" in lines
