"""The comparison tools on inputs written by hand, without git or a run.

``tools/compare_outputs.compare`` is how demo output identity is shown across
revisions, so its rules are pinned here: a number that moves is reported
with its size, a verdict that changes is non-numeric, a file or column on
one side only is non-numeric and the shared columns are still compared; with the demo run stubbed, its ``main`` runs
every seed and exits 1 if any seed shows such a change.
``tools/bench_pairs`` turns paired benchmark runs into a verdict; its claim
rule, regression bounds and unresolved spreads are pinned on synthetic runs,
and its reading of a run's stdout on a captured one.
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


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("bench_pairs")


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


def test_shared_columns_are_compared_when_a_column_is_added(tmp_path, compare):
    # the added column is non-numeric; the shared ones are still compared
    parent = _tree(tmp_path / "parent")
    change = _tree(tmp_path / "change")
    (change / "sweep/sweep.csv").write_text(
        "n,k,margin,pass,iters\n4,1,4.5,1,2\n5,1,-2.0,1,3\n")
    lines, bad = compare(parent, change)
    assert bad == 1
    assert "sweep/sweep.csv iters: column only on the change side" in lines
    assert "sweep/sweep.csv margin: max |change| 0.5, over max |value| 0.125" in lines
    # and a removed column is named from the parent side
    lines, bad = compare(change, parent)
    assert bad == 1 and "sweep/sweep.csv iters: column only on the parent side" in lines


def test_missing_file_is_non_numeric(tmp_path, compare):
    lines, bad = compare(_tree(tmp_path / "parent"), _tree(tmp_path / "change", profile=False))
    assert bad == 1
    assert "solve/profile.txt: only on the parent side" in lines


@pytest.mark.parametrize("changed, status, exit_code", [
    ({}, {}, 0),
    ({0: {"ok": "0"}}, {}, 1),                 # a verdict changes at seed 0 only
    ({0: {"margin": "4.5"}}, {}, 0),           # a number moves at seed 0
    ({}, {("change", 1): 1}, 1),               # the exit status differs at seed 1
])
def test_main_runs_every_seed_and_fails_if_any_does(tmp_path, monkeypatch, capsys,
                                                    changed, status, exit_code):
    # the demo run and the git copies are stubbed: each side's "run" writes a
    # hand-made output tree for its seed
    monkeypatch.syspath_prepend(str(TOOLS))
    mod = importlib.import_module("compare_outputs")
    monkeypatch.setattr(mod, "checkout", lambda rev, into: Path(rev))
    seeds = []

    def run_demo(tree, out, seed):
        seeds.append((tree.name, seed))
        _tree(out, **(changed.get(seed, {}) if tree.name == "change" else {}))
        return status.get((tree.name, seed), 0)

    monkeypatch.setattr(mod, "run_demo", run_demo)
    assert mod.main(["--parent", "parent", "--change", "change"]) == exit_code
    assert seeds == [("parent", 0), ("change", 0), ("parent", 1), ("change", 1)]
    out = capsys.readouterr().out
    assert out.count("demo seed 0: ") == 1 and out.count("demo seed 1: ") == 1
    mod.main(["--parent", "parent", "--change", "change", "--seed", "7"])
    assert seeds[-2:] == [("parent", 7), ("change", 7)]


SPEC = {"workloads": [{"name": "demo"}, {"name": "psi"}],
        "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.2},
                       {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}]}


def _runs(parent_wall, change_wall, parent_rss=60.0, change_rss=60.0):
    """Paired runs of one workload; run i of each side is pair i."""
    runs = []
    for pair, (pw, cw) in enumerate(zip(parent_wall, change_wall)):
        for label, wall, rss in (("parent", pw, parent_rss), ("change", cw, change_rss)):
            runs.append({"label": label, "pair": pair, "correct": True, "attempted": 40,
                         "metrics": {"wall_s": wall, "peak_rss_mb": rss}})
    return runs


def _summary(bench_pairs, **workloads):
    metrics = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    return {w: bench_pairs.summarise(runs, metrics) for w, runs in workloads.items()}


def test_claim_must_name_a_benchmark_workload_and_metric(bench_pairs):
    assert bench_pairs.parse_claim("psi:wall_s", SPEC) == ("psi", "wall_s")
    for claim in ("psi", "psi:wall", "other:wall_s", "psi:cones.margin.s", "wall_s:psi"):
        with pytest.raises(ValueError, match="is not WORKLOAD:METRIC"):
            bench_pairs.parse_claim(claim, SPEC)


def test_claim_met_needs_nine_wins_and_a_gap_beyond_the_parent_iqr(bench_pairs):
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    faster = [w - 0.1 for w in parent]
    one_loss = faster[:9] + [1.2]
    two_losses = faster[:8] + [1.2, 1.2]
    within_iqr = [w - 0.005 for w in parent]
    for change, met in ((faster, True), (one_loss, True), (two_losses, False),
                        (within_iqr, False)):
        summary = _summary(bench_pairs, demo=_runs(parent, change), psi=_runs(parent, parent))
        out = bench_pairs.verdict(summary, ("demo", "wall_s"), SPEC)
        assert out["claim"]["met"] is met, change
        assert out["claim"]["wins_needed"] == 9
    assert out["claim"]["change_wins"] == "10/10"
    assert out["claim"]["median_gap"] <= out["claim"]["parent_iqr"]
    assert bench_pairs.verdict(summary, None, SPEC)["claim"] is None


def test_regressions_are_metrics_worse_than_their_bound(bench_pairs):
    parent = [1.0] * 10
    summary = _summary(bench_pairs,
                       demo=_runs(parent, [1.19] * 10, change_rss=62.9),   # inside both
                       psi=_runs(parent, [1.25] * 10, change_rss=63.1))    # beyond both
    out = bench_pairs.verdict(summary, None, SPEC)
    assert [(r["workload"], r["metric"]) for r in out["regressions"]] == \
        [("psi", "wall_s"), ("psi", "peak_rss_mb")]
    assert out["regressions"][0]["worse_by"] == pytest.approx(0.25)
    assert out["regressions"][1] == {"workload": "psi", "metric": "peak_rss_mb",
                                     "parent": 60.0, "change": 63.1,
                                     "worse_by": pytest.approx(0.05167, abs=1e-5),
                                     "bound": 0.05}


def test_unresolved_are_spreads_wider_than_their_bound_unless_runs_separate(bench_pairs):
    # parent wall_s: median 1.0, IQR 0.3 (> 0.2 bound); peak_rss_mb constant
    wide = [0.8, 0.85, 1.0, 1.15, 1.2]
    summary = _summary(bench_pairs,
                       demo=_runs(wide, wide),                  # overlapping: unresolved
                       psi=_runs(wide, [w - 0.6 for w in wide]))  # every run better
    assert summary["demo"]["wall_s"]["parent_iqr"] == pytest.approx(0.3)
    assert not summary["demo"]["wall_s"]["separated"]
    assert summary["psi"]["wall_s"]["separated"]
    out = bench_pairs.verdict(summary, None, SPEC)
    assert out["unresolved"] == [{"workload": "demo", "metric": "wall_s",
                                  "parent_iqr_rel": pytest.approx(0.3), "bound": 0.2}]
    assert out["regressions"] == []
    # the same overlap inside the bound is resolved
    narrow = [1.0 + 0.1 * (w - 1.0) for w in wide]
    summary = _summary(bench_pairs, demo=_runs(narrow, narrow), psi=_runs(narrow, narrow))
    assert bench_pairs.verdict(summary, None, SPEC)["unresolved"] == []


# the stdout of one ``perfbench/run.py --workload bubble-batches`` run
RUN_STDOUT = """\
workload       bubble-batches seed=0 seconds=1 trace=0; closed loop, 1 caller, fresh single-threaded process
environment    {"affinity_cpus": 2, "config_sha256": "21377d41", "git_revision": "unavailable", \
"kernels_backend": "numpy", "nproc": 2, "numpy": "2.4.6", "python": "3.11.7", "scipy": "1.17.1", \
"threads": {"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}}
setup_s                                        0.511733 s      median of 5 fresh processes
wall_s                                         0.120391 s      median of 6 passes of 1 units
raw call latency                         p50 0.5002 ms, p99 1.103 ms over 1440 calls
failed_frac                                           0 ratio  0 of 1440 checks failed
{"correct": true, "attempted": 1440, "failed": 0, "metrics": \
{"wall_s": {"value": 0.12039105718004134, "unit": "s"}}}
"""


def test_run_stdout_gives_its_environment_line_and_final_json(bench_pairs):
    env, result = bench_pairs.parse_run(RUN_STDOUT)
    assert env == {"affinity_cpus": 2, "config_sha256": "21377d41",
                   "git_revision": "unavailable", "kernels_backend": "numpy", "nproc": 2,
                   "numpy": "2.4.6", "python": "3.11.7", "scipy": "1.17.1",
                   "threads": {"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                               "OPENBLAS_NUM_THREADS": "1"}}
    assert result == {"correct": True, "attempted": 1440, "failed": 0,
                      "metrics": {"wall_s": {"value": 0.12039105718004134, "unit": "s"}}}
    # a run that prints no environment line is an error, not an empty record
    with pytest.raises(ValueError, match="no environment line"):
        bench_pairs.parse_run(RUN_STDOUT.replace("environment ", "env "))
