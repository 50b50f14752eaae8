"""Self-tests of the benchmark's tracer and workloads.

Run with:  python -m pytest perfbench/tests -q
They use a cut-down demo campaign (one barrier sweep and one continuation)
and a small bubble batch so that they finish in well under a minute.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import micro  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SCH = workloads.load_toolkit(ROOT)
SUBSET = ("subsolution-sweep", "radial-continuation", "bishop-gromov")
REPEATED_COUNTS = ("solver.residual_evals", "solver.lu_factor.calls",
                   "conformal.schouten_background.calls", "barriers.points_evaluated")


class SmallBubbles(workloads.BubbleBatches):
    samples = 2


def _small_demo(tmp_path):
    demo = workloads.DemoCampaign(SCH, 3, ROOT, tmp_path)
    demo.campaigns = {c: demo.campaigns[c] for c in SUBSET}
    return demo


def _traced(workload):
    tracer = Tracer()
    layers.install(tracer, SCH)
    try:
        one = workload.run_pass(0)
    finally:
        tracer.uninstall()
    return one, layers.per_layer_metrics(tracer, SUBSET)


def _attributes():
    owners = list(SCH.values()) + [SCH["cones"].ConeSpec, SCH["cones"].CurvatureFunction,
                                   SCH["solver"].sla]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_uninstall_restores_every_patched_attribute():
    before = _attributes()
    tracer = Tracer()
    layers.install(tracer, SCH)
    patched = [key for key, value in _attributes().items() if before.get(key) is not value]
    assert len(patched) == len(layers.targets(SCH))
    tracer.uninstall()
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.fixture(scope="module")
def demo_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("demo")
    plain = _small_demo(tmp).run_pass(0)
    traced = [_traced(_small_demo(tmp)) for _ in range(2)]
    return plain, traced


def test_traced_and_untraced_outputs_identical(demo_runs, tmp_path):
    plain, traced = demo_runs
    assert all(one.digest == plain.digest for one, _ in traced)
    bubbles_plain = SmallBubbles(SCH, 5, ROOT, tmp_path).run_pass(0)
    bubbles_traced, metrics = _traced(SmallBubbles(SCH, 5, ROOT, tmp_path))
    assert bubbles_traced.digest == bubbles_plain.digest
    assert all(ok for _, ok in bubbles_plain.checks)
    assert metrics["bubbles.verify.calls"] == len(bubbles_plain.calls)


def test_traced_counts_repeat_exactly(demo_runs):
    _, traced = demo_runs
    (_, first), (_, second) = traced
    for name in REPEATED_COUNTS:
        assert first[name] > 0, name
        assert first[name] == second[name], name


def test_psi_branch_solver_counts(tmp_path):
    psi = workloads.PsiBranch(SCH, 0, ROOT, tmp_path)
    before = _attributes()
    one, metrics = _traced(psi)
    assert all(value is before[key] for key, value in _attributes().items())
    assert all(ok for _, ok in one.checks)
    assert len(one.units) == 4 + psi.budget
    assert metrics["solver.newton_solve.calls"] == 4 + psi.budget
    assert metrics["solver.continuation.accepted"] == psi.budget
    assert metrics["cones.contains.rows_per_call"] == 64


def test_per_layer_names_match_benchmark_json(demo_runs):
    _, traced = demo_runs
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    traced_names = set(traced[0][1])
    campaign_names = {n for n in declared if n.startswith("cli.campaign.")}
    micro_names = {n for n in declared if n.startswith("micro.")}
    assert traced_names <= declared
    assert traced_names | campaign_names | micro_names | {"trace.overhead_frac"} == declared
    assert set(micro.timings(SCH)) == micro_names
