import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from schouten import barriers, cli, reports

ROOT = Path(__file__).resolve().parents[1]


def write_cfg(tmp_path, campaigns, seed=0):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"seed": seed, "campaigns": campaigns}))
    return str(path)


FAST_CAMPAIGNS = {
    "mu": {"kind": "cones mu-plus", "dims": [3, 4], "tolerance": 1e-9},
    "hawking": {"kind": "compare hawking", "samples": 20},
    "gersh": {"kind": "verify gershgorin", "dims": [2, 3], "trials": 50},
    "suph": {"kind": "verify suph", "dim": 4, "background": "flat"},
}


def test_run_pass_exit_zero(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_CAMPAIGNS)
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == len(FAST_CAMPAIGNS)
    summary = reports.load_summary(tmp_path / "out" / "summary.json")
    assert summary["passed_all"]
    assert (tmp_path / "out" / "mu" / "mu_plus.csv").exists()


def test_run_list_enumerates(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_CAMPAIGNS)
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--list"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(FAST_CAMPAIGNS)
    assert any("cones mu-plus" in line for line in lines)


def test_run_genuine_failure_exit_one(tmp_path, capsys):
    # Gamma_1 in dimension 4 genuinely fails the sub-solution sweep
    cfg = write_cfg(tmp_path, {
        "bad-sub": {"kind": "verify barrier-sub", "pairs": [[4, 1]],
                    "deltas": [0.1], "num_r": 24, "background": "flat"},
    })
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["failed"] == ["bad-sub"]


def test_bishop_gromov_past_the_gamma_overflow_names_n(tmp_path):
    cfg = write_cfg(tmp_path, {"bg": {"kind": "compare bishop-gromov", "dims": [400]}})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    summary = reports.load_summary(tmp_path / "out" / "summary.json")
    (item,) = summary["results"]
    assert item["error"] == "DomainError: unit ball volume overflows a double at n=400"


def test_malformed_config_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("campaigns: [not: {a mapping\n")
    assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "config" in capsys.readouterr().err

    cfg = write_cfg(tmp_path, {"x": {"kind": "make coffee"}})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    msg = capsys.readouterr().err
    assert "campaign 'x'" in msg and "kind" in msg

    cfg = write_cfg(tmp_path, {"x": {"kind": "verify barrier-sub",
                                     "pairs": [[4, 9]]}})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2

    assert cli.main(["run", "--config", str(tmp_path / "missing.yaml"),
                     "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("top, field", [
    ({"seed": "abc"}, "seed"),
    ({"seed": -1}, "seed"),
    ({"seed": True}, "seed"),
    ({"sed": 4}, "sed"),
    ({"campaigns": []}, "campaigns"),
])
def test_malformed_top_level_exit_two(tmp_path, capsys, top, field):
    # a seed the generator cannot take, or a misspelt top-level field, is a
    # config error, not a traceback or a run at the default seed
    path = tmp_path / "cfg.yaml"
    cfg = {"seed": 0, "campaigns": {"mu": {"kind": "cones mu-plus", "dims": [3]}}}
    path.write_text(yaml.safe_dump(dict(cfg, **top)))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_negative_seed_flag_exit_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_CAMPAIGNS)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind, field", [
    ("verify gershgorin", "trials"),
    ("verify bubble", "samples"),
    ("verify bubble", "points"),
    ("compare hawking", "samples"),
    ("verify barrier-sub", "num_r"),
    ("verify barrier-sub", "num_dirs"),
    ("verify barrier-super", "num_r"),
    ("verify barrier-super", "num_dirs"),
    ("verify barrier-super", "mu_count"),
    ("compare bishop-gromov", "num_r"),
    ("solve radial", "steps"),
    ("solve radial", "nodes"),
    ("solve homotopy", "steps"),
    ("solve homotopy", "nodes"),
])
@pytest.mark.parametrize("value", [0, -2, "many"])
def test_nonpositive_sample_count_exit_two(tmp_path, capsys, kind, field, value):
    # a campaign that draws no samples checks nothing and must not pass; one
    # that cannot use the count must not fail with a traceback
    cfg = write_cfg(tmp_path, {"x": {"kind": kind, field: value}})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    msg = capsys.readouterr().err
    assert "campaign 'x'" in msg and f"field '{field}'" in msg
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["solve radial", "solve homotopy"])
@pytest.mark.parametrize("nodes", [1, 2])
def test_radial_grid_without_interior_node_exit_two(tmp_path, capsys, kind, nodes):
    # the radial grid needs an interior node
    test_nonpositive_sample_count_exit_two(tmp_path, capsys, kind, "nodes", nodes)


@pytest.mark.parametrize("spec, field", [
    ({"kind": "cones mu-plus", "tolerance": "abc"}, "tolerance"),
    ({"kind": "cones mu-plus", "tolerance": None}, "tolerance"),
    ({"kind": "verify bubble", "tolerance_analytic": [1e-8]}, "tolerance_analytic"),
    ({"kind": "verify bubble", "tolerance_fd": "tight"}, "tolerance_fd"),
    ({"kind": "verify barrier-sub", "r_min": "small"}, "r_min"),
    ({"kind": "verify barrier-sub", "pairs": [[4]]}, "pairs"),
    ({"kind": "verify barrier-sub", "pairs": [[4, 2, 1]]}, "pairs"),
    ({"kind": "verify barrier-sub", "pairs": [4]}, "pairs"),
    ({"kind": "verify barrier-sub", "pairs": [["four", 2]]}, "pairs"),
    ({"kind": "verify barrier-sub", "pairs": 4}, "pairs"),
    ({"kind": "verify barrier-sub", "negative_controls": [[4]]}, "negative_controls"),
    # a field the kind does not declare (a typo) is not silently ignored
    ({"kind": "verify barrier-sub", "num_dir": 2}, "num_dir"),
    ({"kind": "verify barrier-sub", "backgroud": "flat"}, "backgroud"),
    ({"kind": "cones mu-plus", "trials": 10}, "trials"),
    # a boolean is not a number
    ({"kind": "cones mu-plus", "tolerance": True}, "tolerance"),
    ({"kind": "verify gershgorin", "trials": True}, "trials"),
    # a value outside the field's choices
    ({"kind": "verify suph", "background": "flta"}, "background"),
    ({"kind": "verify barrier-super", "background": "round"}, "background"),
    ({"kind": "solve radial", "grid": "cheb"}, "grid"),
    ({"kind": "verify bubble", "modes": ["fdd"]}, "modes"),
    ({"kind": "verify bubble", "modes": []}, "modes"),
    # dimensions below the least the kind can use
    ({"kind": "cones mu-plus", "dims": [2]}, "dims"),
    ({"kind": "verify bubble", "dims": [3, 2]}, "dims"),
    ({"kind": "verify gershgorin", "dims": [0]}, "dims"),
    ({"kind": "verify suph", "dim": 2}, "dim"),
    ({"kind": "solve homotopy", "dim": 2}, "dim"),
    # k outside 1..dim
    ({"kind": "solve radial", "dim": 4, "k": 9}, "k"),
    ({"kind": "solve radial", "k": 4}, "k"),
    ({"kind": "solve homotopy", "dim": 3, "k": 4}, "k"),
    ({"kind": "solve homotopy", "k": 0}, "k"),
    # barrier parameters outside the ranges the sweeps accept
    ({"kind": "verify barrier-sub", "deltas": [0.3]}, "deltas"),
    ({"kind": "verify barrier-sub", "deltas": [0.1, 0.0]}, "deltas"),
    ({"kind": "verify barrier-super", "deltas": [1.0]}, "deltas"),
    ({"kind": "verify barrier-super", "epsilons": [1.5]}, "epsilons"),
    ({"kind": "verify barrier-super", "epsilons": [-0.1]}, "epsilons"),
    # mu must lie in (1, min(mu_plus(n, k), 2)) for every pair; mu_plus(5, 2) = 1.5
    ({"kind": "verify barrier-super", "pairs": [[5, 2]], "mus": [1.9]}, "mus"),
    ({"kind": "verify barrier-super", "pairs": [[4, 1]], "mus": [1.5, 1.0]}, "mus"),
    ({"kind": "verify barrier-super", "mus": [1.9]}, "mus"),
    # the super-solution sweep needs mu_plus(n, k) = (n - k)/k > 1, i.e. n > 2k
    ({"kind": "verify barrier-super", "pairs": [[5, 3]]}, "pairs"),
    ({"kind": "verify barrier-super", "pairs": [[5, 2], [6, 3]]}, "pairs"),
    ({"kind": "verify barrier-super", "pairs": [[4, 2]], "mus": [1.2]}, "pairs"),
    # mus up to the closed form (n - k)/k = 4/3 for [7, 3]; bisection puts
    # mu_plus above it
    ({"kind": "verify barrier-super", "pairs": [[7, 3]], "mus": [4.0 / 3.0]}, "mus"),
    # the Chebyshev-Lobatto grid is gone; the cosine grid replaced it
    ({"kind": "solve radial", "grid": "lobatto"}, "grid"),
])
def test_malformed_number_or_pair_exit_two(tmp_path, capsys, spec, field):
    # a value the runners cannot read is a config error naming the field,
    # not a traceback
    cfg = write_cfg(tmp_path, {"x": spec})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    msg = capsys.readouterr().err
    assert "campaign 'x'" in msg and f"field '{field}'" in msg
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("spec, ceiling", [
    pytest.param({"kind": "verify barrier-sub", "pairs": [[4, 2]], "r_min": 0.3},
                 "r1 = 0.5 (n = 4)", id="sub"),
    pytest.param({"kind": "verify barrier-super", "r_min": 0.25}, "r1 = 0.5 (n = 4)",
                 id="super"),
    # n = 3 keeps the sub-solution ceiling below n - 2 - 2 delta; n = 4 would
    # still try 0.5 > 2 r_min
    pytest.param({"kind": "verify barrier-sub", "dims": [4, 3], "deltas": [0.24],
                  "r_min": 0.24}, "r1 = 0.468 (n = 3)", id="sub-n3"),
])
def test_r_min_above_every_ceiling_exit_two(tmp_path, capsys, spec, ceiling):
    # a sweep that tries no dyadic ceiling certifies nothing: the library
    # sweep raises, and the config names the field first
    cfg = write_cfg(tmp_path, {"x": spec})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    msg = capsys.readouterr().err
    assert "campaign 'x'" in msg and "field 'r_min'" in msg and ceiling in msg
    assert not (tmp_path / "o").exists()


def test_suph_delta_past_the_cut_locus_exit_two(tmp_path, capsys):
    # normal coordinates on the sphere end at r = pi: the grid up to
    # 0.999 delta must stay inside, a config rule before any campaign runs
    cfg = write_cfg(tmp_path, {"ok": dict(FAST_CAMPAIGNS["suph"]),
                               "x": {"kind": "verify suph", "background": "sphere",
                                     "delta": 4.0}})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    msg = capsys.readouterr().err
    assert "campaign 'x'" in msg and "field 'delta'" in msg and "cut locus" in msg
    assert "4.0 reaches it" in msg
    assert not (tmp_path / "o").exists()
    # the same delta on the flat chart, and a sphere grid inside pi, load
    assert cli._params("x", {"kind": "verify suph", "delta": 4.0})["delta"] == 4.0
    assert cli._params("x", {"kind": "verify suph", "background": "sphere",
                             "delta": 3.0})["delta"] == 3.0


def test_barrier_range_end_points():
    # the closed end of each range reads; the open ends are rejected above
    sub = cli._params("x", {"kind": "verify barrier-sub", "deltas": [1e-9, 0.2499]})
    sup = cli._params("x", {"kind": "verify barrier-super", "deltas": [1e-9, 0.999],
                            "epsilons": [0, 0.999]})
    assert sub["deltas"] == [1e-9, 0.2499]
    assert sup["deltas"] == [1e-9, 0.999] and sup["epsilons"] == [0.0, 0.999]
    mus = cli._params("x", {"kind": "verify barrier-super", "pairs": [[5, 2], [4, 1]],
                            "mus": [1.0001, 1.4999]})
    assert mus["mus"] == [1.0001, 1.4999]
    # up to mu_plus(5, 2) = 1.5 itself, which bisection puts below 1.5 - 1e-11
    mus = cli._params("x", {"kind": "verify barrier-super", "pairs": [[5, 2]],
                            "mus": [1.49999999999]})
    assert mus["mus"] == [1.49999999999]


@pytest.mark.parametrize("kind, n, k", [("verify barrier-sub", 4, 2),
                                        ("verify barrier-super", 4, 1)])
def test_sweep_campaign_defaults_are_the_library_defaults(kind, n, k):
    # a campaign that sets no sweep field runs the BarrierSweepConfig
    # defaults, so the CLI and the library cannot drift apart; only the
    # super-solution deltas and mu grid are the campaign's own
    cfg = cli._sweep_config(cli._params("x", {"kind": kind}), n, k)
    want = barriers.BarrierSweepConfig(n=n, k=k)
    if kind == "verify barrier-super":
        want = dataclasses.replace(want, deltas=(0.25, 0.5), mus=barriers.mu_grid(n, k, 3))
    assert cfg == want


def test_jobs_validation(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_CAMPAIGNS)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--jobs", "0"]) == 2


def test_deterministic_csv_bodies(tmp_path):
    campaigns = {
        "mu": {"kind": "cones mu-plus", "dims": [3, 4]},
        "bubble": {"kind": "verify bubble", "dims": [3], "samples": 3,
                   "points": 4, "modes": ["analytic"]},
        "gersh": {"kind": "verify gershgorin", "dims": [3], "trials": 40},
    }
    cfg = write_cfg(tmp_path, campaigns, seed=7)
    cli.main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
    cli.main(["run", "--config", cfg, "--out", str(tmp_path / "b")])
    for rel in ("mu/mu_plus.csv", "bubble/bubble.csv", "gersh/gershgorin.csv"):
        assert reports.csv_body(tmp_path / "a" / rel) \
            == reports.csv_body(tmp_path / "b" / rel)
    # a different seed changes the randomised campaign rows
    cli.main(["run", "--config", cfg, "--out", str(tmp_path / "c"),
              "--seed", "8"])
    assert reports.csv_body(tmp_path / "a" / "bubble/bubble.csv") \
        != reports.csv_body(tmp_path / "c" / "bubble/bubble.csv")


def _fmt_per_cell(x):
    # the cell format as isinstance rules, one cell at a time
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def test_write_csv_matches_the_per_cell_format(tmp_path):
    # one formatter per column of one type, else one per cell: the body must
    # be the per-cell join either way
    nan, inf = float("nan"), float("inf")
    columns = ("mixed", "flag", "count", "value", "np", "text", "none", "mode", "np_mixed")
    rows = [(None, True, 3, -0.0, np.float64(0.1), "a", None, "analytic", np.int64(3)),
            (2.5, False, -4, nan, np.float64(-0.0), None, None, "fd", np.bool_(True)),
            (7, True, 0, inf, np.float64(nan), 2.0, None, "fd", np.float64(0.5)),
            (False, False, 10 ** 20, -inf, np.float64(-inf), 1, None, "analytic", 0.25),
            (0.1, True, 1, 1e-300, np.float64(1e300), "b", None, "", np.float32(0.1))]
    reports.write_csv(tmp_path / "mixed.csv", columns, rows)
    want = [",".join(columns)] + [",".join(map(_fmt_per_cell, row)) for row in rows]
    assert reports.csv_body(tmp_path / "mixed.csv") == "\n".join(want)
    assert [reports._fmt(v) for row in rows for v in row] \
        == [_fmt_per_cell(v) for row in rows for v in row]
    assert want[1:3] == [",1,3,-0,0.10000000000000001,a,,analytic,3",
                         "2.5,0,-4,nan,-0,,,fd,True"]
    with pytest.raises(ValueError, match="row 1 has 8 cells for 9 columns"):
        reports.write_csv(tmp_path / "short.csv", columns, [rows[0], rows[1][:8]])


def _gershgorin_draws(rng, n, trials):
    """One dimension's (m, mt) stacks as the campaign draws them: every m,
    then every scale, then every noise matrix."""
    m = rng.standard_normal((trials, n, n))
    scale = 10.0 ** rng.uniform(-8, 0, size=trials)
    noise = rng.standard_normal((trials, n, n))
    m = 0.5 * (m + m.transpose(0, 2, 1))
    return m, m + (scale * 0.5)[:, None, None] * (noise + noise.transpose(0, 2, 1))


def _gershgorin_per_pair(rng, dims, trials):
    """The campaign as one ``gershgorin_pairing`` call per trial."""
    rows = []
    for n in dims:
        sharp = 0.0
        for m, mt in zip(*_gershgorin_draws(rng, n, trials)):
            sharp = max(sharp, barriers.gershgorin_pairing(m, mt).ratio)
        rows.append((n, trials, sharp, n ** 2, sharp / n ** 2))
    return rows


def test_gershgorin_campaign_matches_per_pair_loop(tmp_path):
    spec = {"kind": "verify gershgorin", "dims": [2, 5, 8], "trials": 200}
    cfg = write_cfg(tmp_path, {"gersh": spec}, seed=7)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    rng = cli._rng_for(7, "gersh")
    rows = _gershgorin_per_pair(rng, spec["dims"], spec["trials"])
    reports.write_csv(tmp_path / "loop.csv", ("n", "trials", "measured_constant",
                                              "bound_constant", "fraction_of_bound"), rows)
    assert reports.csv_body(tmp_path / "out" / "gersh" / "gershgorin.csv") \
        == reports.csv_body(tmp_path / "loop.csv")
    # the campaign consumes the stream exactly as the per-pair loop does
    campaign_rng = cli._rng_for(7, "gersh")
    summary, _ = cli._run_gershgorin(spec, campaign_rng)
    assert campaign_rng.bit_generator.state == rng.bit_generator.state
    assert summary["trials"] == {"2": 200, "5": 200, "8": 200}
    assert summary["out_of_bound"] == {"2": 0, "5": 0, "8": 0}
    written = reports.load_summary(tmp_path / "out" / "summary.json")["results"][0]
    assert written["out_of_bound"] == summary["out_of_bound"]


@pytest.mark.parametrize("seed", [0, 1])
def test_gershgorin_constants_move_only_at_eigh_rounding(seed):
    # the demo's draws: the eigvalsh path against an eigh oracle for the
    # spectrum of m.  The near-1e-8 perturbations divide ~1e-16 of rounding
    # by ~1e-8, so the constants agree to about 8 digits, not bit for bit.
    spec = {"dims": list(range(2, 9)), "trials": 1000}
    summary, _ = cli._run_gershgorin(spec, cli._rng_for(seed, "eigenvalue-continuity"))
    rng = cli._rng_for(seed, "eigenvalue-continuity")
    for n in spec["dims"]:
        m, mt = _gershgorin_draws(rng, n, spec["trials"])
        ratio, within = barriers.gershgorin_ratios(m, mt)
        vals_m = np.linalg.eigh(m)[0]
        total = np.abs(vals_m - np.linalg.eigvalsh(mt)).sum(axis=-1)
        eps = np.abs(m - mt).max(axis=(-2, -1))
        slack = 1e-12 * np.maximum(1.0, np.abs(vals_m).max(axis=-1))
        oracle_within = ~(total > n ** 2 * eps + slack)
        assert np.array_equal(within, oracle_within) and within.all()
        measured = summary["measured_constants"][str(n)]
        assert measured == float(ratio.max())
        oracle = float((total / eps).max())
        assert abs(measured - oracle) <= 1e-6 * oracle


def test_gershgorin_out_of_bound_trial_fails_and_is_not_sharp(monkeypatch):
    spec = {"kind": "verify gershgorin", "dims": [3, 4], "trials": 30}
    real = barriers.gershgorin_ratios
    seen = []

    def first_trial_out_of_bound(m, mt):
        ratio, within = real(m, mt)
        seen.append(ratio.copy())
        ratio[0], within[0] = 1e9, False
        return ratio, within

    monkeypatch.setattr(barriers, "gershgorin_ratios", first_trial_out_of_bound)
    summary, files = cli._run_gershgorin(spec, cli._rng_for(0, "gersh"))
    assert summary["passed"] is False
    assert summary["out_of_bound"] == {"3": 1, "4": 1}
    sharp = [row[2] for row in files[0][2]]
    assert sharp == [float(r[1:].max()) for r in seen]


def test_parallel_jobs_match_serial(tmp_path):
    campaigns = {
        "mu": {"kind": "cones mu-plus", "dims": [3, 4]},
        "gersh": {"kind": "verify gershgorin", "dims": [3], "trials": 30},
    }
    cfg = write_cfg(tmp_path, campaigns, seed=3)
    cli.main(["run", "--config", cfg, "--out", str(tmp_path / "ser")])
    cli.main(["run", "--config", cfg, "--out", str(tmp_path / "par"),
              "--jobs", "2"])
    for rel in ("mu/mu_plus.csv", "gersh/gershgorin.csv"):
        assert reports.csv_body(tmp_path / "ser" / rel) \
            == reports.csv_body(tmp_path / "par" / rel)


def test_solve_campaigns_write_transcripts(tmp_path):
    cfg = write_cfg(tmp_path, {
        "radial": {"kind": "solve radial", "dim": 4, "k": 2, "nodes": 48,
                   "steps": 5},
        "homotopy": {"kind": "solve homotopy", "dim": 4, "k": 2, "nodes": 48,
                     "steps": 5},
    })
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    body = reports.csv_body(tmp_path / "out" / "radial" / "solve_radial.csv")
    assert body.splitlines()[0] == "step,s,t,residual,min_u,max_u,cone_margin"
    profile = (tmp_path / "out" / "radial" / "profile.txt").read_text()
    rows = [line.split() for line in profile.strip().splitlines()]
    assert len(rows) == 48 and all(len(r) == 2 for r in rows)
    assert (tmp_path / "out" / "homotopy" / "solve_homotopy.csv").exists()


def test_radial_start_lies_inside_the_cone():
    # the demo's radial start, 1 + perturbation cos(theta) at n = 3, k = 2 on
    # 128 nodes: the default 0.1 has pole margin (-0.2/0.9 + 1/2) 0.9^-4 ~
    # 0.42; the earlier default 0.2 lay on the cone boundary at theta = pi,
    # where rounding decided the sign of its margin
    from schouten import solver
    from schouten.cones import CurvatureFunction

    spec = cli.load_config(ROOT / "configs" / "demo.yaml")["campaigns"]["radial-continuation"]
    par = cli._params("radial-continuation", spec)
    assert par["perturbation"] == 0.1
    n, f = par["dim"], CurvatureFunction.sigma_root(par["dim"], par["k"])
    margins = []
    for amp in (par["perturbation"], 0.2):
        prof = solver.RadialProfile.make(n, par["nodes"], values=lambda th: 1.0 + amp * np.cos(th))
        margins.append(solver.make_state(prof, f, 2.0 / (n - 2.0), 1.0).min_cone_margin)
    assert margins[0] == pytest.approx((-0.2 / 0.9 + 0.5) * 0.9 ** -4, rel=1e-9)
    assert abs(margins[1]) < 1e-10


def test_cosine_grid_replaces_lobatto(tmp_path, capsys):
    # the cosine grid is the only radial grid: a config that still names a
    # grid (the removed Chebyshev-Lobatto or uniform one, or the cosine grid
    # itself) is an unknown field, and a solve runs to s = 0 at u = 1
    for kind in ("solve radial", "solve homotopy"):
        for grid in ("lobatto", "uniform", "cosine"):
            cfg = write_cfg(tmp_path, {"x": {"kind": kind, "grid": grid}})
            assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
            assert "field 'grid' is not one of" in capsys.readouterr().err
    summary = cli.run_campaigns({"campaigns": {"r": {
        "kind": "solve radial", "dim": 4, "k": 2, "nodes": 48, "steps": 5}}},
        tmp_path / "out")
    result = summary["results"][0]
    assert result["passed"], result
    assert result["max_dev_from_const"] <= 1e-8


def test_one_step_homotopy_bisects_past_the_collapsed_scale(tmp_path):
    # one leg from the t = 0 constant: Newton's first run drives u to ~1.8e10,
    # where the residual passes tol only in absolute terms; the backward-error
    # test refuses that state, and the walk bisects to t = 0.5, 0.75, 1
    summary = cli.run_campaigns({"campaigns": {"h": {
        "kind": "solve homotopy", "dim": 4, "k": 2, "nodes": 96, "steps": 1}}},
        tmp_path)
    result = summary["results"][0]
    assert result["passed"], result
    assert result["end_dev_from_one"] < 1e-10
    assert result["worst_margin"] == pytest.approx(0.03125, rel=1e-12)
    body = reports.csv_body(tmp_path / "h" / "solve_homotopy.csv")
    assert [float(row.split(",")[2]) for row in body.splitlines()[1:]] \
        == [0.0, 0.5, 0.75, 1.0]


def test_heavy_imports_load_where_used():
    # in a fresh interpreter (this one has scipy and yaml): importing the CLI
    # loads neither scipy, PyYAML, the process pool nor numpy.polynomial (the
    # quadrature rule is built at first use); the first config read loads
    # PyYAML, and the first Newton run scipy.linalg and no other scipy
    # subpackage (scipy.integrate would pull special, optimize, sparse, ...)
    code = """if True:
        import json, pkgutil, sys
        def heavy():
            return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "yaml")
                          or m == "concurrent.futures.process"
                          or m.startswith("numpy.polynomial"))
        import numpy as np
        import schouten.cli as cli
        from schouten import solver
        from schouten.cones import CurvatureFunction
        stages = [heavy()]
        cli.load_config(sys.argv[1])
        stages.append(heavy())
        solver.newton_solve(solver.RadialProfile.make(4, 16),
                            CurvatureFunction.sigma_root(4, 2), 1.0,
                            psi=lambda th: 1.0 + 0.1 * np.cos(th))
        import scipy
        public = {m.name for m in pkgutil.iter_modules(scipy.__path__)
                  if m.ispkg and not m.name.startswith("_")}
        stages.append(sorted(public & {m.split(".")[1] for m in sys.modules
                                       if m.startswith("scipy.")}))
        print(json.dumps(stages))
    """
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "configs" / "demo.yaml")],
        capture_output=True, text=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    on_import, on_config, on_solve = json.loads(proc.stdout)
    assert on_import == []
    assert "yaml" in on_config
    assert not [m for m in on_config if m.split(".")[0] == "scipy"]
    assert on_solve == ["linalg"]


def test_merge_reports(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"mu": {"kind": "cones mu-plus", "dims": [3]}})
    cli.main(["run", "--config", cfg, "--out", str(tmp_path / "good")])
    bad_cfg = write_cfg(tmp_path, {
        "bad-sub": {"kind": "verify barrier-sub", "pairs": [[4, 1]],
                    "deltas": [0.1], "num_r": 16, "background": "flat"}})
    cli.main(["run", "--config", bad_cfg, "--out", str(tmp_path / "bad")])
    capsys.readouterr()

    rc = cli.main(["merge", str(tmp_path / "good" / "summary.json")])
    assert rc == 0
    merged = json.loads(capsys.readouterr().out)
    assert merged["passed_all"] and merged["campaigns"] == 1

    rc = cli.main(["merge", str(tmp_path / "good" / "summary.json"),
                   str(tmp_path / "bad" / "summary.json"),
                   "--out", str(tmp_path / "merged.json")])
    assert rc == 1
    capsys.readouterr()
    merged = json.loads((tmp_path / "merged.json").read_text())
    assert merged["failed"] == 1 and merged["failed_ids"] == ["bad-sub"]

    # empty input: empty summary, exit 0
    rc = cli.main(["merge"])
    assert rc == 0
    merged = json.loads(capsys.readouterr().out)
    assert merged["campaigns"] == 0 and merged["passed_all"]


def test_merge_rejects_a_roll_up(tmp_path, capsys):
    # a roll-up holds counts, not campaigns: merging it again must not read
    # it as one campaign that passed
    good = write_cfg(tmp_path, {"mu": {"kind": "cones mu-plus", "dims": [3]}})
    cli.main(["run", "--config", good, "--out", str(tmp_path / "good")])
    bad = write_cfg(tmp_path, {
        "bad-sub": {"kind": "verify barrier-sub", "pairs": [[4, 1]],
                    "deltas": [0.1], "num_r": 16, "background": "flat"}})
    cli.main(["run", "--config", bad, "--out", str(tmp_path / "bad")])
    rollup = tmp_path / "rollup.json"
    assert cli.main(["merge", str(tmp_path / "good" / "summary.json"),
                     str(tmp_path / "bad" / "summary.json"),
                     "--out", str(rollup)]) == 1
    capsys.readouterr()
    assert cli.main(["merge", str(rollup)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and str(rollup) in captured.err
    assert "results" in captured.err
    # JSON that is not a mapping is the same error, not a traceback
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    assert cli.main(["merge", str(listed)]) == 2
    assert str(listed) in capsys.readouterr().err


def test_demo_config_loads_and_scaled_fields_are_declared():
    cfg = cli.load_config(ROOT / "configs" / "demo.yaml")
    # the benchmark runs the demo campaigns with some fields replaced
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    scale = workloads.DemoCampaign.SCALE
    assert set(scale) <= set(cfg["campaigns"])
    for cid, fields in scale.items():
        campaign = cfg["campaigns"][cid]
        assert set(fields) <= set(cli._PARAMS[campaign["kind"]])
        cli._params(cid, dict(campaign, **fields))


def test_merge_schema_mismatch(tmp_path, capsys):
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({"schema_version": 99, "results": []}))
    assert cli.main(["merge", str(stale)]) == 2
    assert "schema" in capsys.readouterr().err
