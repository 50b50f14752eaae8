"""Configuration-driven verification campaigns.

Usage:
    schouten run --config campaign.yaml --out reports/ [--jobs 2] [--seed 7] [--list]
    schouten merge reports/a/summary.json reports/b/summary.json --out total.json

The YAML config holds a ``campaigns`` map; each entry names a campaign kind
and its parameter block, for example:

    campaigns:
      mu-plus-table:
        kind: cones mu-plus
        dims: [3, 4, 5, 6, 7, 8, 9, 10]
        tolerance: 1.0e-9

Exit codes: 0 all assertions pass, 1 at least one campaign failed,
2 usage or configuration error.  A machine-readable failure summary is
printed to stderr on failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import yaml

from . import barriers, bubbles, comparison, reports, solver
from .cones import ConeSpec, CurvatureFunction

# sample counts a campaign kind reads, with the least value each accepts;
# fewer would check nothing and pass, or fail with a traceback.  A radial
# grid needs an interior node for its three-point stencils.
_POSITIVE_COUNTS = {
    "verify gershgorin": {"trials": 1},
    "verify bubble": {"samples": 1, "points": 1},
    "verify barrier-sub": {"num_r": 1, "num_dirs": 1},
    "verify barrier-super": {"num_r": 1, "num_dirs": 1, "mu_count": 1},
    "compare hawking": {"samples": 1},
    "compare bishop-gromov": {"num_r": 1},
    "solve radial": {"steps": 1, "nodes": 3},
    "solve homotopy": {"steps": 1, "nodes": 3},
}

# the columns of both barrier sweep CSVs: (n, k) + SweepReport row
_BARRIER_COLUMNS = ("n", "k", "delta", "mu", "epsilon", "r", "margin", "pass")


class ConfigError(Exception):
    pass


def _rng_for(seed, campaign_id):
    return np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(campaign_id.encode())]))


# ---------------------------------------------------------------------------
# campaign runners; each returns (summary dict, list of (csv name, cols, rows))
# ---------------------------------------------------------------------------

def _run_mu_plus(spec, rng):
    dims = spec.get("dims", [3, 4, 5, 6, 7, 8, 9, 10])
    tol = float(spec.get("tolerance", 1e-9))
    rows = []
    worst = 0.0
    for n in dims:
        for k in range(1, n + 1):
            mp = ConeSpec.gamma(n, k).mu_plus()
            expected = (n - k) / k
            err = abs(mp - expected)
            worst = max(worst, err)
            rows.append((n, k, mp, expected, err))
    summary = {"passed": worst <= tol, "max_error": worst, "tolerance": tol}
    return summary, [("mu_plus.csv", ("n", "k", "mu_plus", "expected", "abs_err"), rows)]


def _run_bubble(spec, rng):
    dims = spec.get("dims", [3, 4, 5])
    samples = int(spec.get("samples", 20))
    npoints = int(spec.get("points", 10))
    modes = spec.get("modes", ["analytic", "fd"])
    tols = {"analytic": float(spec.get("tolerance_analytic", 1e-8)),
            "fd": float(spec.get("tolerance_fd", 1e-6))}
    rows = []
    passed = True
    worst = {m: 0.0 for m in modes}
    for n in dims:
        f = CurvatureFunction.sigma_root(n, max(1, n // 2))
        for _ in range(samples):
            a = rng.uniform(0.7, 1.5)
            p = rng.uniform(-1.0, 1.0, size=n)
            bubble = bubbles.Bubble(n=n, a=a, p=p)
            dirs = rng.standard_normal((npoints, n))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            radii = rng.uniform(0.0, 1.0, size=npoints) / a
            pts = p + radii[:, None] * dirs
            for mode in modes:
                rep = bubbles.bubble_verify(f, bubble, pts, mode=mode,
                                            tol=tols[mode])
                passed = passed and rep.passed
                worst[mode] = max(worst[mode], rep.max_lambda_dev, rep.max_f_dev)
                rows.append((n, a, mode, rep.max_lambda_dev, rep.max_f_dev,
                             rep.passed))
    summary = {"passed": passed, "worst_dev": worst,
               "tolerances": {m: tols[m] for m in modes}}
    return summary, [("bubble.csv",
                      ("n", "a", "mode", "max_lambda_dev", "max_f_dev", "pass"),
                      rows)]


def _pairs_mu_le_1(dims):
    out = []
    for n in dims:
        for k in range(1, n + 1):
            if (n - k) / k <= 1.0 + 1e-12:
                out.append((n, k))
    return out


def _run_barrier_sub(spec, rng):
    if "pairs" in spec:
        pairs = [tuple(p) for p in spec["pairs"]]
    else:
        pairs = _pairs_mu_le_1(spec.get("dims", [3, 4, 5, 6]))
    controls = [tuple(p) for p in spec.get("negative_controls", [])]
    deltas = tuple(spec.get("deltas", (0.01, 0.05, 0.1, 0.2)))
    background = spec.get("background", "sphere")
    r_min = float(spec.get("r_min", 1e-4))
    min_r1 = float(spec.get("min_r1", 1e-2))
    rows = []
    passed = True
    worst_margin = -math.inf
    certified = {}
    for (n, k) in pairs + controls:
        cfg = barriers.BarrierSweepConfig(
            n=n, k=k, deltas=deltas, r_min=r_min, background=background,
            num_r=int(spec.get("num_r", 64)), num_dirs=int(spec.get("num_dirs", 8)),
            seed=int(rng.integers(2 ** 31)))
        rep = barriers.barrier_sweep_sub(cfg)
        expect_fail = (n, k) in controls
        ok = (not rep.passed) if expect_fail else (
            rep.passed and rep.r1_certified is not None
            and rep.r1_certified >= min_r1)
        passed = passed and ok
        if not expect_fail:
            worst_margin = max(worst_margin, rep.worst_margin)
            certified[f"{n},{k}"] = rep.r1_certified
        rows.extend((n, k) + row for row in rep.rows)
    summary = {"passed": passed, "worst_margin": worst_margin,
               "r1_certified": certified,
               "negative_controls": [list(c) for c in controls]}
    return summary, [("barrier_sub.csv", _BARRIER_COLUMNS, rows)]


def _mu_grid(n, k, count):
    top = min((n - k) / k, 2.0)
    fracs = np.linspace(0.0, 1.0, count + 2)[1:-1]
    return tuple(1.0 + f * (top - 1.0) for f in fracs)


def _run_barrier_super(spec, rng):
    pairs = [tuple(p) for p in spec.get("pairs", [(4, 1), (5, 1), (5, 2), (6, 2)])]
    deltas = tuple(spec.get("deltas", (0.25, 0.5)))
    epsilons = tuple(spec.get("epsilons", (1e-3, 0.1, 0.9)))
    rows = []
    passed = True
    worst_margin = math.inf
    certified = {}
    for (n, k) in pairs:
        mus = tuple(spec.get("mus", _mu_grid(n, k, int(spec.get("mu_count", 3)))))
        cfg = barriers.BarrierSweepConfig(
            n=n, k=k, deltas=deltas, mus=mus, epsilons=epsilons,
            r_min=float(spec.get("r_min", 1e-4)),
            num_r=int(spec.get("num_r", 64)), num_dirs=int(spec.get("num_dirs", 8)),
            background=spec.get("background", "sphere"),
            seed=int(rng.integers(2 ** 31)))
        rep = barriers.barrier_sweep_super(cfg)
        passed = passed and rep.passed and bool(rep.chi_inequality_ok)
        worst_margin = min(worst_margin, rep.worst_margin)
        certified[f"{n},{k}"] = rep.r1_certified
        rows.extend((n, k) + row for row in rep.rows)
    summary = {"passed": passed, "worst_margin": worst_margin,
               "r1_certified": certified}
    return summary, [("barrier_super.csv", _BARRIER_COLUMNS, rows)]


def _run_gershgorin(spec, rng):
    dims = spec.get("dims", [2, 3, 4, 5, 6, 7, 8])
    trials = int(spec.get("trials", 1000))
    rows = []
    passed = True
    measured = {}
    out_of_bound = {}
    for n in dims:
        # per-trial draws in the per-pair order, then one stacked pass
        m = np.empty((trials, n, n))
        noise = np.empty((trials, n, n))
        scale = np.empty(trials)
        for trial in range(trials):
            m[trial] = rng.standard_normal((n, n))
            scale[trial] = 10.0 ** rng.uniform(-8, 0)
            noise[trial] = rng.standard_normal((n, n))
        m = 0.5 * (m + m.transpose(0, 2, 1))
        mt = m + (scale * 0.5)[:, None, None] * (noise + noise.transpose(0, 2, 1))
        del noise
        ratio, within = barriers.gershgorin_ratios(m, mt)
        out_of_bound[str(n)] = int(np.count_nonzero(~within))
        passed = passed and bool(within.all())
        sharp = float(ratio[within].max(initial=0.0))
        measured[str(n)] = sharp
        rows.append((n, trials, sharp, n ** 2, sharp / n ** 2))
    summary = {"passed": passed, "measured_constants": measured,
               "trials": {str(n): trials for n in dims},
               "out_of_bound": out_of_bound}
    return summary, [("gershgorin.csv",
                      ("n", "trials", "measured_constant", "bound_constant",
                       "fraction_of_bound"), rows)]


def _run_suph(spec, rng):
    from . import conformal as cf

    n = int(spec.get("dim", 4))
    K = float(spec.get("K", 1.0))
    delta = float(spec.get("delta", 0.25))
    background = spec.get("background", "flat")
    g = cf.MetricField.flat(n) if background == "flat" else cf.MetricField.sphere_normal(n)
    rep = barriers.suph_barrier_check(g, K, delta)
    monotone_ok = all(rep.ratio_monotone.values())
    checks = [rep.min_G >= -1e-12, monotone_ok]
    if background == "flat":
        checks.append(bool(rep.flat_certificate))
        checks.append(rep.min_LG >= 0.0)
    summary = {"passed": all(checks), "min_G": rep.min_G, "min_LG": rep.min_LG,
               "flat_certificate": rep.flat_certificate,
               "ratio_monotone": rep.ratio_monotone}
    rows = [(n, K, delta, background, rep.min_G, rep.min_LG)]
    return summary, [("suph.csv",
                      ("n", "K", "delta", "background", "min_G", "min_LG"), rows)]


def _run_hawking(spec, rng):
    rows = []
    checks = []
    for c0 in (0.5, 1.0, 2.0, 5.0):
        rows.append((0.0, c0, comparison.hawking_bound(0.0, c0)))
        checks.append(comparison.hawking_bound(0.0, c0) == 1.0 / c0)
    checks.append(abs(comparison.hawking_bound(1.0, 2.0) - math.log(3.0) / 2.0) < 1e-12)
    # Euclidean ball of radius rho: H = (n-1)/rho, attained bound = rho
    rho = float(spec.get("rho", 0.7))
    checks.append(abs(comparison.hawking_bound(0.0, 1.0 / rho) - rho) < 1e-10)
    # monotonicity samples
    ok_mono = True
    for _ in range(int(spec.get("samples", 200))):
        alpha = rng.uniform(0.0, 2.0)
        c0 = alpha + rng.uniform(0.05, 3.0)
        dc = rng.uniform(0.01, 1.0)
        ok_mono &= comparison.hawking_bound(alpha, c0 + dc) < comparison.hawking_bound(alpha, c0)
        da = rng.uniform(0.01, c0 - alpha - 1e-3) if c0 - alpha > 0.02 else 0.0
        if da > 0:
            ok_mono &= comparison.hawking_bound(alpha + da, c0) > comparison.hawking_bound(alpha, c0)
        rows.append((alpha, c0, comparison.hawking_bound(alpha, c0)))
    checks.append(bool(ok_mono))
    summary = {"passed": all(checks)}
    return summary, [("hawking.csv", ("alpha", "c0", "bound"), rows)]


def _run_bishop_gromov(spec, rng):
    dims = spec.get("dims", [3, 4, 5])
    files = []
    checks = []
    for n in dims:
        model = comparison.ModelSpace(n=n, alpha=0.0)
        radii = np.geomspace(1e-3, 3.0, int(spec.get("num_r", 48)))
        flat = comparison.bg_ratio(
            lambda r: comparison.unit_ball_volume(n) * r ** n, model, radii)
        checks.append(bool(np.all(np.abs(flat.ratios - 1.0) <= 1e-12)))
        sphere = comparison.bg_ratio(
            lambda r: comparison.sphere_ball_volume(n, r), model, radii)
        checks.append(sphere.nonincreasing)
        checks.append(abs(sphere.ratios[0] - 1.0) <= 1e-6)
        rows = [(r, v, mv, q) for r, v, mv, q in
                zip(sphere.radii, sphere.volumes, sphere.model_volumes, sphere.ratios)]
        files.append((f"bg_sphere_n{n}.csv", ("r", "volume", "model_volume", "ratio"), rows))
    hyp = comparison.model_ball_volume(comparison.ModelSpace(n=3, alpha=1.0), 1.0)
    checks.append(abs(hyp - math.pi * (math.sinh(2.0) - 2.0)) <= 1e-8)
    summary = {"passed": all(checks),
               "hyperbolic_n3_value": hyp}
    return summary, files


def _run_solve_radial(spec, rng):
    n = int(spec.get("dim", 3))
    k = int(spec.get("k", max(1, (n + 1) // 2)))
    nodes = int(spec.get("nodes", 128))
    steps = int(spec.get("steps", 20))
    tol = float(spec.get("tolerance", 1e-10))
    amp = float(spec.get("perturbation", 0.2))
    s0 = 2.0 / (n - 2.0)
    prof = solver.RadialProfile.make(n, nodes, grid=spec.get("grid", "uniform"))
    f = CurvatureFunction.sigma_root(n, k)
    start = solver.newton_solve(
        prof.with_values(1.0 + amp * np.cos(prof.theta)), f, s0, tol=tol)
    schedule = [(s, 1.0) for s in np.linspace(s0, 0.0, steps + 1)[1:]]
    states = solver.newton_continuation(start, schedule, f, tol=tol)
    rows = [(i, st.s, st.t, st.residual_norm, st.min_u, st.max_u,
             st.min_cone_margin) for i, st in enumerate(states)]
    dev = max(abs(st.max_u - 1.0) for st in states)
    dev = max(dev, max(abs(st.min_u - 1.0) for st in states))
    margins_ok = all(st.min_cone_margin > 0 for st in states)
    ricci_ok = all(st.ricci_margin >= 0 for st in states)
    profile_rows = list(zip(states[-1].profile.theta, states[-1].profile.values))
    summary = {"passed": bool(dev <= float(spec.get("dev_tolerance", 1e-8))
                              and margins_ok and ricci_ok),
               "max_dev_from_const": dev,
               "worst_margin": min(st.min_cone_margin for st in states),
               "newton_iterations": start.newton_iterations}
    return summary, [
        ("solve_radial.csv",
         ("step", "s", "t", "residual", "min_u", "max_u", "cone_margin"), rows),
        ("profile.txt", ("theta", "u"), profile_rows),
    ]


def _run_solve_homotopy(spec, rng):
    n = int(spec.get("dim", 4))
    k = int(spec.get("k", 2))
    nodes = int(spec.get("nodes", 96))
    steps = int(spec.get("steps", 20))
    tol = float(spec.get("tolerance", 1e-10))
    s0 = 2.0 / (n - 2.0)
    prof = solver.RadialProfile.make(n, nodes, grid=spec.get("grid", "uniform"))
    f = CurvatureFunction.sigma_root(n, k)
    c0 = float(n) ** ((n - 2.0) / 2.0)
    start = solver.make_state(prof.with_values(c0 * np.ones(nodes)), f, s0, 0.0)
    schedule = [(s0, t) for t in np.linspace(0.0, 1.0, steps + 1)[1:]]
    states = solver.newton_continuation(start, schedule, f, tol=tol)
    rows = [(i, st.s, st.t, st.residual_norm, st.min_u, st.max_u,
             st.min_cone_margin) for i, st in enumerate(states)]
    end_dev = float(np.abs(states[-1].profile.values - 1.0).max())
    summary = {"passed": bool(end_dev <= float(spec.get("dev_tolerance", 1e-8))
                              and all(st.min_cone_margin > 0 for st in states)),
               "end_dev_from_one": end_dev,
               "worst_margin": min(st.min_cone_margin for st in states)}
    return summary, [("solve_homotopy.csv",
                      ("step", "s", "t", "residual", "min_u", "max_u",
                       "cone_margin"), rows)]


_RUNNERS = {
    "cones mu-plus": _run_mu_plus,
    "verify bubble": _run_bubble,
    "verify barrier-sub": _run_barrier_sub,
    "verify barrier-super": _run_barrier_super,
    "verify gershgorin": _run_gershgorin,
    "verify suph": _run_suph,
    "compare hawking": _run_hawking,
    "compare bishop-gromov": _run_bishop_gromov,
    "solve radial": _run_solve_radial,
    "solve homotopy": _run_solve_homotopy,
}


# ---------------------------------------------------------------------------
# config handling and execution
# ---------------------------------------------------------------------------

def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    if not isinstance(cfg, dict) or "campaigns" not in cfg:
        raise ConfigError("config must be a mapping with a 'campaigns' table")
    campaigns = cfg["campaigns"]
    if not isinstance(campaigns, dict) or not campaigns:
        raise ConfigError("field 'campaigns': expected a non-empty mapping")
    for cid, spec in campaigns.items():
        if not isinstance(spec, dict):
            raise ConfigError(f"campaign '{cid}': expected a mapping")
        kind = spec.get("kind")
        if kind not in _RUNNERS:
            raise ConfigError(
                f"campaign '{cid}': field 'kind': unknown kind {kind!r}; "
                f"expected one of {', '.join(_RUNNERS)}")
        for field in ("tolerance", "tolerance_analytic", "tolerance_fd", "r_min"):
            if field in spec and not _real(spec[field]) > 0:
                raise ConfigError(f"campaign '{cid}': field '{field}' must be a positive number")
        for field, least in _POSITIVE_COUNTS.get(kind, {}).items():
            if field in spec and not _count(spec[field]) >= least:
                raise ConfigError(
                    f"campaign '{cid}': field '{field}' must be an integer >= {least}")
        for pfield in ("pairs", "negative_controls"):
            entries = spec.get(pfield, [])
            if not isinstance(entries, list):
                raise ConfigError(f"campaign '{cid}': field '{pfield}': expected a list of [n, k]")
            for p in entries:
                nk = _pair(p)
                if nk is None:
                    raise ConfigError(
                        f"campaign '{cid}': field '{pfield}': expected [n, k], got {p!r}")
                n, k = nk
                if not (n >= 3 and 1 <= k <= n):
                    raise ConfigError(
                        f"campaign '{cid}': field '{pfield}': invalid (n, k) = ({n}, {k})")
    return cfg


def _real(value):
    """``value`` as the runners read it (``float``), or NaN if it is not a number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def _pair(p):
    """``p`` as the (n, k) the runners unpack, or None if it is not two integers."""
    try:
        n, k = p
        return int(n), int(k)
    except (TypeError, ValueError):
        return None


def _count(value):
    """``value`` as the runners read it (``int``), or 0 if it is not a number."""
    try:
        return int(value)
    except (TypeError, ValueError):
        return 0


def _run_item(args):
    cid, spec, seed, outdir = args
    rng = _rng_for(seed, cid)
    start = time.perf_counter()
    try:
        summary, files = _RUNNERS[spec["kind"]](spec, rng)
    except Exception as exc:  # noqa: BLE001 - campaign isolation
        summary, files = {"passed": False, "error": f"{type(exc).__name__}: {exc}"}, []
    summary["id"] = cid
    summary["kind"] = spec["kind"]
    summary["seed"] = seed
    summary["runtime_s"] = time.perf_counter() - start
    cdir = Path(outdir) / cid
    for name, cols, rows in files:
        if name.endswith(".txt"):
            cdir.mkdir(parents=True, exist_ok=True)
            (cdir / name).write_text(
                "\n".join(f"{_txt(a)} {_txt(b)}" for a, b in rows) + "\n",
                encoding="utf-8")
        else:
            reports.write_csv(cdir / name, cols, rows)
    return summary


def _txt(x):
    return f"{float(x):.17g}"


def run_campaigns(cfg, outdir, jobs=1, seed=None):
    campaigns = cfg["campaigns"]
    seed = int(cfg.get("seed", 0)) if seed is None else int(seed)
    items = [(cid, spec, seed, str(outdir)) for cid, spec in campaigns.items()]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_item, items))
    else:
        results = [_run_item(item) for item in items]
    summary = {
        "schema_version": reports.SCHEMA_VERSION,
        "seed": seed,
        "results": results,
        "passed_all": all(r["passed"] for r in results),
    }
    reports.write_summary(Path(outdir) / "summary.json", summary)
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="schouten", description="Run verification campaigns and solves.")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run the campaigns in a config file")
    runp.add_argument("--config", required=True, help="YAML campaign config")
    runp.add_argument("--out", default="schouten-reports", help="output directory")
    runp.add_argument("--jobs", type=int, default=1, help="worker pool size")
    runp.add_argument("--seed", type=int, default=None,
                      help="seed overriding the config value")
    runp.add_argument("--list", action="store_true",
                      help="enumerate campaigns and exit")

    mergep = sub.add_parser("merge", help="merge summary JSON reports")
    mergep.add_argument("summaries", nargs="*", help="summary.json files")
    mergep.add_argument("--out", default=None, help="write merged summary here")

    args = parser.parse_args(argv)

    if args.command == "merge":
        try:
            merged = reports.merge_reports(args.summaries)
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        text = json.dumps(merged, indent=2, sort_keys=True)
        if args.out:
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(text)
        return 0 if merged["passed_all"] else 1

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.list:
        for cid, spec in cfg["campaigns"].items():
            print(f"{cid}\t{spec['kind']}")
        return 0
    if args.jobs < 1:
        print("usage error: --jobs must be >= 1", file=sys.stderr)
        return 2
    summary = run_campaigns(cfg, args.out, jobs=args.jobs, seed=args.seed)
    for result in summary["results"]:
        status = "PASS" if result["passed"] else "FAIL"
        print(f"[{status}] {result['id']} ({result['kind']}) "
              f"{result['runtime_s']:.2f}s")
    if not summary["passed_all"]:
        failed = [r["id"] for r in summary["results"] if not r["passed"]]
        print(json.dumps({"failed": failed}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
