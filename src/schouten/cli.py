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
import dataclasses
import json
import math
import sys
import time
import zlib
from pathlib import Path

import numpy as np

from . import barriers, bubbles, comparison, reports, solver
from .cones import ConeSpec, CurvatureFunction

# the columns of both barrier sweep CSVs: (n, k) + SweepReport row
_BARRIER_COLUMNS = ("n", "k", "delta", "mu", "epsilon", "r", "margin", "pass")
# the columns of both continuation transcripts: one row per accepted state
_TRANSCRIPT_COLUMNS = ("step", "s", "t", "residual", "min_u", "max_u", "cone_margin")


class ConfigError(Exception):
    pass


def _rng_for(seed, campaign_id):
    return np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(campaign_id.encode())]))


# ---------------------------------------------------------------------------
# campaign runners; each takes its campaign's fields as ``_params`` returns
# them and returns (summary dict, list of (csv name, cols, rows))
# ---------------------------------------------------------------------------

def _run_mu_plus(par, rng):
    rows = []
    worst = 0.0
    for n in par["dims"]:
        for k in range(1, n + 1):
            mp = ConeSpec.gamma(n, k).mu_plus()
            expected = (n - k) / k
            err = abs(mp - expected)
            worst = max(worst, err)
            rows.append((n, k, mp, expected, err))
    summary = {"passed": worst <= par["tolerance"], "max_error": worst,
               "tolerance": par["tolerance"]}
    return summary, [("mu_plus.csv", ("n", "k", "mu_plus", "expected", "abs_err"), rows)]


def _run_bubble(par, rng):
    modes, npoints = par["modes"], par["points"]
    tols = {"analytic": par["tolerance_analytic"], "fd": par["tolerance_fd"]}
    rows = []
    passed = True
    worst = {m: 0.0 for m in modes}
    for n in par["dims"]:
        f = CurvatureFunction.sigma_root(n, max(1, n // 2))
        for _ in range(par["samples"]):
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


def _sweep_config(par, n, k, seed=0):
    """The config the sweep campaign ``par`` runs at the pair (n, k)."""
    grids = {"mus": tuple(par["mus"] or barriers.mu_grid(n, k, par["mu_count"])),
             "epsilons": tuple(par["epsilons"])} if "mus" in par else {}
    return barriers.BarrierSweepConfig(
        n=n, k=k, deltas=tuple(par["deltas"]), r_min=par["r_min"], num_r=par["num_r"],
        num_dirs=par["num_dirs"], background=par["background"], seed=seed, **grids)


def _run_barrier_sub(par, rng):
    controls = par["negative_controls"]
    rows = []
    passed = True
    worst_margin = -math.inf
    certified = {}
    for (n, k) in [*(par["pairs"] or barriers.sub_pairs(par["dims"])), *controls]:
        rep = barriers.barrier_sweep_sub(_sweep_config(par, n, k, int(rng.integers(2 ** 31))))
        expect_fail = (n, k) in controls
        ok = (not rep.passed) if expect_fail else (
            rep.passed and rep.r1_certified is not None
            and rep.r1_certified >= par["min_r1"])
        passed = passed and ok
        if not expect_fail:
            worst_margin = max(worst_margin, rep.worst_margin)
            certified[f"{n},{k}"] = rep.r1_certified
        rows.extend((n, k) + row for row in rep.rows)
    summary = {"passed": passed, "worst_margin": worst_margin,
               "r1_certified": certified,
               "negative_controls": [list(c) for c in controls]}
    return summary, [("barrier_sub.csv", _BARRIER_COLUMNS, rows)]


def _run_barrier_super(par, rng):
    rows = []
    passed = True
    worst_margin = math.inf
    certified = {}
    for (n, k) in par["pairs"]:
        rep = barriers.barrier_sweep_super(_sweep_config(par, n, k, int(rng.integers(2 ** 31))))
        passed = passed and rep.passed
        worst_margin = min(worst_margin, rep.worst_margin)
        certified[f"{n},{k}"] = rep.r1_certified
        rows.extend((n, k) + row for row in rep.rows)
    summary = {"passed": passed, "worst_margin": worst_margin,
               "r1_certified": certified}
    return summary, [("barrier_super.csv", _BARRIER_COLUMNS, rows)]


def _run_gershgorin(par, rng):
    dims, trials = par["dims"], par["trials"]
    rows = []
    passed = True
    measured = {}
    out_of_bound = {}
    for n in dims:
        # three array draws per dimension, then one stacked pass;
        # -8 + 8 * random() is the double rng.uniform(-8, 0) draws
        m = rng.standard_normal((trials, n, n))
        scale = 10.0 ** (-8.0 + 8.0 * rng.random(trials))
        noise = rng.standard_normal((trials, n, n))
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


def _run_suph(par, rng):
    n, K, delta, background = par["dim"], par["K"], par["delta"], par["background"]
    rep = barriers.suph_barrier_check(n, K, delta, background)
    monotone_ok = all(rep.ratio_monotone.values())
    checks = [rep.min_G >= -1e-12, monotone_ok]
    if rep.flat_certificate is not None:
        checks.append(bool(rep.flat_certificate))
        checks.append(rep.min_LG >= 0.0)
    summary = {"passed": all(checks), "min_G": rep.min_G, "min_LG": rep.min_LG,
               "flat_certificate": rep.flat_certificate,
               "ratio_monotone": rep.ratio_monotone}
    rows = [(n, K, delta, background, rep.min_G, rep.min_LG)]
    return summary, [("suph.csv",
                      ("n", "K", "delta", "background", "min_G", "min_LG"), rows)]


def _run_hawking(par, rng):
    rows = []
    checks = []
    for c0 in (0.5, 1.0, 2.0, 5.0):
        rows.append((0.0, c0, comparison.hawking_bound(0.0, c0)))
        checks.append(comparison.hawking_bound(0.0, c0) == 1.0 / c0)
    checks.append(abs(comparison.hawking_bound(1.0, 2.0) - math.log(3.0) / 2.0) < 1e-12)
    # Euclidean ball of radius rho: H = (n-1)/rho, attained bound = rho
    rho = par["rho"]
    checks.append(abs(comparison.hawking_bound(0.0, 1.0 / rho) - rho) < 1e-10)
    # monotonicity samples
    ok_mono = True
    for _ in range(par["samples"]):
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


def _run_bishop_gromov(par, rng):
    files = []
    checks = []
    for n in par["dims"]:
        model = comparison.ModelSpace(n=n, alpha=0.0)
        radii = np.geomspace(1e-3, 3.0, par["num_r"])
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


def _transcript_rows(states):
    return [(i, st.s, st.t, st.residual_norm, st.min_u, st.max_u, st.min_cone_margin)
            for i, st in enumerate(states)]


def _run_solve_radial(par, rng):
    n, tol = par["dim"], par["tolerance"]
    k = par["k"] or max(1, (n + 1) // 2)
    s0 = 2.0 / (n - 2.0)
    prof = solver.RadialProfile.make(n, par["nodes"])
    f = CurvatureFunction.sigma_root(n, k)
    start = solver.newton_solve(
        prof.with_values(1.0 + par["perturbation"] * np.cos(prof.theta)), f, s0, tol=tol)
    schedule = [(s, 1.0) for s in np.linspace(s0, 0.0, par["steps"] + 1)[1:]]
    states = solver.newton_continuation(start, schedule, f, tol=tol)
    dev = max(abs(st.max_u - 1.0) for st in states)
    dev = max(dev, max(abs(st.min_u - 1.0) for st in states))
    margins_ok = all(st.min_cone_margin > 0 for st in states)
    ricci_ok = all(st.ricci_margin >= 0 for st in states)
    profile_rows = list(zip(states[-1].profile.theta, states[-1].profile.values))
    summary = {"passed": bool(dev <= par["dev_tolerance"] and margins_ok and ricci_ok),
               "max_dev_from_const": dev,
               "worst_margin": min(st.min_cone_margin for st in states),
               "newton_iterations": start.newton_iterations}
    return summary, [
        ("solve_radial.csv", _TRANSCRIPT_COLUMNS, _transcript_rows(states)),
        ("profile.txt", ("theta", "u"), profile_rows),
    ]


def _run_solve_homotopy(par, rng):
    n, nodes = par["dim"], par["nodes"]
    s0 = 2.0 / (n - 2.0)
    prof = solver.RadialProfile.make(n, nodes)
    f = CurvatureFunction.sigma_root(n, par["k"])
    c0 = float(n) ** ((n - 2.0) / 2.0)
    start = solver.make_state(prof.with_values(c0 * np.ones(nodes)), f, s0, 0.0)
    schedule = [(s0, t) for t in np.linspace(0.0, 1.0, par["steps"] + 1)[1:]]
    states = solver.newton_continuation(start, schedule, f, tol=par["tolerance"])
    end_dev = float(np.abs(states[-1].profile.values - 1.0).max())
    summary = {"passed": bool(end_dev <= par["dev_tolerance"]
                              and all(st.min_cone_margin > 0 for st in states)),
               "end_dev_from_one": end_dev,
               "worst_margin": min(st.min_cone_margin for st in states)}
    return summary, [("solve_homotopy.csv", _TRANSCRIPT_COLUMNS, _transcript_rows(states))]


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
# campaign fields: per kind, every field a runner reads, as (field type,
# default).  A field type is (what a valid value is, reader); the reader
# returns the value the runner uses or raises TypeError, ValueError or
# OverflowError (a YAML integer too large for a float).
# ---------------------------------------------------------------------------

def _checked(read, ok):
    """``read``, then require ``ok`` of what it returns."""
    def reader(value):
        out = read(value)
        if not ok(out):
            raise ValueError(value)
        return out
    return reader


_integer = _checked(lambda v: v, lambda v: isinstance(v, int) and not isinstance(v, bool))
# a finite real; YAML 1.1 reads 1e-9 (no dot) as a string, so a numeric string
# counts, but a boolean does not
_number = _checked(lambda v: math.nan if isinstance(v, bool) else float(v), math.isfinite)


def _nk(value):
    n, k = map(_integer, value)
    if not (n >= 3 and 1 <= k <= n):
        raise ValueError(value)
    return (n, k)


def _list_of(field, nonempty=True):
    must, read = field

    def reader(value):
        if not isinstance(value, list) or (nonempty and not value):
            raise TypeError(value)
        return [read(item) for item in value]
    return f"a {'non-empty ' * nonempty}list, each {must}", reader


def _ints(least):
    return f"an integer >= {least}", _checked(_integer, lambda x: x >= least)


def _one_of(*options):
    return f"one of {', '.join(options)}", _checked(str, lambda x: x in options)


_NUMBER = "a number", _number
_POSITIVE = "a positive number", _checked(_number, lambda x: x > 0)
_NK = "[n, k] with n >= 3 and 1 <= k <= n", _nk
# the sweep fields take BarrierSweepConfig's defaults
_SWEEP_DEFAULT = {f.name: f.default for f in dataclasses.fields(barriers.BarrierSweepConfig)}
_SWEEP = {name: (field, _SWEEP_DEFAULT[name]) for name, field in [
    ("r_min", _POSITIVE), ("num_r", _ints(1)), ("num_dirs", _ints(1)),
    ("background", _one_of(*barriers.BACKGROUNDS))]}
_SOLVE = {"steps": (_ints(1), 20), "tolerance": (_POSITIVE, 1e-10),
          "dev_tolerance": (_POSITIVE, 1e-8)}

# defaults are immutable, since every campaign shares them; a None default
# depends on another field and the runner fills it in.  A radial grid needs
# an interior node: ``solver.RadialProfile`` takes 3 nodes at least
_PARAMS = {
    "cones mu-plus": {"dims": (_list_of(_ints(3)), (3, 4, 5, 6, 7, 8, 9, 10)),
                      "tolerance": (_POSITIVE, 1e-9)},
    "verify bubble": {"dims": (_list_of(_ints(3)), (3, 4, 5)), "samples": (_ints(1), 20),
                      "points": (_ints(1), 10),
                      "modes": (_list_of(_one_of("analytic", "fd")), ("analytic", "fd")),
                      "tolerance_analytic": (_POSITIVE, 1e-8),
                      "tolerance_fd": (_POSITIVE, 1e-6)},
    "verify barrier-sub": {"pairs": (_list_of(_NK), None),
                           "dims": (_list_of(_ints(3)), (3, 4, 5, 6)),
                           "negative_controls": (_list_of(_NK, nonempty=False), ()),
                           "deltas": (_list_of(_NUMBER), _SWEEP_DEFAULT["deltas"]),
                           "min_r1": (_POSITIVE, 1e-2), **_SWEEP},
    "verify barrier-super": {"pairs": (_list_of(_NK), ((4, 1), (5, 1), (5, 2), (6, 2))),
                             "deltas": (_list_of(_NUMBER), (0.25, 0.5)),
                             "epsilons": (_list_of(_NUMBER), _SWEEP_DEFAULT["epsilons"]),
                             "mus": (_list_of(_NUMBER), None), "mu_count": (_ints(1), 3),
                             **_SWEEP},
    "verify gershgorin": {"dims": (_list_of(_ints(1)), (2, 3, 4, 5, 6, 7, 8)),
                          "trials": (_ints(1), 1000)},
    "verify suph": {"dim": (_ints(3), 4), "K": (_NUMBER, 1.0), "delta": (_POSITIVE, 0.25),
                    "background": (_one_of(*barriers.BACKGROUNDS), "flat")},
    "compare hawking": {"rho": (_POSITIVE, 0.7), "samples": (_ints(1), 200)},
    "compare bishop-gromov": {"dims": (_list_of(_ints(1)), (3, 4, 5)),
                              "num_r": (_ints(1), 48)},
    "solve radial": {"dim": (_ints(3), 3), "k": (_ints(1), None), "nodes": (_ints(3), 128),
                     "perturbation": (_NUMBER, 0.1), **_SOLVE},
    "solve homotopy": {"dim": (_ints(3), 4), "k": (_ints(1), 2), "nodes": (_ints(3), 96),
                       **_SOLVE},
}


# the top level of a config file
_MAPPING = "a non-empty mapping", _checked(lambda v: v, lambda v: isinstance(v, dict) and v)
_CONFIG = {"seed": (_ints(0), 0), "campaigns": (_MAPPING, None)}


def _read(where, spec, fields):
    """``spec`` through ``fields``: each field read and checked if given, else
    its default.  A field ``fields`` does not declare, or a value its reader
    rejects, is a ``ConfigError`` naming the field."""
    for name in spec:
        if name not in fields:
            raise ConfigError(f"{where}field '{name}' is not one of {', '.join(fields)}")
    out = {}
    for name, ((must, read), default) in fields.items():
        try:
            out[name] = read(spec[name]) if name in spec else default
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{where}field '{name}' must be {must}") from None
    return out


def _params(cid, spec):
    """Every field of campaign ``cid`` but its kind, as ``_PARAMS`` reads them."""
    where = f"campaign '{cid}': "
    out = _read(where, {n: v for n, v in spec.items() if n != "kind"}, _PARAMS[spec["kind"]])
    if out.get("k") is not None and out["k"] > out["dim"]:
        raise ConfigError(f"{where}field 'k' must be an integer in 1..dim = {out['dim']}")
    if "deltas" in out:
        # the sweep's rules at each pair, on the config the runner will pass
        kind = "super" if "mus" in out else "sub"
        for n, k in [*(out["pairs"] or barriers.sub_pairs(out["dims"])),
                     *out.get("negative_controls", ())]:
            cfg = _sweep_config(out, n, k)
            fault = barriers.sweep_fault(kind, n, k, cfg.deltas, cfg.epsilons, cfg.mus,
                                         cfg.r_min)
            if fault is not None:
                raise ConfigError(f"{where}field '{fault[0]}' must be {fault[1]}")
    if "delta" in out:  # the superharmonic barrier's rule
        fault = barriers.suph_fault(out["dim"], out["delta"], out["background"])
        if fault is not None:
            raise ConfigError(f"{where}field '{fault[0]}' must be {fault[1]}")
    return out


# ---------------------------------------------------------------------------
# config handling and execution
# ---------------------------------------------------------------------------

def load_config(path):
    import yaml  # loaded at the first config read, not with the module

    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    if not isinstance(cfg, dict) or "campaigns" not in cfg:
        raise ConfigError("config must be a mapping with a 'campaigns' table")
    for cid, spec in _read("", cfg, _CONFIG)["campaigns"].items():
        if not isinstance(spec, dict):
            raise ConfigError(f"campaign '{cid}': expected a mapping")
        kind = spec["kind"] if "kind" in spec else None
        if kind not in tuple(_PARAMS):  # a tuple: a YAML list kind is unhashable
            raise ConfigError(
                f"campaign '{cid}': field 'kind': unknown kind {kind!r}; "
                f"expected one of {', '.join(_PARAMS)}")
        _params(cid, spec)
    return cfg


def _run_item(args):
    cid, spec, seed, outdir = args
    rng = _rng_for(seed, cid)
    start = time.perf_counter()
    try:
        summary, files = _RUNNERS[spec["kind"]](_params(cid, spec), rng)
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
        from concurrent.futures import ProcessPoolExecutor

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
    if args.jobs < 1 or (args.seed or 0) < 0:
        print("usage error: --jobs must be >= 1 and --seed >= 0", file=sys.stderr)
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
