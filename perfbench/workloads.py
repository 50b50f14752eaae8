"""The three benchmark workloads.

Each workload is built from a seed (its set-up: config load and input
generation) and then runs *passes* in a closed loop: one caller, each call
waits for the previous one.  A pass is a fixed amount of work split into
named *units* of about a second or less, each bracketed by a calibration
``probe``.  ``run_pass`` returns a ``Pass``: per unit its wall and CPU time
and the mean wall and CPU time of the probes around it, the wall time of
each call where the calls are finer than the units, a digest of the outputs
and the correctness checks, each a ``(label, ok)`` pair.  Checks and digests
are computed outside the timing.

On a shared host the speed of interpreter-bound code changes by up to 2x in
bursts of seconds and phases of minutes.  Scaling each unit by
``PROBE_REF_S`` over the probe time measured around it removes most of that
(see README.md); short units keep the probe close in time to the work.

Why these three:
  demo-campaign  -- the campaigns users run: every module, chart geometry
                    recomputed per sweep combination.
  psi-branch     -- solver-bound: Newton, FD Jacobians, 64-row cone calls,
                    no chart geometry at all.
  bubble-batches -- many small distinct chart batches, nothing to reuse.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import json
import shutil
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())
MODULES = ("cli", "barriers", "conformal", "cones", "_kernels", "solver", "bubbles",
           "comparison", "reports", "errors")


def load_toolkit(root):
    """Import the toolkit from ``root/src``; returns {module name: module}."""
    sys.path.insert(0, str(root / "src"))
    return {m: importlib.import_module(f"schouten.{m}") for m in MODULES}


PROBE_REF_S = 0.010  # probe wall time on a quiet host; normalised times use it
_PROBE_INPUT = np.random.default_rng(0).uniform(0.1, 1.0, (64, 4))


def probe():
    """(wall, CPU) seconds of a fixed loop of small numpy and dict operations.

    It shares no code with the toolkit, so a change to the toolkit cannot
    change it; it is interpreter-bound like the workloads, so the host slows
    it down as it slows them.
    """
    x = _PROBE_INPUT
    wall, cpu = time.perf_counter(), time.process_time()
    acc = 0.0
    for i in range(400):
        e = np.zeros((64, 3))
        e[:, 0] = 1.0
        for j in range(4):
            e[:, 1:] += x[:, j:j + 1] * e[:, :-1]
        acc += float(e[0, 1]) + i * 0.5
        acc += {"a": i, "b": acc}["a"]
    return time.perf_counter() - wall, time.process_time() - cpu


class Pass(NamedTuple):
    units: dict  # unit name -> (wall s, cpu s, probe wall s, probe cpu s)
    calls: list  # wall s of each call, for workloads timed per call
    digest: str
    checks: list


class _Units:
    """Times named units; a probe runs before the first unit and after each."""

    def __init__(self):
        self.times = {}
        self._probe = probe()

    @contextlib.contextmanager
    def unit(self, name):
        wall, cpu = time.perf_counter(), time.process_time()
        yield
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        before, self._probe = self._probe, probe()
        self.times[name] = (wall, cpu, (before[0] + self._probe[0]) / 2,
                            (before[1] + self._probe[1]) / 2)


def _digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


class DemoCampaign:
    """Every campaign of ``configs/demo.yaml`` at the seed, one unit each.

    Each campaign runs through ``cli.run_campaigns`` on its own, serially, in
    the config's order; a campaign draws from its own (seed, id) stream, so
    running them one by one changes none of their outputs.  The four
    heaviest campaigns run on smaller grids (``SCALE``) so that no unit takes
    more than about a second; every campaign kind is kept.  (At 128 nodes the
    radial continuation's start needs the right-hand-side sweep, a single
    2 s step; at 96 it does not.)
    The sweeps run on a rotation-invariant background with radial factors,
    so verdicts and certified radii do not depend on the seed (it only draws
    directions and the bubble, Gershgorin and Hawking samples): one stored
    reference serves every seed.
    """

    name = "demo-campaign"
    repeatable = True
    SCALE = {
        "subsolution-sweep": {"num_r": 16, "num_dirs": 4},
        "supersolution-sweep": {"num_r": 16, "num_dirs": 4, "mu_count": 1},
        "radial-continuation": {"nodes": 96},
        "cone-homotopy": {"nodes": 48},
    }

    def __init__(self, sch, seed, root, scratch):
        self.cli = sch["cli"]
        self.reports = sch["reports"]
        cfg = self.cli.load_config(root / "configs" / "demo.yaml")
        self.campaigns = {cid: dict(spec, **self.SCALE.get(cid, {}))
                          for cid, spec in cfg["campaigns"].items()}
        self.seed = seed
        self.scratch = scratch

    def run_pass(self, index):
        out = self.scratch / f"pass{index}"
        units, results = _Units(), {}
        for cid, spec in self.campaigns.items():
            with units.unit(cid):
                summary = self.cli.run_campaigns({"campaigns": {cid: spec}}, out / cid,
                                                 jobs=1, seed=self.seed)
            results[cid] = summary["results"][0]
        ref = REFERENCE[self.name]
        checks = [("passed_all", all(r["passed"] is True for r in results.values())),
                  ("campaign set", sorted(results) == sorted(ref))]
        for cid, expected in ref.items():
            got = results.get(cid, {})
            checks.append((f"{cid} passed", got.get("passed") == expected["passed"]))
            if "r1_certified" in expected:
                checks.append((f"{cid} r1_certified",
                               got.get("r1_certified") == expected["r1_certified"]))
        files = sorted(p for p in out.rglob("*") if p.suffix in (".csv", ".txt"))
        digest = _digest(part for p in files for part in (
            str(p.relative_to(out)),
            self.reports.csv_body(p) if p.suffix == ".csv" else p.read_text()))
        shutil.rmtree(out)
        return Pass(units.times, [], digest, checks)


class PsiBranch:
    """The nonconstant-psi continuation toward the obstructed endpoint s = 0.

    n = 4, k = 2, 64 uniform nodes, psi = 1 + 0.1 cos(theta): Newton solves at
    s = 1, 0.5, 0.25, 0.12, then ``newton_continuation`` on the 24-point
    schedule to s = 0 with a budget of 17 attempts.  The branch ends in
    ``ContinuationError`` at s = 0.035 with max u four times its s = 1 value.
    Two more attempts would reach the obstruction itself, but its one
    right-hand-side-sweep leg takes over 10 s, too long for a steady unit.
    Each ``newton_solve`` call is a unit.  The problem has no random input;
    the seed is unused.
    """

    name = "psi-branch"
    repeatable = True
    budget = 17

    def __init__(self, sch, seed, root, scratch):
        self.sv = sch["solver"]
        self.ContinuationError = sch["errors"].ContinuationError
        self.profile = self.sv.RadialProfile.make(4, 64)
        self.f = sch["cones"].CurvatureFunction.sigma_root(4, 2)
        self.psi = lambda th: 1.0 + 0.1 * np.cos(th)
        self.schedule = [(s, 1.0) for s in np.linspace(0.12, 0.0, 25)[1:]]

    def run_pass(self, index):
        sv, f, psi = self.sv, self.f, self.psi
        accepted, last, units = [], None, _Units()
        original = sv.newton_solve

        @functools.wraps(original)
        def solve(*args, **kwargs):
            # one unit per Newton solve; also keeps the states the
            # continuation accepts, which it does not return when it ends
            # in ContinuationError
            with units.unit(f"solve {len(units.times)}"):
                state = original(*args, **kwargs)
            if state.min_cone_margin > 0:
                accepted.append(state)
            return state

        sv.newton_solve = solve
        try:
            cur = sv.newton_solve(self.profile, f, 1.0, psi=psi)
            for s in (0.5, 0.25, 0.12):
                cur = sv.newton_solve(cur.profile, f, s, psi=psi)
            try:
                sv.newton_continuation(cur, self.schedule, f, psi=psi,
                                       max_steps=self.budget)
            except self.ContinuationError as exc:
                last = exc.last_state
        finally:
            sv.newton_solve = original
        ref = REFERENCE[self.name]
        checks = [
            ("ContinuationError raised", last is not None),
            ("accepted s sequence", [float(st.s) for st in accepted] == ref["accepted_s"]),
            ("last_state.s", last is not None and float(last.s) == ref["last_s"]),
            ("accepted residuals <= 1e-10",
             all(st.residual_norm <= 1e-10 for st in accepted)),
            ("max_u more than doubled", last is not None and bool(accepted)
             and last.max_u > 2.0 * accepted[0].max_u),
        ]
        digest = _digest(part for st in accepted for part in (
            repr(float(st.s)), st.profile.values.tobytes()))
        return Pass(units.times, [], digest, checks)


class BubbleBatches:
    """Seeded 10-point ``bubble_verify`` calls on the flat background.

    A pass is 20 bubbles for each n = 3..8 and each derivative mode (analytic
    at the pinned 1e-8 tolerance, finite differences at 1e-6).  Every call
    draws a fresh bubble and points from the seeded stream, so no two calls
    share a point batch.
    """

    name = "bubble-batches"
    repeatable = False
    dims = range(3, 9)
    samples = 20
    points = 10
    tols = {"analytic": 1e-8, "fd": 1e-6}

    def __init__(self, sch, seed, root, scratch):
        self.bubbles = sch["bubbles"]
        cones = sch["cones"]
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB0B]))
        self.fs = {n: cones.CurvatureFunction.sigma_root(n, max(1, n // 2)) for n in self.dims}
        self.inputs = self._draw()

    def _draw(self):
        rng, out = self.rng, []
        for _ in range(self.samples):
            for n in self.dims:
                for mode in self.tols:
                    a = rng.uniform(0.7, 1.5)
                    p = rng.uniform(-1.0, 1.0, size=n)
                    dirs = rng.standard_normal((self.points, n))
                    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
                    pts = p + (rng.uniform(0.0, 1.0, size=self.points) / a)[:, None] * dirs
                    out.append((n, self.bubbles.Bubble(n=n, a=a, p=p), pts, mode))
        return out

    def run_pass(self, index):
        if index > 0:
            self.inputs = self._draw()
        verify, fs, tols = self.bubbles.bubble_verify, self.fs, self.tols
        clock = time.perf_counter
        walls, reports, units = [], [], _Units()
        with units.unit("batch"):
            for n, bubble, pts, mode in self.inputs:
                t0 = clock()
                reports.append(verify(fs[n], bubble, pts, mode=mode, tol=tols[mode]))
                walls.append(clock() - t0)
        checks = [(f"bubble n={r.n} {r.mode}", bool(r.passed)) for r in reports]
        digest = _digest(np.array([[r.max_lambda_dev, r.max_f_dev] for r in reports]).tobytes())
        return Pass(units.times, walls, digest, checks)


WORKLOADS = {w.name: w for w in (DemoCampaign, PsiBranch, BubbleBatches)}
