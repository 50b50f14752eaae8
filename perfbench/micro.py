"""Per-layer timings at the call shapes the workloads really use.

Each figure is the median per-call time over five batches of repeated calls
through a public entry point, untraced:

  cone kernels      ConeSpec.contains_batch / margin_batch and
                    CurvatureFunction.value_batch at 64x4 (psi-branch rows),
                    128x3 (radial continuation) and 512x6 (a barrier sweep
                    candidate: 64 radii x 8 directions)
  residual          solver.residual_Fs at 64 and 128 nodes
  Jacobian solve    scipy.linalg.lu_factor at 64 and 128 (the solver's call)
  chart geometry    conformal.conformal_schouten_eigs on 512 sphere_normal points
"""

from __future__ import annotations

import statistics
import time

import numpy as np

KERNEL_SHAPES = ((64, 4, 2), (128, 3, 2), (512, 6, 3))


def per_call_us(fn, batch_s=0.02, batches=5):
    fn()
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        dt = time.perf_counter() - t0
        if dt >= batch_s / 4:
            break
        reps *= 2
    reps = max(1, round(reps * batch_s / dt))
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps)
    return 1e6 * statistics.median(samples)


def timings(sch):
    cones, solver, cf = sch["cones"], sch["solver"], sch["conformal"]
    from scipy import linalg

    rng = np.random.default_rng(7)
    out = {}
    for rows, n, k in KERNEL_SHAPES:
        lam = rng.uniform(0.05, 2.0, (rows, n))
        cone = cones.ConeSpec.gamma(n, k)
        f = cones.CurvatureFunction.sigma_root(n, k)
        shape = f"{rows}x{n}"
        out[f"micro.contains_batch.{shape}.us"] = per_call_us(lambda: cone.contains_batch(lam))
        out[f"micro.margin_batch.{shape}.us"] = per_call_us(lambda: cone.margin_batch(lam))
        out[f"micro.value_batch.{shape}.us"] = per_call_us(lambda: f.value_batch(lam))
    for nodes, n in ((64, 4), (128, 3)):
        prof = solver.RadialProfile.make(n, nodes, values=lambda th: 1.0 + 0.1 * np.cos(th))
        f = cones.CurvatureFunction.sigma_root(n, 2)
        out[f"micro.residual_Fs.{nodes}.us"] = per_call_us(
            lambda: solver.residual_Fs(prof, f, 1.0, psi=1.0))
        jac = rng.standard_normal((nodes, nodes)) + nodes * np.eye(nodes)
        out[f"micro.lu_factor.{nodes}.us"] = per_call_us(lambda: linalg.lu_factor(jac))
    n = 4
    g = cf.MetricField.sphere_normal(n)
    u = cf.ConformalFactor.radial(n, lambda r: 1.0 + r ** 2, lambda r: 2.0 * r,
                                  lambda r: 2.0 + 0.0 * r)
    dirs = rng.standard_normal((512, n))
    pts = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * rng.uniform(0.01, 0.5, (512, 1))
    out["micro.schouten_eigs.512.us"] = per_call_us(lambda: cf.conformal_schouten_eigs(g, u, pts))
    return out
