"""Which functions of the toolkit are traced, and the per-layer metrics.

Spans are taken at the public functions of each module, the batch methods of
``ConeSpec`` and ``CurvatureFunction``, the per-campaign runner of ``cli`` and
the two LAPACK calls the solver makes, so layer times come from the benchmark
alone and the program is not edited.  Of ``_kernels`` only the
elementary-symmetric pass is traced; the other kernels are called one-to-one
from traced ``cones`` and ``solver`` functions.  ``install``
wraps them on a ``Tracer``; ``per_layer_metrics`` turns the spans and counts
into the metric values named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import inspect
import os

import numpy as np

from spans import SpanTable


def _rows(pos):
    """Size column: rows of the batch passed at position ``pos``."""
    def size(args, kwargs):
        shape = np.shape(args[pos]) if len(args) > pos else ()
        return shape[0] if len(shape) == 2 else 1
    return size


def _esym_exit(tracer, sid, args, kwargs, result):
    lam = args[0]
    kmax = args[1] if len(args) > 1 else kwargs["kmax"]
    rows, n = np.shape(lam)
    # the recurrence updates min(i + 1, kmax) prefixes for entry i of a row
    k = min(kmax, n)
    tracer.counts["kernels.esym.madds"] += rows * (k * (k + 1) // 2 + (n - k) * k)
    tracer.counts["kernels.esym.bytes_computed"] += 8 * rows * (n + kmax + 1)


def _newton_exit(tracer, sid, args, kwargs, result):
    if result is not None:
        tracer.counts["solver.newton_iterations"] += result.newton_iterations
    pid = tracer.parent[sid]
    if pid >= 0 and tracer.names[tracer.name[pid]] == "solver.newton_continuation":
        ok = result is not None and result.min_cone_margin > 0
        tracer.counts["solver.continuation." + ("accepted" if ok else "bisections")] += 1


def _sweep_exit(tracer, sid, args, kwargs, result):
    if result is not None and result.r1_certified is not None:
        tracer.counts["barriers.useful_points"] += len(result.rows)


def _csv_exit(tracer, sid, args, kwargs, result):
    if not tracer.failed[sid]:
        tracer.counts["reports.write_csv.bytes"] += os.path.getsize(args[0])


def _public_functions(module):
    """Module-level functions defined in ``module`` whose names have no underscore."""
    for attr, value in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module.__name__):
            yield attr


def targets(sch):
    """(owner, attribute, span name, size, on_exit) for every traced call."""
    cli, cones, kern, solver = sch["cli"], sch["cones"], sch["_kernels"], sch["solver"]
    specials = {
        ("conformal", "conformal_schouten_eigs"): (_rows(2), None),
        ("solver", "newton_solve"): (None, _newton_exit),
        ("barriers", "barrier_sweep_sub"): (None, _sweep_exit),
        ("barriers", "barrier_sweep_super"): (None, _sweep_exit),
        ("_kernels", "elementary_symmetric"): (_rows(0), _esym_exit),
        ("reports", "write_csv"): (None, _csv_exit),
    }
    out = []
    for layer in ("cli", "barriers", "conformal", "cones", "_kernels", "solver",
                  "bubbles", "comparison", "reports"):
        module = sch[layer]
        for attr in _public_functions(module):
            if layer == "_kernels" and attr != "elementary_symmetric":
                continue
            size, on_exit = specials.get((layer, attr), (None, None))
            out.append((module, attr, f"{layer.lstrip('_')}.{attr}", size, on_exit))
    if kern.BACKEND == "numpy":
        # the membership and margin kernels run their e_k passes through the
        # private name; count those passes as kernel work too
        out.append((kern, "_elementary_symmetric_np", "kernels.elementary_symmetric",
                    _rows(0), _esym_exit))
    out.append((cli, "_run_item", lambda a, k: f"cli.campaign.{a[0][0]}", None, None))
    for cls, attr in ((cones.ConeSpec, "contains_batch"), (cones.ConeSpec, "margin_batch"),
                      (cones.ConeSpec, "mu_plus"),
                      (cones.CurvatureFunction, "value_batch"),
                      (cones.CurvatureFunction, "power_value_batch")):
        size = _rows(1) if attr.endswith("_batch") else None
        out.append((cls, attr, f"cones.{cls.__name__}.{attr}", size, None))
    # solver.sla is scipy.linalg; the solver is its only caller in the toolkit
    out.append((solver.sla, "lu_factor", "solver.lu_factor", None, None))
    out.append((solver.sla, "lu_solve", "solver.lu_solve", None, None))
    return out


def install(tracer, sch):
    for owner, attr, name, size, on_exit in targets(sch):
        tracer.wrap(owner, attr, name, size=size, on_exit=on_exit)


def per_layer_metrics(tracer, campaign_ids):
    t = SpanTable(tracer)
    c = tracer.counts
    comparison = [nm for nm in t.names if nm.startswith("comparison.")]
    esym = ["kernels.elementary_symmetric"]
    sweeps = ["barriers.barrier_sweep_sub", "barriers.barrier_sweep_super"]
    eigs = ["conformal.conformal_schouten_eigs"]
    contains = ["cones.ConeSpec.contains_batch"]
    residual_evals = t.calls(["solver.schouten_eig_matrix"])
    lu_calls = t.calls(["solver.lu_factor"])
    points = t.rows(eigs, within=sweeps)
    m = {f"cli.campaign.{cid}.s": t.seconds([f"cli.campaign.{cid}"]) for cid in campaign_ids}
    m.update({
        "conformal.schouten_eigs.calls": t.calls(eigs),
        "conformal.schouten_eigs.rows": t.rows(eigs),
        "conformal.schouten_eigs.s": t.seconds(eigs),
        "conformal.schouten_eigs.self_s": t.self_seconds(eigs),
        "conformal.schouten_background.calls": t.calls(["conformal.schouten_background"]),
        "conformal.schouten_background.s": t.seconds(["conformal.schouten_background"]),
        "conformal.covariant_hessian.s": t.seconds(["conformal.covariant_hessian"]),
        "conformal.eigen_rel.s": t.seconds(["conformal.eigen_rel"]),
        "barriers.sweep.calls": t.calls(sweeps),
        "barriers.sweep.s": t.seconds(sweeps),
        "barriers.points_evaluated": points,
        "barriers.useful_point_frac": c["barriers.useful_points"] / points if points else 0.0,
        "solver.newton_solve.calls": t.calls(["solver.newton_solve"]),
        "solver.newton_solve.failed": t.failures(["solver.newton_solve"]),
        "solver.newton_solve.s": t.seconds(["solver.newton_solve"]),
        "solver.newton_iterations": int(c["solver.newton_iterations"]),
        "solver.residual_evals": residual_evals,
        "solver.residual_Fs.s": t.seconds(["solver.residual_Fs"]),
        "solver.lu_factor.calls": lu_calls,
        "solver.lu_factor.s": t.seconds(["solver.lu_factor"]),
        "solver.lu_solve.calls": t.calls(["solver.lu_solve"]),
        "solver.residuals_per_jacobian": residual_evals / lu_calls if lu_calls else 0.0,
        "solver.continuation.accepted": int(c["solver.continuation.accepted"]),
        "solver.continuation.bisections": int(c["solver.continuation.bisections"]),
        "cones.contains.calls": t.calls(contains),
        "cones.contains.rows_per_call": (t.rows(contains) / t.calls(contains)
                                         if t.calls(contains) else 0.0),
        "cones.contains.s": t.seconds(contains),
        "cones.margin.calls": t.calls(["cones.ConeSpec.margin_batch"]),
        "cones.margin.rows": t.rows(["cones.ConeSpec.margin_batch"]),
        "cones.margin.s": t.seconds(["cones.ConeSpec.margin_batch"]),
        "cones.value.calls": t.calls(["cones.CurvatureFunction.value_batch"]),
        "cones.value.s": t.seconds(["cones.CurvatureFunction.value_batch"]),
        "kernels.esym.calls": t.calls(esym),
        "kernels.esym.s": t.seconds(esym),
        "kernels.esym.madds": int(c["kernels.esym.madds"]),
        "kernels.esym.bytes_computed": int(c["kernels.esym.bytes_computed"]),
        "bubbles.verify.calls": t.calls(["bubbles.bubble_verify"]),
        "bubbles.verify.s": t.seconds(["bubbles.bubble_verify"]),
        "comparison.s": t.seconds(comparison),
        "reports.write_csv.calls": t.calls(["reports.write_csv"]),
        "reports.write_csv.bytes": int(c["reports.write_csv.bytes"]),
        "reports.write_csv.s": t.seconds(["reports.write_csv"]),
    })
    return m
