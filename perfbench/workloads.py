"""Benchmark workloads: seeded job lists and independent rechecks of each result.

A workload is a list of ``kahlerpinch`` command lines generated from one seed;
the program sees only those command lines.  Every job's JSON report is
rechecked here against exact closed forms, not against the ``pass`` flag or
the reference values the report carries.  A recheck returns whether the job
is correct and the relative errors that feed ``accuracy_digits``; a job with
no entry in ``errors`` (the Berger jobs, whose z-scores are statistical)
counts only toward ``pass_ratio``.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

# Gates of the ``pinch`` command for min K and max K; the pinching gate is the
# job's own ``--tol``.
PINCH_MIN_K_TOL = 1e-4
PINCH_MAX_K_TOL = 1e-9
# A Berger job is recheck-failed when the estimate sits more than this many
# standard errors from the trace.  At 3 sigma one statistical check in about
# 370 fails by chance; a benchmark that repeats thousands of jobs would then
# report spurious failures, so the gate here is 5 sigma (about 1 in 1.7e6).
BERGER_ZMAX = 5.0
# Fubini-Study has constant holomorphic sectional curvature; in this package's
# normalisation of the potential log(1 + |z|^2) that constant is 4, so the
# scalar curvature of P^m is m(m + 1).
FS_HSC = 4
RELATIVE_FLOOR = 1e-12


def certify_fiber(seed: int):
    """``pinch --grid 512`` at s* = 1/(2n^2+n) and at a seeded rational s.

    One Hirzebruch index n from 1..6 is drawn per seed, so a pass is two jobs
    and a run repeats each several times; over seeds every n is covered.
    """
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    d = rng.randint(5, 40)
    p = rng.randint(math.floor(0.2 * d) + 1, math.ceil(0.8 * d) - 1)
    s = Fraction(p, n * n * d)
    jobs = [
        ["pinch", "--n", str(n), "--grid", "512"],
        ["pinch", "--n", str(n), "--grid", "512", "--s", str(s)],
    ]
    return jobs, {"seed": seed, "n": n, "s": str(s)}


def sweep_param(seed: int):
    """``sweep-s`` on a seeded grid of P points, P near 250, for two seeded n in 1..4.

    The time of ``sweep_s`` is linear in P; a quarter of the acceptance grid
    (P = 999) lets a run repeat each job about ten times on a host whose speed
    drifts, and a seeded P still shifts the grid against s*.
    """
    rng = random.Random(seed)
    points = rng.randint(240, 279)
    ns = sorted(rng.sample(range(1, 5), 2))
    jobs = [["sweep-s", "--n", str(n), "--points", str(points)] for n in ns]
    return jobs, {"seed": seed, "n": ns, "points": points}


def _chart_point(rng: random.Random, m: int) -> str:
    coords = []
    for _ in range(m):
        re, im = rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)
        coords.append(f"{re:.3f}{im:+.3f}j")
    return ",".join(coords)


def mc_product(seed: int):
    """Berger Monte Carlo at seeded chart points plus three product checks."""
    rng = random.Random(seed)
    jobs, inputs = [], {"seed": seed, "berger": [], "product_seed": None}
    for model, m in (("product:fs2:fs2", 4), ("fs3", 3), ("hitchin:2:1/10", 2)):
        mc_seed = rng.randrange(1, 2**31)
        points = [_chart_point(rng, m) for _ in range(2)]
        inputs["berger"].append({"model": model, "seed": mc_seed, "points": points})
        argv = ["berger", "--model", model, "--samples", "100000", "--seed", str(mc_seed),
                "--zmax", str(BERGER_ZMAX)]
        # "--point=" form: a point may start with "-", which argparse would
        # otherwise read as an option.
        argv += [f"--point={point}" for point in points]
        jobs.append(argv)
    product_seed = rng.randrange(1, 2**31)
    inputs["product_seed"] = product_seed
    for left, right in (("fs1", "fs2"), ("fs2", "fs2"), ("fs1", "fs3")):
        jobs.append(["product", "--left", left, "--right", right, "--seed", str(product_seed)])
    return jobs, inputs


WORKLOADS = {
    "certify-fiber": certify_fiber,
    "sweep-param": sweep_param,
    "mc-product": mc_product,
}


def _rel(value: float, exact) -> float:
    return abs(value - float(exact)) / abs(float(exact))


def _recheck_pinch(report: dict, hz):
    params, res = report["params"], report["results"]
    n, s = params["n"], Fraction(params["s"])
    lo, hi = hz.min_max_hsc(n, s)
    errors = [
        _rel(res["pinching"], hz.pinching(n, s)),
        _rel(res["min_K"], lo),
        _rel(res["max_K"], hi),
    ]
    ok = (
        errors[0] <= params["tol"]
        and errors[1] <= PINCH_MIN_K_TOL
        and errors[2] <= PINCH_MAX_K_TOL
    )
    return ok, errors, f"rel errs pinching/min/max {errors}"


def _recheck_sweep(report: dict, hz):
    n, points = report["params"]["n"], report["params"]["points"]
    res = report["results"]
    scale = n * n * (points + 1)
    k = round(res["argmax_s"] * scale)
    grid_s = Fraction(k, scale)
    s_star, p_star = hz.optimal_s(n)
    # The exact pinching is unimodal in s, so the best grid point is a
    # neighbour of s*.
    near = [Fraction(j, scale) for j in (math.floor(s_star * scale), math.ceil(s_star * scale))]
    best = max(hz.pinching(n, s) for s in near if 0 < s < Fraction(1, n * n))
    p_grid = hz.pinching(n, grid_s)
    ok = (
        1 <= k <= points
        and abs(res["argmax_s"] - float(grid_s)) <= 1e-12 * float(grid_s)
        and abs(grid_s - s_star) <= Fraction(1, scale)
        and float((best - p_grid) / best) <= 1e-12
        and _rel(res["argmax_pinching"], p_grid) <= 1e-9
    )
    error = _rel(res["argmax_pinching"], p_star)
    return ok, [error], f"argmax s={grid_s} rel err vs 1/(1+2n)^2 {error:.3e}"


def _exact_scalar(model: dict):
    """Scalar curvature of an all-Fubini-Study model, or None."""
    if model["kind"] == "fubini_study":
        m = model["m"]
        return Fraction(FS_HSC * m * (m + 1), 4)
    if model["kind"] == "product":
        left, right = _exact_scalar(model["left"]), _exact_scalar(model["right"])
        if left is not None and right is not None:
            return left + right
    return None


def _recheck_berger(report: dict, hz):
    params, rows = report["params"], report["results"]["rows"]
    model = params["model"]
    exact = _exact_scalar(model)
    bracket = None
    if model["kind"] == "hitchin":
        bracket = hz.scalar_bounds(model["n"], Fraction(model["s"]))
    ok = bool(rows)
    worst_z = 0.0
    for row in rows:
        tau, est, sem = row["trace_tau"], row["estimate"], row["stderr"]
        diff = abs(est - tau)
        if diff > 1e-9 * max(1.0, abs(tau)):
            ok &= sem > 0 and diff <= BERGER_ZMAX * sem
            worst_z = max(worst_z, diff / sem if sem > 0 else math.inf)
        if exact is not None:
            ok &= _rel(tau, exact) <= 1e-9
        if bracket is not None:
            pad = 1e-9 * max(1.0, abs(tau))
            ok &= float(bracket[0]) - pad <= tau <= float(bracket[1]) + pad
    return ok, [], f"worst |z| {worst_z:.3f} over {len(rows)} points"


def _recheck_product(report: dict, hz):
    params, res = report["params"], report["results"]
    if any(params[side]["kind"] != "fubini_study" for side in ("left", "right")):
        raise ValueError("product recheck knows only Fubini-Study factors")
    # Both factors are 1-pinched under the common bound FS_HSC, so the product
    # extrema k c_l c_r / (c_l + c_r) and k are FS_HSC / 2 and FS_HSC.
    lower, upper = Fraction(FS_HSC, 2), Fraction(FS_HSC)
    errors = [_rel(res["min_K"], lower), _rel(res["max_K"], upper)]
    ok = max(errors) <= params["tol"]
    return ok, errors, f"rel errs min/max {errors}"


RECHECKS = {
    "pinch": _recheck_pinch,
    "sweep-s": _recheck_sweep,
    "berger": _recheck_berger,
    "product": _recheck_product,
}


def recheck(argv: list, exit_code: int, report: dict | None, hz):
    """(correct, relative errors, note) for one job; ``hz`` is the closed-form module."""
    if exit_code != 0 or report is None or report.get("pass") is not True:
        return False, [], f"exit code {exit_code} without a passing report"
    return RECHECKS[argv[0]](report, hz)


def accuracy_digits(errors) -> float:
    """Digits of the worst relative error, floored at 1e-12 to keep round-off out.

    No errors at all (every job failed before its recheck) counts as 0 digits.
    """
    return -math.log10(max(max(errors, default=1.0), RELATIVE_FLOOR))
