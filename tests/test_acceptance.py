"""Acceptance suite: every criterion prints one [PASS]/[FAIL] summary line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute; the master seed is fixed so every run is reproducible.
"""
import json
import math
import time
from fractions import Fraction

import numpy as np

from kahlerpinch import hirzebruch as hz
from kahlerpinch.berger import SphereSampleConfig, berger_vs_trace
from kahlerpinch.cli import main
from kahlerpinch.geometry import (
    check_symmetries,
    curvature_tensor,
    holomorphic_sectional_curvature,
)
from kahlerpinch.models import FubiniStudy, Hitchin, Product
from kahlerpinch.optimize import extremize_quadratic, sweep_fiber, sweep_s
from kahlerpinch.products import product_bounds, verify_product_numeric

from conftest import MASTER_SEED, builtin_models, random_direction, random_point
from fd_oracle import fd_metric_jet

_PASSED = {}


def _report(num: int, ok: bool, detail: str):
    _PASSED[num] = ok
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _rel(value, target):
    return abs(value - target) / abs(target)


def test_criterion_1_pinching_reproduction(tmp_path):
    worst = {"pinch": 0.0, "min": 0.0, "max": 0.0, "time": 0.0}
    for n in range(1, 7):
        s_star = Fraction(1, 2 * n * n + n)
        target = 1.0 / (1 + 2 * n) ** 2
        lo = float((4 - 4 * n * n * s_star) / (1 + s_star + 2 * n * s_star))
        hi = float(4 / s_star)
        out = tmp_path / f"pinch_{n}.json"
        start = time.perf_counter()
        code = main(["pinch", "--n", str(n), "--grid", "512", "--out", str(out)])
        elapsed = time.perf_counter() - start
        doc = json.loads(out.read_text())
        res = doc["results"]
        assert code == 0 and doc["pass"]
        worst["pinch"] = max(worst["pinch"], _rel(res["pinching"], target))
        worst["min"] = max(worst["min"], _rel(res["min_K"], lo))
        worst["max"] = max(worst["max"], _rel(res["max_K"], hi))
        worst["time"] = max(worst["time"], elapsed)
    ok = (
        worst["pinch"] <= 1e-6
        and worst["min"] <= 1e-4
        and worst["max"] <= 1e-9
        and worst["time"] < 10.0
    )
    _report(
        1,
        ok,
        "pinching constants for n=1..6 at the optimal parameter "
        f"(worst rel errs: pinch {worst['pinch']:.2e}, min {worst['min']:.2e}, "
        f"max {worst['max']:.2e}; slowest sweep {worst['time']:.2f}s)",
    )


def test_criterion_2_optimal_parameter_bracketing():
    worst_time = 0.0
    ok = True
    for n in range(1, 5):
        start = time.perf_counter()
        res = sweep_s(n, points=999)
        worst_time = max(worst_time, time.perf_counter() - start)
        s_star = float(hz.optimal_s(n)[0])
        ok = ok and abs(res.argmax_s - s_star) <= res.cell_width and res.unimodal
    ok = ok and worst_time < 30.0
    _report(
        2,
        ok,
        "999-point parameter sweeps bracket the optimal value within one cell "
        f"and are unimodal for n=1..4 (slowest {worst_time:.2f}s)",
    )


def test_criterion_3_inequality_chain():
    rng = np.random.default_rng(MASTER_SEED)
    failures = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        s = float(rng.uniform(0.0, 1.0)) / (n * n)
        if not 0.0 < s * n * n < 1.0:
            s = 0.5 / (n * n)
        if not hz.case_bounds(n, s).strictly_decreasing:
            failures += 1
    _report(
        3,
        failures == 0,
        f"six-term bound chain strictly decreasing on 200 random (n, s) "
        f"({failures} failures)",
    )


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(MASTER_SEED)
    worst_jet = 0.0
    for model in builtin_models():
        for _ in range(20):
            z = random_point(model, rng)
            ja = model.metric_jet(z)
            jf = fd_metric_jet(model, z)
            for name in ("g", "dg", "ddg"):
                a, f = getattr(ja, name), getattr(jf, name)
                scale = max(np.max(np.abs(a)), 1e-12)
                worst_jet = max(worst_jet, np.max(np.abs(a - f)) / scale)
    worst_comp = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 7))
        s = float(rng.uniform(0.05, 0.95)) / (n * n)
        r = float(rng.uniform(0.0, 10.0))
        model = Hitchin.make(n, s)
        R = curvature_tensor(model.metric_jet(model.fiber_point(r)))
        comps = hz.curvature_components(n, s, r)
        for got, want in zip((R[0, 0, 0, 0], R[0, 0, 1, 1], R[1, 1, 1, 1]), comps):
            worst_comp = max(worst_comp, abs(got - want) / max(1.0, abs(want)))
    ok = worst_jet <= 1e-5 and worst_comp <= 1e-10
    _report(
        4,
        ok,
        "finite-difference jets match analytic jets "
        f"(worst {worst_jet:.2e} <= 1e-5) and closed-form fiber components match "
        f"the curvature tensor (worst {worst_comp:.2e} <= 1e-10)",
    )


def test_criterion_5_berger_formula():
    start = time.perf_counter()
    cfg = SphereSampleConfig(sample_count=100_000, seed=MASTER_SEED)
    checks = []

    targets = [
        (FubiniStudy(1), [0.7], 2.0),
        (FubiniStudy(2), [0.2, -0.4], 6.0),
        (Product(FubiniStudy(1), FubiniStudy(1)), [0.3, -0.2], 4.0),
    ]
    for model, z, tau in targets:
        est = berger_vs_trace(model, [np.asarray(z, dtype=complex)], cfg)[0]
        checks.append(abs(est.estimate - tau) <= max(3.0 * est.stderr, 1e-9))

    hitchin_samples = [
        (Hitchin.make(1, Fraction(1, 3)), (0.0, 1.0, 9.0)),
        (Hitchin.make(2, Fraction(1, 10)), (0.0, 4.0)),
    ]
    for model, radii in hitchin_samples:
        bracket = tuple(float(x) for x in hz.scalar_bounds(model.n, model.s))
        rows = berger_vs_trace(
            model, [model.fiber_point(r) for r in radii], cfg, bracket=bracket
        )
        for row in rows:
            checks.append(row.consistent(3.0) and row.within_bracket)

    exact = all(
        hz.scalar_bounds(n, Fraction(1, 2 * n * n + n))
        == (Fraction(6 * n * (n + 1), 2 * n * n + 3 * n + 1), Fraction(12 * n * n + 6 * n))
        for n in range(1, 7)
    )
    checks.append(exact)
    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 60.0
    _report(
        5,
        ok,
        "Monte Carlo sphere averages match trace scalar curvature within 3 "
        "standard errors at 1e5 samples; scalar brackets hold and are exact "
        f"rationals at the optimal parameter ({elapsed:.1f}s)",
    )


def test_criterion_6_product_theorem():
    report = verify_product_numeric(FubiniStudy(1), FubiniStudy(1))
    ok = (
        abs(report.min_K - 2.0) <= 1e-6
        and abs(report.max_K - 4.0) <= 1e-6
        and abs(report.pinching - 0.5) <= 1e-6
    )
    rng = np.random.default_rng(MASTER_SEED)
    y = np.linspace(0.0, 1.0, 1_000_001)
    worst = 0.0
    for _ in range(100):
        c_m, c_n = rng.uniform(0.02, 1.0, size=2)
        k = rng.uniform(0.5, 20.0)
        grid_min = float(np.min(k * c_m * y * y + k * c_n * (1.0 - y) ** 2))
        worst = max(worst, abs(grid_min - product_bounds(c_m, c_n, k).lower))
    ok = ok and worst <= 1e-9
    _report(
        6,
        ok,
        "product of two projective lines is (2, 4) with pinching 1/2; "
        f"brute-force grid minima match the closed form (worst {worst:.2e})",
    )


def test_criterion_7_extremal_directions_at_limit():
    ok = True
    details = []
    for n in range(1, 5):
        s_star = Fraction(1, 2 * n * n + n)
        report = sweep_fiber(Hitchin.make(n, s_star), grid=256)
        a_inf = 2 * n / (2 * n + 1)
        b_inf = (1 + n) / (1 + 3 * n + 2 * n * n)
        wmin, wmax = report.argmin["weights"], report.argmax["weights"]
        ok = ok and report.argmin["t"] == 1.0
        ok = ok and abs(wmin[0] - a_inf) <= 1e-3 and abs(wmin[1] - b_inf) <= 1e-3
        ok = ok and wmax[0] <= 1e-6

        # both extrema are realized inside the limit tangent space
        alpha, beta, gamma = (
            float(x) for x in hz.hsc_coefficients(n, float(s_star), math.inf)
        )
        q = extremize_quadratic(alpha, beta, gamma)
        ok = ok and _rel(q.min_K, report.min_K) <= 1e-6
        ok = ok and _rel(q.max_K, report.max_K) <= 1e-6
        details.append(f"n={n} weights ({wmin[0]:.4f},{wmin[1]:.4f})")
    _report(
        7,
        ok,
        "limit extremal directions match the predicted weights, the largest "
        "value is exactly vertical, and both extrema share the limit tangent "
        "space (" + "; ".join(details) + ")",
    )


def test_criterion_8_property_suite():
    rng = np.random.default_rng(MASTER_SEED)
    violations = 0

    for model in builtin_models():
        for _ in range(5):
            jet = model.metric_jet(random_point(model, rng))
            R = curvature_tensor(jet)
            symmetries = check_symmetries(R, jet)
            if symmetries.max_violation >= 1e-10:
                violations += 1
            if symmetries.kahler >= 1e-10:
                violations += 1
            for _ in range(4):
                xi = random_direction(model.dimension, rng)
                lam = rng.uniform(0.1, 10.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                K1 = holomorphic_sectional_curvature(R, jet.g, xi)
                K2 = holomorphic_sectional_curvature(R, jet.g, lam * xi)
                if abs(K1 - K2) >= 1e-9:
                    violations += 1

    for _ in range(30):
        n = int(rng.integers(1, 7))
        s = Fraction(int(rng.integers(1, 60)), int(rng.integers(61, 600)))
        r = Fraction(int(rng.integers(0, 50)), int(rng.integers(1, 11)))
        a0, b0 = hz.stationary_weights(n, s, r)
        if a0 + b0 != 1:
            violations += 1

    model = Hitchin.make(1, "1/3")
    cfg = SphereSampleConfig(sample_count=20_000, seed=MASTER_SEED)
    a = berger_vs_trace(model, [model.fiber_point(1.0)], cfg)[0]
    b = berger_vs_trace(model, [model.fiber_point(1.0)], cfg)[0]
    if a != b:
        violations += 1

    _report(
        8,
        violations == 0,
        "scaling invariance, tensor symmetries, Kahler residuals, exact "
        f"weight partition and seeded determinism ({violations} violations)",
    )


def test_criterion_9_ricci_negative_space():
    ok = True
    details = []
    ts = np.linspace(0.0, 1.0, 65)
    for n in range(2, 7):
        s_star = float(hz.optimal_s(n)[0])
        eigs = []
        for t in ts:
            r = math.inf if t >= 1.0 else float(t / (1.0 - t))
            eigs.extend(hz.ricci_fiber_eigenvalues(n, s_star, r))
        m = min(eigs)
        ok = ok and m <= 0.0
        details.append(f"n={n}: {m:.3f}")
    _report(
        9,
        ok,
        "Ricci form has a non-positive eigenvalue on the compactified fiber "
        "grid for every n >= 2 (min eigenvalues " + ", ".join(details) + ")",
    )
