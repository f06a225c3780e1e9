import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from kahlerpinch import hirzebruch as hz
from kahlerpinch.geometry import curvature_tensor, holomorphic_sectional_curvature
from kahlerpinch.models import Hitchin


def test_curvature_components_frozen_values():
    assert np.allclose(
        hz.curvature_components(1, 1.0 / 3.0, 0.0), (8.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0)
    )
    assert np.allclose(hz.curvature_components(2, 0.1, 0.0), (2.4, 0.2, 0.2))
    with pytest.raises(ValueError):
        hz.curvature_components(1, 0.3, math.inf)


def test_components_match_curvature_tensor_on_jets(rng):
    for _ in range(50):
        n = int(rng.integers(1, 7))
        s = float(rng.uniform(0.05, 0.95)) / (n * n)
        r = float(rng.uniform(0.0, 10.0))
        model = Hitchin.make(n, s)
        R = curvature_tensor(model.metric_jet(model.fiber_point(r)))
        a1111, a1122, a2222 = hz.curvature_components(n, s, r)
        for got, want in ((R[0, 0, 0, 0], a1111), (R[0, 0, 1, 1], a1122), (R[1, 1, 1, 1], a2222)):
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_coefficients_frozen_values():
    alpha, beta, gamma = hz.hsc_coefficients(1, 1.0 / 3.0, 0.0)
    assert np.allclose((alpha, beta, gamma), (3.0, 6.0, 12.0))
    # vertical value is r-independent
    for r in (0.0, 1.0, 7.5, math.inf):
        assert abs(hz.hsc_value(1, 1.0 / 3.0, r, 0.0, 1.0) - 12.0) < 1e-12
    assert abs(hz.hsc_value(2, 0.1, 0.0, 1.0, 0.0) - 4.0 / 1.2) < 1e-12


def test_coefficients_broadcast_and_stay_exact():
    s = np.array([[0.05], [0.2], [0.9]])
    r = np.array([0.0, 0.5, 3.0, 40.0])
    grid = hz.hsc_coefficients(2, s, r)
    for i, j in np.ndindex(3, 4):
        one = hz.hsc_coefficients(2, float(s[i, 0]), float(r[j]))
        assert all(np.broadcast_to(x, (3, 4))[i, j] == y for x, y in zip(grid, one))
    assert all(np.asarray(x).dtype == float for x in hz.hsc_coefficients(2, s, 0))
    exact = hz.hsc_coefficients(2, Fraction(1, 10), Fraction(1, 2))
    assert exact == (Fraction(940, 289), Fraction(1520, 289), 40)
    assert all(isinstance(x, Fraction) for x in exact)
    with pytest.raises(ValueError):
        hz.hsc_coefficients(2, np.array([0.1, 0.0]), 1.0)
    with pytest.raises(ValueError):
        hz.hsc_coefficients(2, 0.1, np.array([1.0, -1.0]))


def test_quadratic_matches_geometry_hsc(rng):
    for _ in range(50):
        n = int(rng.integers(1, 7))
        s = float(rng.uniform(0.05, 0.95)) / (n * n)
        r = float(rng.uniform(0.0, 10.0))
        a = float(rng.uniform(0.0, 1.0))
        b = 1.0 - a
        model = Hitchin.make(n, s)
        jet = model.metric_jet(model.fiber_point(r))
        R = curvature_tensor(jet)
        th1, th2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        xi = np.array(
            [
                math.sqrt(a) * np.exp(1j * th1) * math.sqrt((1 + r) / (1 + r + n * s)),
                math.sqrt(b) * np.exp(1j * th2) * (1 + r) / math.sqrt(s),
            ]
        )
        want = hz.hsc_value(n, s, r, a, b)
        got = holomorphic_sectional_curvature(R, jet.g, xi)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_stationary_weights_cases():
    a0, b0 = hz.stationary_weights(1, 1.0 / 3.0, 0.0)
    assert abs(a0 - 1.0) < 1e-14 and abs(b0) < 1e-14
    a0, b0 = hz.stationary_weights(2, 0.1, math.inf)
    assert abs(a0 - 0.8) < 1e-14 and abs(b0 - 0.2) < 1e-14


def test_weights_sum_exactly_to_one():
    rnd = np.random.default_rng(7)
    for _ in range(25):
        n = int(rnd.integers(1, 7))
        s = Fraction(int(rnd.integers(1, 50)), int(rnd.integers(51, 500)))
        r = Fraction(int(rnd.integers(0, 40)), int(rnd.integers(1, 9)))
        a0, b0 = hz.stationary_weights(n, s, r)
        assert a0 + b0 == 1
    a0, b0 = hz.stationary_weights(3, Fraction(1, 21), math.inf)
    assert a0 + b0 == 1


def test_stationarity_residual_and_multiplier(rng):
    for _ in range(20):
        n = int(rng.integers(1, 7))
        s = float(rng.uniform(0.05, 0.95)) / (n * n)
        r = float(rng.uniform(0.0, 20.0))
        a0, b0 = hz.stationary_weights(n, s, r)
        assert hz.stationarity_residual(n, s, r, a0, b0) < 1e-10
        alpha, beta, gamma = hz.hsc_coefficients(n, s, r)
        lam = hz.lagrange_multiplier(n, s, r)
        assert abs(lam - (2 * alpha * a0 + beta * b0)) < 1e-12
        assert abs(lam - (beta * a0 + 2 * gamma * b0)) < 1e-9


def test_branch_values():
    assert abs(hz.stationary_branch(1, 1.0 / 3.0, math.inf) - 4.0 / 3.0) < 1e-14
    assert abs(hz.stationary_branch(2, 0.1, 0.0) - 3.2 / 1.08) < 1e-12
    assert hz.horizontal_branch(2, 0.1, math.inf) == 4
    assert abs(hz.horizontal_branch(2, 0.1, 0.0) - 4.0 / 1.2) < 1e-14
    assert abs(hz.vertical_value(0.1) - 40.0) < 1e-12


def test_critical_radius_and_value():
    assert abs(hz.critical_radius(2, 0.1) - 0.4) < 1e-15
    assert abs(hz.critical_value(2, 0.1) - 3.25) < 1e-15
    assert hz.critical_radius(1, 0.2) == 0
    assert abs(hz.critical_radius(3, 1.0 / 21.0) - 4.0 / 7.0) < 1e-14
    assert abs(hz.critical_value(3, 1.0 / 21.0) - 10.0 / 3.0) < 1e-14
    # both branches attain the critical value at the critical radius
    for n, s in ((2, 0.1), (4, 0.02), (6, 0.01)):
        r0 = hz.critical_radius(n, s)
        want = hz.critical_value(n, s)
        assert abs(hz.stationary_branch(n, s, r0) - want) < 1e-12
        assert abs(hz.horizontal_branch(n, s, r0) - want) < 1e-12


def _fd_derivative(f, r, h=1e-6):
    return (f(r + h) - f(r - h)) / (2.0 * h)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_branches_share_critical_radius_numerically(n):
    s = 0.5 / (n * n)
    r0 = hz.critical_radius(n, s)
    for branch in (hz.stationary_branch, hz.horizontal_branch):
        root = brentq(
            lambda r: _fd_derivative(lambda x: branch(n, s, x), r), 1e-4, 40.0
        )
        assert abs(root - r0) < 1e-6


def test_case_bounds_frozen_chain():
    bounds = hz.case_bounds(2, 0.1)
    want = (40.0, 4.0, 10.0 / 3.0, 3.25, 3.2 / 1.08, 1.6)
    assert np.allclose(bounds.chain, want, atol=1e-12)
    assert bounds.strictly_decreasing
    assert abs(bounds.critical_radius - 0.4) < 1e-15


def test_case_bounds_rejects_inadmissible():
    with pytest.raises(hz.AdmissibilityError):
        hz.case_bounds(2, 0.25)
    with pytest.raises(hz.AdmissibilityError):
        hz.pinching(2, 0.3)
    with pytest.raises(hz.AdmissibilityError):
        hz.min_max_hsc(3, 0.2)


def test_case_bounds_strict_descent_property(rng):
    for _ in range(40):
        n = int(rng.integers(2, 7))
        s = float(rng.uniform(1e-6, 1.0)) / (n * n)
        if s * n * n >= 1.0:
            continue
        assert hz.case_bounds(n, s).strictly_decreasing
    assert hz.case_bounds(5, 0.01).strictly_decreasing


def test_min_max_hsc_values():
    assert np.allclose(hz.min_max_hsc(1, 1.0 / 3.0), (4.0 / 3.0, 12.0))
    assert np.allclose(hz.min_max_hsc(2, 0.1), (1.6, 40.0))
    lo, hi = hz.min_max_hsc(3, Fraction(1, 21))
    assert lo == Fraction(12, 7) and hi == 84


def test_pinching_and_optimal_s():
    assert abs(hz.pinching(1, 1.0 / 3.0) - 1.0 / 9.0) < 1e-15
    assert hz.optimal_s(1) == (Fraction(1, 3), Fraction(1, 9))
    assert hz.optimal_s(2) == (Fraction(1, 10), Fraction(1, 25))
    assert hz.optimal_s(4) == (Fraction(1, 36), Fraction(1, 81))
    for n in range(1, 7):
        s_star, p_star = hz.optimal_s(n)
        assert s_star == Fraction(1, 2 * n * n + n)
        assert p_star == Fraction(1, (1 + 2 * n) ** 2)
        assert hz.pinching(n, s_star) == p_star


def test_scalar_bounds():
    lo, hi = hz.scalar_bounds(1, Fraction(1, 3))
    assert lo == 2 and hi == 18
    lo, hi = hz.scalar_bounds(2, 0.1)
    assert abs(lo - 2.4) < 1e-14 and abs(hi - 60.0) < 1e-12
    for n in range(1, 7):
        s_star, _ = hz.optimal_s(n)
        lo, hi = hz.scalar_bounds(n, s_star)
        assert lo == Fraction(6 * n * (n + 1), 2 * n * n + 3 * n + 1)
        assert hi == 12 * n * n + 6 * n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_pinching_unimodal_on_grid(n):
    svals = np.linspace(0.0, 1.0 / (n * n), 1002)[1:-1]
    ps = np.array([hz.pinching(n, float(s)) for s in svals])
    k = int(np.argmax(ps))
    diffs = np.diff(ps)
    assert np.all(diffs[:k] > 0.0)
    assert np.all(diffs[k:] < 0.0)
    s_star = float(hz.optimal_s(n)[0])
    assert abs(svals[k] - s_star) <= svals[1] - svals[0]


def test_ricci_fiber_eigenvalues_match_geometry(rng):
    from kahlerpinch.geometry import ricci

    for _ in range(15):
        n = int(rng.integers(1, 6))
        s = float(rng.uniform(0.05, 0.95)) / (n * n)
        r = float(rng.uniform(0.0, 12.0))
        model = Hitchin.make(n, s)
        jet = model.metric_jet(model.fiber_point(r))
        ric = ricci(curvature_tensor(jet), jet.g)
        got = sorted((ric[0, 0].real / jet.g[0, 0].real, ric[1, 1].real / jet.g[1, 1].real))
        want = sorted(hz.ricci_fiber_eigenvalues(n, s, r))
        assert np.allclose(got, want, rtol=1e-10)


def test_ricci_fiber_limit_values():
    assert hz.ricci_fiber_eigenvalues(2, 0.1, math.inf) == (0, 18.0)
    lam1, lam2 = hz.ricci_fiber_eigenvalues(3, 1.0 / 21.0, math.inf)
    assert lam1 == -1
    assert abs(lam2 - (2 - 3.0 / 21.0) * 21.0) < 1e-12
    assert hz.ricci_fiber_eigenvalues(1, 1.0 / 3.0, math.inf)[0] == 1


def test_limits_at_infinity_are_exact():
    for n in range(1, 7):
        for s in (hz.optimal_s(n)[0], Fraction(3, 10 * n * n), Fraction(1, 7 * n * n)):
            den = 1 + s + 2 * n * s
            cases = (
                (hz.hsc_coefficients, (4, -8 * n, 4 / s)),
                (hz.stationary_weights, ((1 + n * s) / den, s * (1 + n) / den)),
                (hz.ricci_fiber_eigenvalues, (2 - n, (2 - n * s) / s)),
                (lambda *a: (hz.stationary_branch(*a), hz.horizontal_branch(*a)),
                 ((4 - 4 * n * n * s) / den, 4)),
            )
            for f, want in cases:
                got = f(n, s, math.inf)
                assert got == want
                assert all(isinstance(x, Fraction) for x in got)


def test_case_bounds_stay_exact():
    for n in range(1, 7):
        s = hz.optimal_s(n)[0]
        bounds = hz.case_bounds(n, s)
        want = (
            4 / s,
            4,
            4 / (1 + n * s),
            (4 - s * (n - 1) ** 2) / (1 + n * s),
            4 * (1 + n * s - n * n * s) / (1 + s - (n - 1) * n * s * s),
            (4 - 4 * n * n * s) / (1 + s + 2 * n * s),
        )
        assert bounds.chain == want
        assert all(isinstance(x, Fraction) for x in bounds.chain + (bounds.critical_radius,))


def test_array_radius_holding_inf_gives_the_limit():
    r = np.array([0.0, 1.0, 7.5, np.inf])
    for f in (hz.hsc_coefficients, hz.stationary_weights, hz.ricci_fiber_eigenvalues):
        for got, i in ((f(2, 0.1, r), i) for i in range(len(r))):
            one = f(2, 0.1, math.inf if np.isinf(r[i]) else float(r[i]))
            assert all(np.broadcast_to(x, r.shape)[i] == y for x, y in zip(got, one))
    assert hz.stationary_branch(2, 0.1, r)[-1] == hz.stationary_branch(2, 0.1, math.inf)
    assert np.all(np.isfinite(hz.hsc_coefficients(2, 0.1, r)[0]))
