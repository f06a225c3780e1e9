import inspect
import json
import math
import sys
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from kahlerpinch import hirzebruch as hz
from kahlerpinch import models, optimize
from kahlerpinch.cli import main
from kahlerpinch.geometry import (
    _stack_last,
    curvature_tensor,
    holomorphic_sectional_curvature,
    orthonormal_frame,
)
from kahlerpinch.models import FubiniStudy, Hitchin, Product
from kahlerpinch.optimize import (
    batch_hsc,
    extremize_directions,
    extremize_quadratic,
    sweep_fiber,
    sweep_s,
)

from conftest import MASTER_SEED, random_point


def test_extremize_constant_model(rng):
    model = FubiniStudy(2)
    jet = model.metric_jet(random_point(model, rng))
    ex = extremize_directions(curvature_tensor(jet)[None], jet.g[None])
    assert abs(ex.min_K[0] - 4.0) < 1e-8
    assert abs(ex.max_K[0] - 4.0) < 1e-8
    assert ex.converged[0]


def test_extremize_hitchin_origin():
    jet = Hitchin.make(1, "1/3").metric_jet([0.0, 0.0])
    ex = extremize_directions(curvature_tensor(jet)[None], jet.g[None])
    assert abs(ex.min_K[0] - 3.0) < 1e-9
    assert abs(ex.max_K[0] - 12.0) < 1e-9
    assert ex.min_residual[0] <= 1e-4 * max(1.0, ex.min_K[0])
    assert ex.max_residual[0] <= 1e-4 * max(1.0, ex.max_K[0])


def test_extremize_product_origin():
    jet = Product(FubiniStudy(1), FubiniStudy(1)).metric_jet([0.0, 0.0])
    ex = extremize_directions(curvature_tensor(jet)[None], jet.g[None])
    assert abs(ex.min_K[0] - 2.0) < 1e-9
    assert abs(ex.max_K[0] - 4.0) < 1e-9


def test_extremize_three_dimensional_product(rng):
    model = Product(FubiniStudy(1), FubiniStudy(2))
    jet = model.metric_jet(random_point(model, rng))
    ex = extremize_directions(curvature_tensor(jet)[None], jet.g[None])
    assert abs(ex.min_K[0] - 2.0) < 1e-6
    assert abs(ex.max_K[0] - 4.0) < 1e-6


def _surface_cases():
    rng = np.random.default_rng(MASTER_SEED)
    # a sampled direction search can stop short of the true maximum 4/s = 312 here
    cases = [
        pytest.param(
            Hitchin.make(6, "1/78"), np.array([0.01 + 0.1j, -1.13 + 0.71j]), id="hitchin-6-1_78"
        )
    ]
    for k in range(6):
        n = int(rng.integers(1, 7))
        model = Hitchin.make(n, float(rng.uniform(0.05, 0.95)) / (n * n))
        z = random_point(model, rng, radius=1.5)
        cases.append(pytest.param(model, z, id=f"hitchin-off-fiber-{k}"))
    for n in (1, 3, 6):
        model = Hitchin.make(n, hz.optimal_s(n)[0])
        for r in (0.0, 0.7, 5.0, 99.0):
            cases.append(pytest.param(model, model.fiber_point(r), id=f"fiber-{n}-r{r}"))
    for name, model in (("fs2", FubiniStudy(2)), ("fs1xfs1", Product(FubiniStudy(1), FubiniStudy(1)))):
        for k in range(2):
            cases.append(pytest.param(model, random_point(model, rng), id=f"{name}-{k}"))
    return cases


@pytest.mark.parametrize("model,z", _surface_cases())
def test_surface_extrema_bracket_dense_sample(model, z):
    jet = model.metric_jet(z)
    R = curvature_tensor(jet)
    ex = extremize_directions(R[None], jet.g[None])
    min_K, max_K = ex.min_K[0], ex.max_K[0]
    rng = np.random.default_rng(MASTER_SEED)
    raw = rng.standard_normal((20000, 2)) + 1j * rng.standard_normal((20000, 2))
    K = batch_hsc(R, jet.g, raw @ orthonormal_frame(jet.g).T)
    scale = max(1.0, abs(min_K), abs(max_K))
    assert min_K <= K.min() + 1e-12 * scale
    assert max_K >= K.max() - 1e-12 * scale
    assert ex.min_residual[0] <= 1e-10 * max(1.0, abs(min_K))
    assert ex.max_residual[0] <= 1e-10 * max(1.0, abs(max_K))
    assert ex.converged[0]


def test_extremize_quadratic_against_grid(rng):
    for _ in range(25):
        alpha, beta, gamma = rng.uniform(-5.0, 40.0, size=3)
        q = extremize_quadratic(alpha, beta, gamma)
        a = np.linspace(0.0, 1.0, 200001)
        vals = alpha * a * a + beta * a * (1 - a) + gamma * (1 - a) ** 2
        assert q.min_K <= vals.min() + 1e-9
        assert q.max_K >= vals.max() - 1e-9
        assert abs(q.min_K - vals.min()) < 1e-8
        assert abs(q.max_K - vals.max()) < 1e-8


def test_extremize_quadratic_is_elementwise(rng):
    coeffs = rng.uniform(-5.0, 40.0, size=(3, 4, 5))
    q = extremize_quadratic(*coeffs)
    assert q.min_K.shape == (4, 5) and q.max_K.shape == (4, 5)
    for idx in np.ndindex(4, 5):
        one = extremize_quadratic(*coeffs[(slice(None),) + idx])
        assert (one.min_K, one.max_K) == (q.min_K[idx], q.max_K[idx])


def _three_point_extrema(alpha, beta, gamma):
    """Reference: the quadratic evaluated at a = 0, a = 1 and the clipped vertex, then reduced."""
    alpha, beta, gamma = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (alpha, beta, gamma)))
    curv, slope0 = alpha - beta + gamma, beta - 2.0 * gamma
    vertex = np.divide(-slope0, 2.0 * curv, out=np.zeros_like(curv), where=curv != 0.0)
    a = np.stack([np.zeros_like(curv), np.ones_like(curv), np.clip(vertex, 0.0, 1.0)])
    K = alpha * a * a + beta * a * (1.0 - a) + gamma * (1.0 - a) ** 2
    return K.min(axis=0), K.max(axis=0), vertex


def _assert_same_bits(q, ref):
    for got, want in zip((q.min_K, q.max_K), ref):
        np.testing.assert_array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


def test_extremize_quadratic_endpoint_identity(rng):
    """Evaluating only the vertex gives the bits of evaluating a = 0, a = 1 and the vertex."""
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(3, 4000))
    coeffs = rng.standard_normal((3, 4000)) * scale
    ref = _three_point_extrema(*coeffs)
    vertex = ref[2]
    for region in (vertex < 0.0, (vertex >= 0.0) & (vertex <= 1.0), vertex > 1.0):
        assert np.count_nonzero(region) >= 100
    _assert_same_bits(extremize_quadratic(*coeffs), ref[:2])

    # curv == 0 exactly: integer coefficients with alpha = beta - gamma, zeros included
    beta, gamma = rng.integers(-5, 6, size=(2, 200)).astype(float)
    alpha = beta - gamma
    assert np.all(alpha - beta + gamma == 0.0)
    _assert_same_bits(extremize_quadratic(alpha, beta, gamma), _three_point_extrema(alpha, beta, gamma)[:2])

    # the sweep's own coefficients, t = 1 (r = inf) included
    t = np.linspace(0.0, 1.0, 65)
    with np.errstate(divide="ignore"):
        radii = t / (1.0 - t)
    for n in range(1, 5):
        coeffs = hz.hsc_coefficients(n, np.linspace(0.01, 0.99, 50)[:, None] / (n * n), radii)
        _assert_same_bits(extremize_quadratic(*coeffs), _three_point_extrema(*coeffs)[:2])

    for alpha, beta, gamma in ((1.0, 3.0, 2.0), (2.0, -1.0, 5.0), (12.0, 8.0, 4.0), (1.0, 0.0, 1.0)):
        q = extremize_quadratic(alpha, beta, gamma)
        assert type(q.min_K) is np.float64 and type(q.max_K) is np.float64
        _assert_same_bits(q, _three_point_extrema(alpha, beta, gamma)[:2])


@pytest.mark.parametrize(
    "n,s,expected_pinch",
    [(1, Fraction(1, 3), 1.0 / 9.0), (2, Fraction(1, 10), 1.0 / 25.0)],
)
def test_sweep_fiber_reproduces_closed_forms(n, s, expected_pinch):
    report = sweep_fiber(Hitchin.make(n, s), grid=512)
    lo, hi = (float(x) for x in hz.min_max_hsc(n, s))
    assert abs(report.min_K - lo) <= 1e-6 * lo
    assert abs(report.max_K - hi) <= 1e-9 * hi
    assert abs(report.pinching - expected_pinch) <= 1e-6 * expected_pinch
    assert report.converged
    assert report.lagrange_residual < 1e-4 * max(1.0, report.max_K)


def test_sweep_fiber_non_optimal_parameter():
    report = sweep_fiber(Hitchin.make(2, 0.01), grid=256)
    want = 0.01 * (1 - 0.04) / (1 + 0.01 + 0.04)
    assert abs(report.pinching - want) <= 1e-6 * want


def test_sweep_fiber_rejects_bad_parameters():
    with pytest.raises(hz.AdmissibilityError):
        sweep_fiber(Hitchin.make(2, 0.3), grid=16)
    with pytest.raises(ValueError):
        sweep_fiber(Hitchin.make(1, "1/3"), grid=1)


def test_sweep_fiber_deterministic():
    a = sweep_fiber(Hitchin.make(1, "1/3"), grid=64, seed=11)
    b = sweep_fiber(Hitchin.make(1, "1/3"), grid=64, seed=11)
    assert a == b


def test_sweep_profile_shape():
    report = sweep_fiber(Hitchin.make(1, "1/3"), grid=32)
    rows = list(report.csv_rows())
    assert rows[0] == ("t", "min_K_at_t", "max_K_at_t")
    assert len(rows) == 33
    assert rows[1][0] == 0.0 and rows[-1][0] == 1.0
    assert len(report.profile) == 32
    assert "profile" not in report.to_json_dict()


def test_limit_state_extremizer_weights():
    for n in (1, 2):
        s_star = float(hz.optimal_s(n)[0])
        report = sweep_fiber(Hitchin.make(n, s_star), grid=128)
        assert report.argmin["t"] == 1.0
        a_inf = 2 * n / (2 * n + 1)
        b_inf = (1 + n) / (1 + 3 * n + 2 * n * n)
        assert abs(report.argmin["weights"][0] - a_inf) < 1e-3
        assert abs(report.argmin["weights"][1] - b_inf) < 1e-3
        assert report.argmax["weights"][0] < 1e-6


@pytest.mark.parametrize("n,s", [(1, "1/3"), (2, "1/10"), (2, "3/40")])
def test_refine_wins_and_limit_tie_lost(n, s, monkeypatch):
    # Lowering the t = 1 row to the extrema (c/2, c) of the weight quadratic
    # (c, 0, c), c = 0.99 gamma, moves both extrema off t = 1: the minimum into
    # the last grid cell, where the refine beats the grid, and the maximum to
    # the finite grid.
    cells = optimize._fiber_cells
    model = Hitchin.make(n, s)
    # K is continuous up to t = 1, so its unpatched value there is the
    # infimum of the refine's bracket.
    infimum = cells(model, np.array([1.0]))[0][0, 0]

    def lowered_limit(model, t):
        K, weights, residual, converged = cells(model, t)
        c = 0.99 * 4.0 / model.s
        K[t == 1.0] = (c / 2.0, c)
        return K, weights, residual, converged

    monkeypatch.setattr(optimize, "_fiber_cells", lowered_limit)
    for grid in (64, 512):
        report = sweep_fiber(model, grid=grid)
        ts = np.linspace(0.0, 1.0, grid)
        finite = report.profile[:-1]
        t = report.argmin["t"]
        assert 0.0 < t < 1.0 and np.min(np.abs(ts - t)) > 0.0
        assert report.min_K < min(row[1] for row in finite)
        assert abs(report.min_K - infimum) <= 1e-8 * infimum
        jet = model.fiber_jet(t)
        min_K = extremize_directions(curvature_tensor(jet)[None], jet.g[None]).min_K[0]
        assert abs(report.min_K - min_K) <= 1e-12 * min_K
        # K = 4/s along the vertical direction at every t, so the maximum is a
        # plateau on which the refine may beat the grid by rounding alone.
        assert report.argmax["t"] < 1.0
        assert report.max_K >= max(row[2] for row in finite)
        assert abs(report.max_K - 4.0 / model.s) <= 1e-14 * 4.0 / model.s
        assert report.method["refine_iterations"] > 0
        assert report.converged


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_fiber_sweep_exact_to_rounding_on_fine_grids(n):
    # A finer grid must not certify worse: the samples near t = 1 come from
    # the far chart, whose jets stay accurate up to t = 1 itself.
    s_star = hz.optimal_s(n)[0]
    model = Hitchin.make(n, s_star)
    lo, hi = (float(x) for x in hz.min_max_hsc(n, s_star))
    fine = sweep_fiber(model, grid=2048)
    # Both extrema tie with t = 1, where both extremal directions coexist.
    assert fine.argmin["t"] == fine.argmax["t"] == 1.0
    assert abs(fine.min_K - lo) <= 1e-14 * lo
    assert abs(fine.max_K - hi) <= 1e-14 * hi
    ts, k_min, k_max = np.array(sweep_fiber(model, grid=512).profile).T
    with np.errstate(divide="ignore"):
        want = extremize_quadratic(*hz.hsc_coefficients(n, float(s_star), ts / (1.0 - ts)))
    assert np.all(np.abs(k_min - want.min_K) <= 1e-13 * want.min_K)
    assert np.all(np.abs(k_max - want.max_K) <= 1e-13 * want.max_K)


def test_fiber_sweep_takes_the_base_jet_once(monkeypatch):
    # Four grid blocks and the refine rounds of an interior extremum share one
    # base jet, and a second sweep, of another model, takes it from the first.
    cells, calls = optimize._fiber_cells, []
    power_kernel = models._power_kernel

    def lowered_limit(model, t):
        K, weights, residual, converged = cells(model, t)
        K[t == 1.0] = (0.99 * 2.0 / model.s, 0.99 * 4.0 / model.s)
        return K, weights, residual, converged

    def counted(z, a, b):
        if b is None:  # the base kernel 1 + |z1|^2
            calls.append(np.shape(z))
        return power_kernel(z, a, b)

    monkeypatch.setattr(optimize, "_fiber_cells", lowered_limit)
    monkeypatch.setattr(models, "_power_kernel", counted)
    models._fiber_base_jet.cache_clear()
    for model in (Hitchin.make(2, "3/40"), Hitchin.make(3, "1/21")):
        report = sweep_fiber(model, grid=1024)
        assert report.method["refine_iterations"] > 0
    assert calls == [(1, 2)]


def test_fiber_sweep_takes_residuals_only_where_it_can_report(monkeypatch):
    """Each stacked solve of a sweep runs the K-gradient on at most 3 rows x (min, max).

    Those are the rows a sweep can report: a call's first lowest minimum,
    its first highest maximum and its last sample, whose residuals come back
    finite.  The lowered t = 1 row moves both extrema into the grid, so the
    refine's rounds are counted too.
    """
    cells, gradient, calls, rows = optimize._fiber_cells, optimize.hsc_gradient, [], []

    def lowered_limit(model, t):
        K, weights, residual, converged = cells(model, t)
        assert np.isfinite(residual[np.argmin(K[:, 0]), 0]) and np.isfinite(residual[np.argmax(K[:, 1]), 1])
        assert np.isfinite(residual[-1]).all()
        calls.append(len(t))
        K[t == 1.0] = (0.99 * 2.0 / model.s, 0.99 * 4.0 / model.s)
        return K, weights, residual, converged

    def counted(R, g, xi):
        rows.append(math.prod(np.broadcast_shapes(np.shape(R)[:-4], np.shape(g)[:-2], np.shape(xi)[:-1])))
        return gradient(R, g, xi)

    monkeypatch.setattr(optimize, "_fiber_cells", lowered_limit)
    monkeypatch.setattr(optimize, "hsc_gradient", counted)
    report = sweep_fiber(Hitchin.make(2, "3/40"), grid=512)
    assert calls[0] == 512 and report.method["refine_iterations"] == optimize._ZOOM * (len(calls) - 1) > 0
    assert len(rows) == len(calls) and max(rows) <= 6


def test_fiber_sweep_reads_no_closed_form(monkeypatch):
    models = [Hitchin.make(n, hz.optimal_s(n)[0]) for n in (1, 2, 3)]
    want = [sweep_fiber(model, grid=32) for model in models]

    def closed_form(*args, **kwargs):
        raise AssertionError("the numeric route read a closed form")

    # Every closed form, wherever it was imported; only the admissibility
    # check (and the input check it runs) stays.
    kept = {"require_admissible", "is_admissible", "_check_params"}
    modules = [m for name, m in sys.modules.items() if name.startswith("kahlerpinch")]
    for name, value in vars(hz).copy().items():
        if inspect.isfunction(value) and value.__module__ == hz.__name__ and name not in kept:
            for module in modules:
                if getattr(module, name, None) is value:
                    monkeypatch.setattr(module, name, closed_form)
    assert [sweep_fiber(model, grid=32) for model in models] == want


def _fiber_reduction_error(model, z, exponent):
    """Worst relative gap between the S^2 extrema at the points z and at fiber_jet(t(z)).

    t(z) = |z2|^2/((1 + |z1|^2)^exponent + |z2|^2); with the exponent n it is
    the invariant of the U(2) action that preserves Hitchin's metrics.
    """
    jet = model.metric_jet(z)
    here = extremize_directions(curvature_tensor(jet), jet.g)
    w1, w2 = np.abs(z[:, 0]) ** 2, np.abs(z[:, 1]) ** 2
    fiber = model.fiber_jet(w2 / ((1.0 + w1) ** exponent + w2))
    there = extremize_directions(curvature_tensor(fiber), fiber.g)
    got, want = np.stack([here.min_K, here.max_K]), np.stack([there.min_K, there.max_K])
    return float(np.max(np.abs(got - want) / np.abs(want)))


@pytest.mark.parametrize("n,s", [(1, "1/3"), (2, "1/10"), (3, "1/21"), (6, "1/78"), (2, "3/40")])
def test_fiber_reduction_by_u2_invariant(n, s):
    # The fiber sweep is complete because every point of the chart has the
    # curvature of the central fiber at t(z).  The gap comes from log_jet
    # cancellation and grows with n and |z|: 1.1e-11 at worst here (n = 6),
    # while the exponent n + 1 misses by 5e-2 or more.
    model = Hitchin.make(n, s)
    rng = np.random.default_rng(MASTER_SEED)
    # complex normal coordinates of standard deviation 2: E|z_i|^2 = 4
    z = math.sqrt(2.0) * (rng.standard_normal((400, 2)) + 1j * rng.standard_normal((400, 2)))
    assert _fiber_reduction_error(model, z, n) <= 1e-9
    assert _fiber_reduction_error(model, z, n + 1) > 1e-9


def test_sweep_s_brackets_optimum():
    res = sweep_s(1, points=999)
    assert abs(res.argmax_s - 1.0 / 3.0) <= res.cell_width
    assert res.unimodal
    assert abs(res.argmax_pinching - 1.0 / 9.0) < 1e-4
    rows = list(res.csv_rows())
    assert rows[0] == ("s", "pinching", "is_argmax")
    assert sum(r[2] for r in rows[1:]) == 1


def test_sweep_s_rejects_empty_grid():
    with pytest.raises(ValueError):
        sweep_s(1, points=0)


@pytest.mark.parametrize("n", [10**80, 10**155], ids=["1e80", "1e155"])
def test_sweep_s_applies_the_range_rule_of_s(n):
    # 1e155: 1/n^2 is no float; 1e80: every s of the grid is below 1e-150
    with pytest.raises(ValueError, match=f"n = {n} puts the 5-point parameter grid down to s = "):
        sweep_s(n, 5)
    # the grid's smallest s, 1/(6 n^2), is just inside at n = 10**74
    assert sweep_s(10**74, 5).argmax_s > 1e-150


def test_unconverged_flag_is_reported_not_silenced(monkeypatch):
    monkeypatch.setattr(optimize, "_RESIDUAL_TOL", 0.0)
    jet = Hitchin.make(1, "1/3").metric_jet([0.0, 0.5])
    ex = extremize_directions(curvature_tensor(jet)[None], jet.g[None])
    assert not ex.converged[0]
    assert abs(ex.max_K[0] - 12.0) < 1e-8  # the answer is still reported


def _random_tangent_space(model, rng):
    jet = model.metric_jet(random_point(model, rng))
    return curvature_tensor(jet), jet.g


@pytest.mark.parametrize(
    "model",
    [
        FubiniStudy(1),
        Hitchin.make(1, "1/3"),
        Product(FubiniStudy(1), Hitchin.make(2, "1/10")),
        Product(Hitchin.make(1, "1/3"), Hitchin.make(3, "1/21")),
    ],
    ids=["m1", "m2", "m3", "m4"],
)
def test_batch_hsc_matches_pointwise_across_blocks(model, rng, monkeypatch):
    monkeypatch.setattr(optimize, "_HSC_BLOCK", 64)
    R, g = _random_tangent_space(model, rng)
    m = model.dimension
    xis = rng.standard_normal((150, m)) + 1j * rng.standard_normal((150, m))
    K = batch_hsc(R, g, xis)
    want = np.array([holomorphic_sectional_curvature(R, g, xi) for xi in xis])
    assert K.shape == (150,)
    assert np.all(np.abs(K - want) <= 1e-13 * np.abs(want))


@pytest.mark.parametrize(
    "model",
    [
        FubiniStudy(1),
        Hitchin.make(1, "1/3"),
        Product(FubiniStudy(1), Hitchin.make(2, "1/10")),
        Product(Hitchin.make(1, "1/3"), Hitchin.make(3, "1/21")),
    ],
    ids=["m1", "m2", "m3", "m4"],
)
def test_batch_hsc_bits_do_not_depend_on_the_block(model, rng, monkeypatch):
    # 10243 rows: a last remainder of 3 joins its block at 64 and at 2048;
    # at 8192 one full block, then the same last block of 2051 as at 2048
    m = model.dimension
    jet = model.metric_jet(np.array([random_point(model, rng) for _ in range(3)]))
    R, g = curvature_tensor(jet), jet.g
    xis = rng.standard_normal((10243, m)) + 1j * rng.standard_normal((10243, m))
    got = []
    for block in (64, 2048, 8192):
        monkeypatch.setattr(optimize, "_HSC_BLOCK", block)
        got.append((batch_hsc(R, g, xis), batch_hsc(R, g[0], xis)))
    for stacked, shared in got[1:]:
        assert np.array_equal(stacked, got[0][0])
        assert np.array_equal(shared, got[0][1])


def test_batch_hsc_rejects_imaginary_residue(rng):
    R, g = _random_tangent_space(Hitchin.make(1, "1/3"), rng)
    R = R.copy()
    R[0, 0, 0, 0] += 1j * np.abs(R).max()
    with pytest.raises(ValueError, match="imaginary residue"):
        batch_hsc(R, g, np.array([[1.0, 0.5j], [0.3, 1.0]]))


@pytest.mark.parametrize(
    "model",
    [
        FubiniStudy(1),
        Hitchin.make(1, "1/3"),
        Product(FubiniStudy(1), Hitchin.make(2, "1/10")),
        Product(Hitchin.make(1, "1/3"), Hitchin.make(3, "1/21")),
    ],
    ids=["m1", "m2", "m3", "m4"],
)
def test_stacked_batch_hsc_matches_tensor_by_tensor(model, rng, monkeypatch):
    monkeypatch.setattr(optimize, "_HSC_BLOCK", 64)
    m = model.dimension
    jet = model.metric_jet(np.array([random_point(model, rng) for _ in range(5)]))
    R, g = curvature_tensor(jet), jet.g
    xis = rng.standard_normal((150, m)) + 1j * rng.standard_normal((150, m))
    K = batch_hsc(R, g, xis)
    assert K.shape == (5, 150)
    for p in range(5):
        assert np.all(np.abs(K[p] - batch_hsc(R[p], g[p], xis)) <= 1e-13 * np.abs(K[p]))
        want = np.array([holomorphic_sectional_curvature(R[p], g[p], xi) for xi in xis])
        assert np.all(np.abs(K[p] - want) <= 1e-13 * np.abs(want))
    # one metric broadcast against the stack of tensors
    assert np.array_equal(batch_hsc(R, g[0], xis)[0], K[0])


def test_stacked_batch_hsc_rejects_one_bad_tensor(rng):
    model = Hitchin.make(1, "1/3")
    jet = model.metric_jet(np.array([random_point(model, rng) for _ in range(4)]))
    R = curvature_tensor(jet)
    batch_hsc(R, jet.g, np.array([[1.0, 0.5j], [0.3, 1.0]]))
    R[2, 0, 1, 1, 0] += 1e-6j * np.abs(R).max()
    with pytest.raises(ValueError, match="imaginary residue"):
        batch_hsc(R, jet.g, np.array([[1.0, 0.5j], [0.3, 1.0]]))


_GENERAL_MODELS = {
    "fs3": FubiniStudy(3),
    "fs1xfs2": Product(FubiniStudy(1), FubiniStudy(2)),
    "hitchin-1_3xfs1": Product(Hitchin.make(1, "1/3"), FubiniStudy(1)),
    "hitchin-2_10xfs2": Product(Hitchin.make(2, "1/10"), FubiniStudy(2)),
    "hitchin-1_3xhitchin-3_21": Product(Hitchin.make(1, "1/3"), Hitchin.make(3, "1/21")),
    "hitchin-6_78xfs1": Product(Hitchin.make(6, "1/78"), FubiniStudy(1)),
}


@pytest.mark.parametrize("name", list(_GENERAL_MODELS))
def test_general_extrema_bracket_dense_sample(name):
    model = _GENERAL_MODELS[name]
    m = model.dimension
    rng = np.random.default_rng(MASTER_SEED)
    for k in range(8):
        R, g = _random_tangent_space(model, rng)
        ex = extremize_directions(R[None], g[None], seed=k)
        min_K, max_K = ex.min_K[0], ex.max_K[0]
        raw = rng.standard_normal((20000, m)) + 1j * rng.standard_normal((20000, m))
        K = batch_hsc(R, g, raw @ orthonormal_frame(g).T)
        scale = max(1.0, abs(min_K), abs(max_K))
        assert min_K <= K.min() + 1e-12 * scale
        assert max_K >= K.max() - 1e-12 * scale
        assert ex.min_residual[0] <= 1e-11 * max(1.0, abs(min_K))
        assert ex.max_residual[0] <= 1e-11 * max(1.0, abs(max_K))
        assert ex.converged[0]


_STACKED_MODELS = {**_GENERAL_MODELS, "fs2": FubiniStudy(2), "fs1": FubiniStudy(1)}


def _assert_rows_alone_match(R, g, seed):
    """Each row of the stacked direction search gives the same bits solved alone."""
    ex = optimize.extremize_directions(R, g, seed=seed)
    for p in range(len(R)):
        one = extremize_directions(R[p : p + 1], g[p : p + 1], seed=seed)
        for f in fields(one):
            assert np.array_equal(getattr(ex, f.name)[p], getattr(one, f.name)[0]), (p, f.name)


@pytest.mark.parametrize("name", list(_STACKED_MODELS))
def test_stacked_search_matches_row_by_row(name, monkeypatch):
    model = _STACKED_MODELS[name]
    rng = np.random.default_rng(MASTER_SEED)
    jet = model.metric_jet(np.array([random_point(model, rng) for _ in range(6)]))
    R = curvature_tensor(jet)
    scored = []
    monkeypatch.setattr(optimize, "batch_hsc", lambda *a: scored.append(a) or batch_hsc(*a))
    optimize.extremize_directions(R, jet.g, seed=3)
    assert len(scored) == (1 if model.dimension >= 3 else 0)  # one scoring of all starts
    monkeypatch.undo()
    _assert_rows_alone_match(R, jet.g, seed=3)


def test_stacked_search_rows_stop_independently(monkeypatch):
    # Hitchin product rows whose searches take different numbers of evaluations.
    model = Product(Hitchin.make(1, "1/3"), Hitchin.make(1, "1/3"))
    rng = np.random.default_rng(MASTER_SEED)
    jet = model.metric_jet(np.array([random_point(model, rng) for _ in range(8)]))
    R = curvature_tensor(jet)
    evaluated, objective = [], optimize._chart_objective

    def counting(Rhat, sign):
        fun = objective(Rhat, sign)
        return lambda x, rows: evaluated.extend(rows) or fun(x, rows)

    monkeypatch.setattr(optimize, "_chart_objective", counting)
    optimize.extremize_directions(R, jet.g, seed=1)
    monkeypatch.undo()
    nfev = np.bincount(evaluated)
    assert len(nfev) == 2 * len(R) and len(set(nfev)) >= 4
    _assert_rows_alone_match(R, jet.g, seed=1)


@pytest.mark.parametrize("name", list(_GENERAL_MODELS))
def test_chart_hessian_matches_gradient_differences(name):
    model = _GENERAL_MODELS[name]
    m = model.dimension
    rng = np.random.default_rng(MASTER_SEED)
    h = 3e-4
    for k in range(4):
        R, g = _random_tangent_space(model, rng)
        F = np.roll(orthonormal_frame(g), -k, axis=1)  # chart c_k = 1 of the frame
        Rhat = optimize._frame_tensor(R, _stack_last(F, 2))[None]
        fun = optimize._chart_objective(Rhat, np.array([1.0 if k % 2 else -1.0]))
        x = rng.uniform(-1.0, 1.0, 2 * (m - 1))
        K, _, H = (y[0] for y in fun(x[None], [0]))
        fd = np.empty_like(H)
        for i in range(len(x)):
            e = np.zeros_like(x)
            e[i] = h
            grad = [fun((x + j * e)[None], [0])[1][0] for j in (-2, -1, 1, 2)]
            # fourth-order central difference of the gradient
            fd[:, i] = (8.0 * (grad[2] - grad[1]) - (grad[3] - grad[0])) / (12.0 * h)
        # fs3 has constant K, so its Hessian is rounding noise; K sets the scale there.
        assert np.abs(H - fd).max() <= 1e-9 * max(abs(K), np.abs(H).max())


def _rosenbrock(evaluated):
    """Stacked Rosenbrock value, gradient and Hessian that records the rows it evaluates."""

    def fun(x, rows):
        evaluated.extend(rows)
        a, b = x[:, 0], x[:, 1]
        f = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
        g = np.stack([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)], axis=1)
        H = np.empty((len(x), 2, 2))
        H[:, 0, 0], H[:, 1, 1] = 2.0 - 400.0 * b + 1200.0 * a * a, 200.0
        H[:, 0, 1] = H[:, 1, 0] = -400.0 * a
        return f, g, H

    return fun


def test_newton_minimize_rosenbrock():
    # the classic start, the minimum itself, and a start across the valley
    x0 = np.array([[-1.2, 1.0], [1.0, 1.0], [2.0, -1.0]])
    evaluated = []
    res = optimize.minimize(_rosenbrock(evaluated), x0, gtol=np.full(3, 1e-12))
    nfev = np.bincount(evaluated, minlength=3)
    assert np.abs(res.x - 1.0).max() <= 1e-10
    assert res.fun.max() <= 1e-20
    assert nfev[1] == 1
    assert 1 < nfev[0] < optimize._MAX_ITER and 1 < nfev[2] < optimize._MAX_ITER
    assert res.nfev == nfev.sum() and type(res.nfev) is int
    assert len(set(nfev)) == 3  # the rows stop at different iterations
    for k in range(3):
        alone = optimize.minimize(_rosenbrock([]), x0[k : k + 1], gtol=np.full(1, 1e-12))
        assert alone.nfev == nfev[k]
        assert np.array_equal(alone.x[0], res.x[k]) and alone.fun[0] == res.fun[k]


def _trust_region_rows(rng, n, count):
    """Seeded (g, H, radius) stacks with ``count`` rows of each More-Sorensen case.

    Built in an eigenbasis Q with eigenvalues lam and a = Q^T g: interior rows
    have lam > 0 and the Newton step well inside the region; boundary rows
    have an indefinite H, or the Newton step outside the region; hard-case
    rows have lam_min < 0, a_min = 0 and the step (H - lam_min)^+ g inside;
    near-hard rows are hard-case rows with a_min = +-10^-k, k = 1 .. 13 in
    turn, whose multiplier lies within about a_min of -lam_min.
    """
    cases = []
    for i, case in enumerate(("interior", "boundary", "hard", "near-hard") * count):
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        a = rng.standard_normal(n)
        if case == "interior":
            lam = rng.uniform(0.5, 3.0, n)
            radius = np.linalg.norm(a / lam) * rng.uniform(1.5, 3.0)
        elif case == "boundary":
            lam = np.sort(rng.uniform(-3.0, 3.0, n))
            a[0] = math.copysign(abs(a[0]) + 0.1, a[0])
            radius = rng.uniform(0.1, 0.9) * (np.linalg.norm(a / lam) if lam[0] > 0 else 2.0)
        else:
            lam = -rng.uniform(0.5, 2.0) + np.concatenate([[0.0], rng.uniform(0.5, 3.0, n - 1)])
            a[0] = 0.0 if case == "hard" else rng.choice([-1.0, 1.0]) * 10.0 ** -(1 + i // 4 % 13)
            radius = np.linalg.norm(a[1:] / (lam[1:] - lam[0])) * rng.uniform(1.2, 3.0)
        cases.append((case, Q @ a, (Q * lam) @ Q.T, radius))
    order = rng.permutation(len(cases))
    case, g, H, radius = (np.array([cases[i][j] for i in order]) for j in range(4))
    return case, g, 0.5 * (H + H.swapaxes(1, 2)), radius


@pytest.mark.parametrize("n", [2, 4, 6])
def test_trust_region_step_meets_more_sorensen_conditions(n):
    case, g, H, radius = _trust_region_rows(np.random.default_rng(MASTER_SEED + n), n, 25)
    p = optimize._trust_region_step(g, H, radius)
    for k in range(len(g)):
        norm = np.linalg.norm(p[k])
        Hp = H[k] @ p[k]
        # the multiplier of the step, zero inside the region
        mu = 0.0 if norm < radius[k] * (1.0 - 1e-13) else -(p[k] @ (Hp + g[k])) / (p[k] @ p[k])
        lam_max = np.abs(np.linalg.eigvalsh(H[k])).max()
        scale = np.linalg.norm(g[k]) + lam_max * radius[k]
        assert np.linalg.norm(Hp + mu * p[k] + g[k]) <= 1e-13 * scale, case[k]
        assert mu >= 0.0, case[k]
        assert abs(mu * (norm - radius[k])) <= 1e-13 * scale, case[k]
        assert norm <= radius[k] * (1.0 + 1e-13), case[k]
        assert np.linalg.eigvalsh(H[k] + mu * np.eye(n))[0] >= -1e-13 * lam_max, case[k]
        assert (mu == 0.0) == (case[k] == "interior"), case[k]


def test_general_extrema_repeat_for_a_seed(rng):
    R, g = _random_tangent_space(_GENERAL_MODELS["hitchin-2_10xfs2"], rng)
    a, b = (extremize_directions(R[None], g[None], seed=5) for _ in range(2))
    for f in fields(a):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


@pytest.mark.parametrize("s", ["1e-16", "1e-17"])
def test_tiny_parameter_is_not_converged(s, capsys):
    # K spans 4 .. 4/s, so the rounding of the S^2 quadratic swamps the minimum.
    assert main(["pinch", "--n", "1", "--grid", "64", "--s", s]) == 1
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["converged"] is False
    assert res["method"]["unconverged_cells"] > 0


@pytest.mark.parametrize("n", range(1, 7))
def test_rounding_floor_leaves_certified_reports_unchanged(n, capsys, monkeypatch):
    """The rounding floor is the tolerance of the cells' duality-gap certificate, with a margin of 2.

    On these fibers every gap is within a third of the floor, so half the
    floor leaves each report unchanged to the byte.  Without it the
    certificate asks for a gap of exactly zero, which rounding denies some
    cells: the certificate is live.
    """
    for s in (str(hz.optimal_s(n)[0]), f"3/{10 * n * n}"):
        argv = ["pinch", "--n", str(n), "--grid", "512", "--s", s]
        out = {}
        for ulps in (4.0, 2.0, 0.0):
            monkeypatch.setattr(optimize, "_ROUNDING_ULPS", ulps)
            main(argv)
            out[ulps] = capsys.readouterr().out
        assert out[2.0] == out[4.0]
        assert json.loads(out[4.0])["results"]["method"]["unconverged_cells"] == 0
        assert json.loads(out[0.0])["results"]["method"]["unconverged_cells"] > 0
